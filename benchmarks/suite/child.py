"""One workload in one fresh process: set-up, repetitions, verification.

``run.py`` starts this file as a child process per workload so that lazy
tables, memoised accounting engines and RSS never leak between workloads.
Closed loop, one job at a time: 1 cold repetition (counted in ``setup_s``,
discarded from the timings) and then timed repetitions of one complete
calling job.  With ``--trace 1`` the timed repetitions run twice, first
untraced and then under the tracer, so the same process yields the tracing
overhead and the proof that tracing did not perturb the simulation.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import metrics
import verify
from workloads import WORKLOADS, prepare, run_job

#: Repetitions that make one measurement: 1 cold + 7 timed.  Peak RSS is
#: read after exactly this many, however long ``--seconds`` keeps going.
TIMED_REPS = 7
TRACE_REPS = 3


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def reap_children(timeout: float = 10.0) -> None:
    """Wait for the job's worker processes to exit so their CPU time and
    peak RSS are charged to the repetition that used them."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.002)


def rss_now_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker
    (KiB on Linux) — the closest ``getrusage`` gets to a process tree."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


class Run:
    """State of one workload run: inputs, oracle and per-repetition rows."""

    def __init__(self, inputs, scale: int) -> None:
        self.inputs = inputs
        self.scale = scale
        self.oracle = None
        self.attempted = 0
        self.failures: list = []
        self.verify_s = 0.0

    def job(self) -> dict:
        """Run one repetition; the timed region is ``run_job`` alone."""
        self.attempted += 1
        row: dict = {"outcome": None}
        # Start every repetition from a collected heap, so a collection
        # owed to the previous job is not billed to this one.
        gc.collect()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            row["outcome"] = run_job(self.inputs)
        except Exception:
            self.failures.append(
                f"repetition {self.attempted} raised:\n"
                + traceback.format_exc()
            )
        row["wall_s"] = time.perf_counter() - t0
        reap_children()
        row["cpu_s"] = cpu_seconds() - cpu0
        row["rss_mb"] = rss_now_mb()
        return row

    def check(self, row: dict, corrupt: bool = False) -> None:
        """Verify a repetition's output, read its exact metrics, drop it."""
        outcome = row.pop("outcome")
        if outcome is None:
            return
        t0 = time.perf_counter()
        if corrupt:
            blob = bytearray(outcome.blobs[0])
            blob[len(blob) // 2] ^= 0xFF
            outcome.blobs[0] = bytes(blob)
        failures, score = verify.check(
            outcome, self.oracle, self.inputs,
            enforce_floors=self.scale == 1,
        )
        if failures:
            self.failures.append(
                f"repetition {self.attempted} failed verification: "
                + "; ".join(failures)
            )
        w = self.inputs.workload
        row["exact"] = metrics.exact_metrics(
            outcome.result, self.inputs.n_sites, w.n_samples
        )
        row["exact"]["snp_precision"] = score.precision
        row["exact"]["snp_recall"] = score.recall
        row["timed"] = metrics.timed_from_result(outcome.result)
        self.verify_s += time.perf_counter() - t0

    def repeat(self, min_reps: int, seconds: float, before=None) -> list:
        """Timed repetitions: at least ``min_reps``, at least ``seconds``.

        ``before(i)`` runs ahead of repetition ``i`` (the tracer's job id).
        """
        rows: list = []
        while len(rows) < min_reps or sum(r["wall_s"] for r in rows) < seconds:
            if before is not None:
                before(len(rows))
            row = self.job()
            self.check(row)
            rows.append(row)
            if len(rows) == TIMED_REPS:
                row["peak_rss_mb"] = peak_rss_mb()
        return rows


def differing(a: dict, b: dict, keys) -> list:
    return [k for k in keys if k in a and a[k] != b.get(k)]


def summarize(values: list) -> dict:
    return {
        "value": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values),
    }


def measure(args, inputs, run: Run, cold_row: dict, tracer) -> dict:
    t0 = time.perf_counter()
    run.oracle = verify.build_oracle(inputs)
    run.verify_s += time.perf_counter() - t0
    run.check(cold_row)

    # A traced run splits its time between untraced and traced repetitions.
    min_reps = args.min_reps or (TIMED_REPS if tracer is None else TRACE_REPS)
    seconds = args.seconds if tracer is None else args.seconds / 2
    rows = run.repeat(min_reps, seconds)
    if args.corrupt:
        # Self-check: a flipped output byte must fail verification.
        run.check(run.job(), corrupt=True)
    good = [r for r in rows if "exact" in r]
    if not good:
        return {}
    exact = good[0]["exact"]
    for r in good[1:]:
        bad = differing(exact, r["exact"], exact)
        if bad:
            run.failures.append(
                "exact metrics differ between repetitions of one seed: "
                + ", ".join(bad)
            )
            break
    peak = [r["peak_rss_mb"] for r in rows if "peak_rss_mb" in r]
    payload = {
        "end_to_end": {
            "wall_s": summarize([r["wall_s"] for r in rows]),
            "cpu_s": summarize([r["cpu_s"] for r in rows]),
            "peak_rss_mb": peak[0] if peak else peak_rss_mb(),
            **{k: exact[k] for k in metrics.EXACT_END_TO_END},
        },
    }
    if tracer is not None:
        layer = trace_layers(args, inputs, run, tracer, rows, exact, min_reps,
                             seconds)
        if layer is not None:
            payload["per_layer"] = layer
    return payload


def trace_layers(args, inputs, run: Run, tracer, rows: list, exact: dict,
                 min_reps: int, seconds: float):
    """Traced repetitions of the same job -> the per-layer metrics.

    ``rows``/``exact`` are the untraced repetitions just made in this
    process: the overhead ratio is paired with them, and the traced exact
    metrics must equal them (the tracer may not perturb the simulation).
    """
    tracer.install()
    try:
        traced = run.repeat(
            min_reps, seconds, before=lambda i: setattr(tracer, "job", i)
        )
    finally:
        tracer.uninstall()
    good = [r for r in traced if "exact" in r]
    if not good:
        return None
    perturbed = differing(
        exact, good[0]["exact"],
        metrics.EXACT_END_TO_END + metrics.EXACT_PER_LAYER,
    )
    if perturbed:
        run.failures.append(
            "tracer perturbed the simulation; exact metrics changed: "
            + ", ".join(perturbed)
        )
    aggregate = tracer.aggregate()
    layer = metrics.span_metrics(aggregate, len(traced))
    layer.update({
        k: v for k, v in good[0]["exact"].items()
        if k not in metrics.EXACT_END_TO_END
    })
    for key in good[0]["timed"]:
        layer[key] = statistics.mean(r["timed"][key] for r in good)
    soap_reads = aggregate["formats.read_soap"]["n"] / len(traced)
    layer["formats.read_soap.bytes"] = (
        soap_reads * inputs.soap.stat().st_size if inputs.soap else 0
    )
    rss = [r["rss_mb"] for r in rows]
    layer["host.rss_growth_mb_per_rep"] = (rss[-1] - rss[0]) / (len(rss) - 1)
    layer["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in rows)
    )
    layer["trace.coverage"] = (
        tracer.self_seconds(threading.get_ident())
        / sum(r["wall_s"] for r in traced)
    )
    if args.spans:
        tracer.dump(args.spans)
    return layer


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--min-reps", type=int, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--spawned-at", type=float, default=None)
    p.add_argument("--workroot", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    tracer = None
    if args.trace:
        # Resolve every boundary before the first repetition (the guard).
        from trace import Tracer

        tracer = Tracer()
    workload = WORKLOADS[args.workload]
    Path(args.workroot).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=args.workroot))
    # Pool workers and lazy caches must stay inside the checkout too.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        inputs = prepare(workload, args.seed, args.scale, workdir)
        run = Run(inputs, args.scale)
        cold_row = run.job()
        out = {"setup_s": time.time() - spawned_at}
        if not args.setup_only:
            out.update(measure(args, inputs, run, cold_row, tracer))
            out["verify_s"] = run.verify_s
        out["attempted"] = run.attempted
        out["failures"] = run.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # not empty: a sibling is running
            os.rmdir(args.workroot)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
