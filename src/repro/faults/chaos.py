"""``gsnp chaos``: run the pipeline under a fault schedule, assert parity.

The tentpole's own acceptance harness.  One invocation:

1. simulates a dataset and writes its (fasta, soap, prior) input files;
2. runs the sharded executor fault-free — the reference bytes;
3. re-runs under a :class:`~repro.faults.plan.FaultPlan` combining a
   worker-process crash, a truncated input record, and a device
   allocation failure (plus a seeded random schedule), letting the
   retry/degradation machinery absorb every fault — then asserts the CNS
   output is **bitwise identical** to the fault-free run;
4. aborts a journaled run mid-stream (a shard whose injected failures
   exhaust the retry budget), re-invokes with ``resume=True``, and
   asserts the resumed merge reproduces the same bytes;
5. exercises the quarantine rung on a deliberately corrupted copy of the
   input file.

Exit status 0 means every parity check passed for every seed — the CI
``chaos-smoke`` job runs a fixed seed matrix of these.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

from ..errors import FormatError, GsnpError, ShardError
from .degrade import DegradationWarning
from .journal import ShardJournal, run_fingerprint  # noqa: F401 (re-export)
from .plan import FaultPlan, FaultSpec, fault_plan

#: Dataset/shard geometry of the harness: small enough for CI, large
#: enough for 4 workers with multiple shards each.
N_SITES = 6_000
WINDOW = 1_000
SHARD_SIZE = 1_000
DEPTH = 8.0


def _write_inputs(tmp: Path, seed: int):
    from ..align.records import AlignmentBatch
    from ..formats.fasta import write_fasta
    from ..formats.prior import write_prior
    from ..formats.soap import write_soap
    from ..seqsim.datasets import DatasetSpec, generate_dataset

    ds = generate_dataset(
        DatasetSpec(
            name="chrChaos",
            n_sites=N_SITES,
            depth=DEPTH,
            coverage=0.9,
            seed=seed,
        )
    )
    fasta = tmp / "chaos.fa"
    soap = tmp / "chaos.soap"
    prior = tmp / "chaos.prior"
    write_fasta(fasta, [ds.reference])
    write_soap(soap, AlignmentBatch.from_read_set(ds.reads))
    write_prior(prior, ds.reference.name, ds.prior)
    return fasta, soap, prior


def _load_dataset(fasta, soap, prior, max_attempts: int = 3):
    """Parse the input files, retrying transient read corruption.

    The ``formats.soap.record`` truncation fault models an I/O-level
    corruption: the file's bytes are fine, the delivered record is not.
    Re-reading is the correct response, and the fault clock guarantees
    the retry sees clean data.
    """
    from ..core.detector import dataset_from_files

    last: Exception | None = None
    for _ in range(max_attempts):
        try:
            return dataset_from_files(fasta, soap, prior)
        except FormatError as exc:
            last = exc
    raise GsnpError(
        f"input unreadable after {max_attempts} attempts"
    ) from last


def _execute(dataset, output, *, max_retries: int = 2, **fields):
    """One chaos job: ``fields`` are ``JobSpec`` fields on the harness's
    fixed window/shard shape."""
    from ..api import JobSpec
    from ..exec import execute

    spec = JobSpec(window=WINDOW, shard_size=SHARD_SIZE, **fields)
    return execute(
        dataset, spec=spec, output_path=output, max_retries=max_retries
    )


def _demo_plan(seed: int, n_shards: int, *, timeout_demo: bool) -> FaultPlan:
    """The acceptance schedule: crash + truncated record + allocation
    failure (all transient), plus a seeded random tail."""
    specs = [
        FaultSpec(site="exec.worker.crash", kind="crash", key=1, times=1),
        FaultSpec(site="gpusim.device.alloc", kind="alloc", key=2, times=1),
        FaultSpec(
            # Line numbers are 1-based; truncating line 3's bytes makes
            # the parse fail with coordinates, once.
            site="formats.soap.record", kind="truncate", key=3, times=1,
            arg=0.4,
        ),
        FaultSpec(site="exec.shard.error", key=0, times=1),
    ]
    if timeout_demo:
        specs.append(
            FaultSpec(
                site="exec.shard.slow", kind="slow", key=3, times=1, arg=8.0
            )
        )
    tail = FaultPlan.generate(
        seed, n_shards,
        sites=("exec.shard.error", "gpusim.device.alloc"),
    )
    return FaultPlan(tuple(specs) + tail.specs, seed=seed)


def run_chaos(
    seed: int = 0,
    *,
    engine: str = "gsnp",
    workers: int = 4,
    timeout_demo: bool = False,
    keep_dir: str | None = None,
) -> dict:
    """One full chaos cycle; returns a structured report dict."""
    report: dict = {"seed": seed, "engine": engine, "workers": workers}
    ctx = (
        tempfile.TemporaryDirectory(prefix="gsnp-chaos-")
        if keep_dir is None
        else None
    )
    tmp = Path(ctx.name) if ctx is not None else Path(keep_dir)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        fasta, soap, prior = _write_inputs(tmp, seed)
        n_shards = -(-N_SITES // SHARD_SIZE)

        # -- reference: fault-free run --------------------------------
        baseline_out = tmp / "baseline.out"
        dataset = _load_dataset(fasta, soap, prior)
        base = _execute(dataset, baseline_out, engine=engine, workers=workers)
        base_bytes = baseline_out.read_bytes()
        report["n_shards"] = n_shards

        # -- chaos run: crash + truncation + alloc failure ------------
        plan = _demo_plan(seed, n_shards, timeout_demo=timeout_demo)
        chaos_out = tmp / "chaos.out"
        degradations: list[str] = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegradationWarning)
            with fault_plan(plan):
                chaos_ds = _load_dataset(fasta, soap, prior)
            chaos = _execute(
                chaos_ds, chaos_out, engine=engine, workers=workers,
                faults=plan,
                shard_timeout=4.0 if timeout_demo else None,
            )
            degradations = [
                str(w.message)
                for w in caught
                if isinstance(w.message, DegradationWarning)
            ]
        chaos_bytes = chaos_out.read_bytes()
        report["chaos"] = {
            "bitwise_identical": chaos_bytes == base_bytes,
            "table_identical": bool(chaos.table.equals(base.table)),
            "retries": chaos.extras["exec"]["retries"],
            "degradations": degradations,
            "specs": [s.site for s in plan.specs],
        }

        # -- kill mid-stream, then --resume ---------------------------
        journal_dir = tmp / "journal"
        poison = FaultPlan(
            (
                FaultSpec(
                    site="exec.shard.error", key=n_shards - 1, times=99
                ),
            ),
            seed=seed,
        )
        resume_out = tmp / "resume.out"
        try:
            _execute(
                dataset, resume_out, engine=engine, workers=workers,
                faults=poison, journal=str(journal_dir), max_retries=1,
            )
            died = False
        except ShardError:
            died = True
        journal = next(journal_dir.iterdir())
        committed_before = len(list(journal.glob("shard-*.pkl")))
        resumed = _execute(
            dataset, resume_out, engine=engine, workers=workers,
            journal=str(journal_dir), resume=True,
        )
        resume_bytes = resume_out.read_bytes()
        report["resume"] = {
            "run_died_mid_stream": died,
            "no_partial_output": died and not (
                resume_out.exists() and committed_before == 0
            ),
            "committed_before_resume": committed_before,
            "resumed_shards": resumed.extras["exec"]["resumed"],
            "bitwise_identical": resume_bytes == base_bytes,
        }

        # -- quarantine rung on a genuinely corrupt file --------------
        from ..formats.soap import read_soap

        bad_soap = tmp / "corrupt.soap"
        lines = soap.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 3].rstrip(b"\n") + b"\n"
        bad_soap.write_bytes(b"".join(lines))
        qpath = tmp / "quarantine.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            batch = read_soap(bad_soap, quarantine=qpath)
        qtext = qpath.read_text()
        report["quarantine"] = {
            "records_kept": batch.n_reads,
            "records_dropped": len(lines) - batch.n_reads,
            "has_coordinates": f"{bad_soap}:3:" in qtext,
        }

        report["ok"] = bool(
            report["chaos"]["bitwise_identical"]
            and report["chaos"]["table_identical"]
            and report["resume"]["run_died_mid_stream"]
            and report["resume"]["committed_before_resume"] > 0
            and report["resume"]["bitwise_identical"]
            and report["quarantine"]["records_dropped"] == 1
            and report["quarantine"]["has_coordinates"]
        )
        return report
    finally:
        if ctx is not None:
            ctx.cleanup()


def format_report(report: dict) -> str:
    """Human-readable multi-line summary of a :func:`run_chaos` report."""
    c, r, q = report["chaos"], report["resume"], report["quarantine"]
    lines = [
        f"seed={report['seed']} engine={report['engine']} "
        f"workers={report['workers']} shards={report['n_shards']}",
        f"  chaos : faults={len(c['specs'])} retries={c['retries']} "
        f"degradations={len(c['degradations'])} "
        f"parity={'OK' if c['bitwise_identical'] else 'FAILED'}",
        f"  resume: committed={r['committed_before_resume']} "
        f"resumed={r['resumed_shards']} "
        f"parity={'OK' if r['bitwise_identical'] else 'FAILED'}",
        f"  quarantine: kept={q['records_kept']} "
        f"dropped={q['records_dropped']} "
        f"coords={'OK' if q['has_coordinates'] else 'MISSING'}",
        f"  => {'OK' if report['ok'] else 'FAILED'}",
    ]
    return "\n".join(lines)


__all__ = ["format_report", "run_chaos"]
