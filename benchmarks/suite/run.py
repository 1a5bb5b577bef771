#!/usr/bin/env python3
"""The repository benchmark: two clocks, four workloads, outside-in trace.

Driver contract (``BENCHMARK.json``)::

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

prints, as the last line of standard output, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

By hand::

    python3 benchmarks/suite/run.py --seed N [--workload W] [--traced] [--out F]
    python3 benchmarks/suite/run.py --compare A.json B.json
    python3 benchmarks/suite/run.py --selfcheck

Each workload runs in fresh child processes (``child.py``); end-to-end
numbers come from untraced repetitions, per-layer numbers from a separate
traced run of the same job.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
from metrics import ROOT  # noqa: E402
from workloads import WORKLOADS, sizes  # noqa: E402

#: Fresh processes whose set-up time is measured per untraced run; the
#: median is reported, because one set-up is the noisiest number here.
SETUPS = 3
CHILD_TIMEOUT_S = 170


def spawn(workload: str, seed: int, *, seconds: float = 0.0, trace: int = 0,
          scale: int = 1, setup_only: bool = False, corrupt: bool = False,
          min_reps=None, spans=None) -> dict:
    """Run one child process to completion and return its JSON payload."""
    argv = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", str(scale), "--workroot", str(ROOT / ".bench_work"),
    ]
    if setup_only:
        argv.append("--setup-only")
    if corrupt:
        argv.append("--corrupt")
    if min_reps is not None:
        argv += ["--min-reps", str(min_reps)]
    if spans:
        argv += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    argv += ["--spawned-at", repr(time.time())]
    # Its own process group, so a child that overruns takes its pool
    # workers down with it: nothing this benchmark starts may outlive it.
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload}: child exited {proc.returncode} without a result"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            spans=None) -> dict:
    """One run of one workload: the declared metrics plus the failure count."""
    declared = metrics.load_declaration()
    payloads = []
    if not trace:
        payloads += [
            spawn(workload, seed, setup_only=True) for _ in range(SETUPS - 1)
        ]
    payloads.append(spawn(workload, seed, seconds=seconds, trace=trace,
                          spans=spans))
    main = payloads[-1]
    attempted = sum(p["attempted"] for p in payloads)
    failures = [f for p in payloads for f in p["failures"]]
    out = {
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures,
        "verify_s": main.get("verify_s", 0.0),
    }
    if "end_to_end" in main:
        setups = [p["setup_s"] for p in payloads]
        values = dict(main["end_to_end"])
        values["setup_s"] = {
            "value": statistics.median(setups), "min": min(setups),
            "max": max(setups), "n": len(setups),
        }
        values["fail_ratio"] = out["failed"] / attempted
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        units["fail_ratio"] = "ratio"
        out["end_to_end"] = {
            name: {**(v if isinstance(v, dict) else {"value": v}),
                   "unit": units[name]}
            for name, v in values.items()
        }
    if "per_layer" in main:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        out["per_layer"] = {
            name: {"value": main["per_layer"][name], "unit": unit}
            for name, unit in units.items()
        }
    return out


def driver_line(result: dict, kind: str) -> str:
    """The contract's last line: exactly the declared metrics of one kind."""
    declared = metrics.load_declaration()[kind]
    have = result.get(kind, {})
    return json.dumps({
        "correct": result["failed"] == 0 and all(
            m["name"] in have for m in declared
        ),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": have[m["name"]]["value"], "unit": m["unit"]}
            for m in declared if m["name"] in have
        },
    })


def run_record(seed: int, seconds: float) -> dict:
    """Where and on what the numbers were taken."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "seed": seed,
        "run_seconds": seconds,
        "sizes": {name: sizes(w) for name, w in WORKLOADS.items()},
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "load_1min": load,
        "noisy": load > nproc,
    }


def print_metrics(name: str, seed: int, result: dict) -> None:
    print(f"== {name} (seed {seed}) ==")
    for kind in ("end_to_end", "per_layer"):
        for metric, row in result.get(kind, {}).items():
            band = (
                f"  min {row['min']:.6g} max {row['max']:.6g} n={row['n']}"
                if "min" in row else ""
            )
            print(f"  {metric:40s} {row['value']:<14.8g} {row['unit']}{band}")
    print(f"  {'verify_s':40s} {result['verify_s']:<14.8g} s  (informational)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def run_by_hand(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    record = run_record(args.seed, args.seconds)
    if record["noisy"]:
        print(f"warning: 1-min load {record['load_1min']:.2f} > nproc "
              f"{record['nproc']}: this run is flagged noisy", file=sys.stderr)
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, trace=0)
        if args.traced:
            spans = None
            if args.spans:
                spans = Path(f"{args.spans}.{name}.json").resolve()
            traced = measure(name, args.seed, args.seconds, trace=1,
                             spans=spans)
            result["per_layer"] = traced.get("per_layer", {})
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["failures"] += traced["failures"]
        print_metrics(name, args.seed, result)
        results[name] = result
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"record": record, "workloads": results}, f, indent=1)
    return 1 if any(r["failed"] for r in results.values()) else 0


def selfcheck() -> int:
    """Fast end-to-end check of the benchmark itself (sizes / 8, 2 reps)."""
    declared = metrics.load_declaration()
    want_e2e = {m["name"] for m in declared["end_to_end"]} - {"setup_s"}
    want_layer = {m["name"] for m in declared["per_layer"]}
    exact_keys = metrics.EXACT_END_TO_END + metrics.EXACT_PER_LAYER
    problems = []

    def small(name, seed, **kw):
        return spawn(name, seed, trace=1, scale=8, min_reps=2, **kw)

    with concurrent.futures.ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        jobs = {
            (name, label): pool.submit(small, name, seed)
            for name in WORKLOADS
            for label, seed in (("a", 0), ("b", 0), ("other-seed", 1))
        }
        jobs[("solo-smallwin", "corrupt")] = pool.submit(
            small, "solo-smallwin", 0, corrupt=True
        )
        runs = {key: job.result() for key, job in jobs.items()}

    corrupt = runs.pop(("solo-smallwin", "corrupt"))
    if not any("verification" in f for f in corrupt["failures"]):
        problems.append("a corrupted output byte passed verification")
    for (name, label), run in runs.items():
        for failure in run["failures"]:
            problems.append(f"{name}/{label}: {failure}")
        for kind, want in (("end_to_end", want_e2e), ("per_layer", want_layer)):
            have = set(run.get(kind, {}))
            if have != want:
                problems.append(
                    f"{name}/{label}: {kind} names differ from BENCHMARK.json:"
                    f" missing {sorted(want - have)}, extra {sorted(have - want)}"
                )
    for name in WORKLOADS:
        flat = {
            label: {**runs[(name, label)].get("end_to_end", {}),
                    **runs[(name, label)].get("per_layer", {})}
            for label in ("a", "b", "other-seed")
        }
        moved = [k for k in exact_keys if flat["a"].get(k) != flat["b"].get(k)]
        if moved:
            problems.append(f"{name}: exact metrics differ between two runs "
                            f"of one seed: {moved}")
        if all(flat["a"].get(k) == flat["other-seed"].get(k)
               for k in exact_keys):
            problems.append(f"{name}: another seed gave identical exact "
                            "metrics (inputs do not follow --seed)")
    for m in declared["end_to_end"] + declared["per_layer"]:
        if not metrics.NAME_RE.match(m["name"]):
            problems.append(f"metric name {m['name']!r} is malformed")
    for problem in problems:
        print(f"selfcheck: {problem}")
    print(f"selfcheck: {'FAILED' if problems else 'OK'} "
          f"({len(runs) + 1} runs, {len(want_e2e) + 1} end-to-end and "
          f"{len(want_layer)} per-layer metrics x {len(WORKLOADS)} workloads)")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="driver mode: print the contract's JSON line")
    p.add_argument("--traced", action="store_true",
                   help="by hand: also make the traced run (per-layer metrics)")
    p.add_argument("--spans", help="by hand: dump raw spans to "
                   "<SPANS>.<workload>.json")
    p.add_argument("--out", help="by hand: write the result record here")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmark: src/repro not found beside BENCHMARK.json; "
              "nothing to measure", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.seconds is None:
        args.seconds = metrics.load_declaration()["run_seconds"]
    if args.trace is None:
        return run_by_hand(args)
    if not args.workload:
        p.error("--trace needs --workload")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(driver_line(result, "per_layer" if args.trace else "end_to_end"))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
