"""Tests of the benchmark suite itself.

Not part of tier-1 (``testpaths = ["tests"]``) and not named ``bench_*``;
run with ``python -m pytest benchmarks/suite/test_suite.py``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import metrics  # noqa: E402

# Loaded by path: the file is named trace.py as the issue asks, and must
# not be confused with the standard library's ``trace`` under pytest.
_spec = importlib.util.spec_from_file_location("suite_trace", HERE / "trace.py")
suite_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(suite_trace)


def run_py(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )


def test_selfcheck_passes():
    """Every declared metric is emitted for every workload, exact metrics
    repeat for a seed and move with it, a corrupted byte is caught."""
    proc = run_py("--selfcheck")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck: OK" in proc.stdout


def test_declaration_meets_the_contract():
    doc = metrics.load_declaration()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["paths"] == ["benchmarks/suite"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    names = [w["name"] for w in doc["workloads"]]
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(metrics.NAME_RE.match(n) for n in names)
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert m["better"] in ("lower", "higher")


def test_declared_workloads_are_the_implemented_ones():
    from workloads import WORKLOADS

    doc = metrics.load_declaration()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_boundary_guard_lists_every_missing_name():
    with pytest.raises(suite_trace.BoundaryError) as err:
        suite_trace.resolve_boundaries((
            ("ok", "repro.gpusim.device:Device.launch"),
            ("renamed", "repro.gpusim.device:Device.no_such_method"),
            ("moved", "repro.no_such_module:function"),
        ))
    assert "no_such_method" in str(err.value)
    assert "no_such_module" in str(err.value)


def test_tracer_patches_copied_references_and_restores_them():
    import repro.core.counting as counting
    import repro.core.pipeline as pipeline
    from repro.gpusim.device import Device

    original, launch = counting.gsnp_counting, Device.launch
    tracer = suite_trace.Tracer()
    tracer.install()
    try:
        # pipeline.py did ``from .counting import gsnp_counting``.
        assert pipeline.gsnp_counting is not original
        assert pipeline.gsnp_counting is counting.gsnp_counting
        assert Device.launch is not launch
    finally:
        tracer.uninstall()
    assert pipeline.gsnp_counting is original
    assert counting.gsnp_counting is original
    assert Device.launch is launch


def test_tracer_self_time_excludes_child_spans():
    import repro.gpusim.memory as memory
    from repro.gpusim.pool import acquire_device

    tracer = suite_trace.Tracer((
        ("launch", "repro.gpusim.device:Device.launch"),
        ("count", "repro.gpusim.memory:count_transactions"),
    ))
    tracer.install()
    try:
        def kernel(ctx):
            memory.count_transactions(list(range(64)), 4)

        acquire_device().launch(kernel, 64)
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    assert agg["launch"]["n"] == 1 and agg["count"]["n"] == 1
    assert agg["launch"]["self_s"] == pytest.approx(
        agg["launch"]["busy_s"] - agg["count"]["busy_s"]
    )


def _timed(value, lo, hi):
    return {"value": value, "min": lo, "max": hi, "n": 7}


@pytest.mark.parametrize("base,new,better,exact,want", [
    (_timed(1.0, 0.98, 1.02), _timed(1.01, 0.99, 1.03), "lower", False, "same"),
    (_timed(1.0, 0.98, 1.02), _timed(1.2, 1.18, 1.22), "lower", False, "worse"),
    (_timed(1.0, 0.98, 1.02), _timed(0.8, 0.78, 0.82), "lower", False, "better"),
    # Bands overlap and one is wider than the 10 % bound: cannot tell.
    (_timed(1.0, 0.9, 1.3), _timed(1.15, 1.0, 1.2), "lower", False, "unresolved"),
    ({"value": 5.0}, {"value": 5.0}, "lower", True, "same"),
    ({"value": 5.0}, {"value": 5.0001}, "lower", True, "worse"),
    ({"value": 0.9}, {"value": 0.8}, "higher", True, "worse"),
    ({"value": 0.9}, {"value": 0.95}, "higher", True, "better"),
])
def test_compare_verdicts(base, new, better, exact, want):
    assert compare.verdict(base, new, better, 0.10, exact) == want


def test_compare_fails_on_regression_and_on_new_failures(tmp_path):
    def record(wall, fail):
        return {
            "record": {"seed": 0, "sizes": {}},
            "workloads": {"solo-smallwin": {"end_to_end": {
                "wall_s": {**_timed(wall, wall * 0.99, wall * 1.01), "unit": "s"},
                "fail_ratio": {"value": fail, "unit": "ratio"},
            }}},
        }

    doc = metrics.load_declaration()
    assert compare.compare(record(1.0, 0.0), record(1.0, 0.0), doc)[1]
    assert not compare.compare(record(1.0, 0.0), record(1.5, 0.0), doc)[1]
    assert not compare.compare(record(1.0, 0.0), record(1.0, 0.125), doc)[1]
    paths = []
    for i, rec in enumerate((record(1.0, 0.0), record(1.5, 0.0))):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(rec))
    proc = run_py("--compare", str(paths[0]), str(paths[1]))
    assert proc.returncode == 1 and "worse" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_py(
        "--workload", "solo-smallwin", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
        script=tmp_path / "benchmarks" / "suite" / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
