"""Smoke tests: the shipped examples must run end to end.

The heavyweight sweeps (whole-genome, aligner) are exercised with reduced
arguments; the rest run as shipped.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, *args: str, timeout: int = 240, env=None) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "variant calls" in out
        assert "precision=" in out

    def test_compressed_results_workflow(self):
        out = _run("compressed_results_workflow.py")
        assert "sequential scan" in out
        assert "SNP rows" in out

    def test_gpu_kernel_profiling(self):
        out = _run("gpu_kernel_profiling.py")
        assert "bitwise identical" in out
        assert "optimized" in out

    def test_whole_genome_reduced(self):
        out = _run("whole_genome_calling.py", "--chromosomes", "2",
                   "--fraction", "0.03")
        assert "modeled full-scale totals" in out
        assert "NO!" not in out

    def test_streaming_bigfile(self):
        out = _run("streaming_bigfile.py")
        assert "streamed" in out
        assert "SNP rows" in out

    def test_aligner_to_calls_leaves_no_temp_files(self, tmp_path):
        env = {**os.environ, "TMPDIR": str(tmp_path)}
        out = _run("aligner_to_calls.py", env=env)
        assert "calls from aligner output" in out
        assert list(tmp_path.iterdir()) == []

    def test_examples_exist_and_documented(self):
        scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
        assert len(scripts) >= 3
        for p in EXAMPLES.glob("*.py"):
            head = p.read_text().split("\n", 3)
            assert '"""' in head[1] or '"""' in head[2], p.name
