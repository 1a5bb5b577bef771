"""Bench infrastructure: phase records, scaling, extrapolation."""

import numpy as np
import pytest

from repro.bench.events import COMPONENTS, PhaseRecord, RunProfile
from repro.bench.scale import TABLE1_PAPER, TABLE4_PAPER, extrapolate
from repro.gpusim.costmodel import CpuEvents, DiskEvents
from repro.gpusim.counters import KernelCounters
from repro.seqsim.datasets import CH21_SPEC


class TestPhaseRecord:
    def test_modeled_time_additive(self):
        rec = PhaseRecord(name="x")
        rec.cpu.seq_read_bytes = 4_200_000_000  # 1s
        rec.disk.write_bytes = 90_000_000  # 1s
        assert rec.modeled_time() == pytest.approx(2.0, rel=1e-6)

    def test_scaled_multiplies_counts(self):
        rec = PhaseRecord(name="x")
        rec.cpu.instructions = 100
        rec.disk.read_bytes = 7
        rec.transfer_bytes = 3
        rec.gpu.g_load = 11
        rec.gpu.launches = 2
        s = rec.scaled(10)
        assert s.cpu.instructions == 1000
        assert s.disk.read_bytes == 70
        assert s.transfer_bytes == 30
        assert s.gpu.g_load == 110
        # Launches scale too: same window size -> factor-times more windows.
        assert s.gpu.launches == 20

    def test_merge(self):
        a = PhaseRecord(name="x")
        a.cpu.instructions = 5
        b = PhaseRecord(name="x")
        b.cpu.instructions = 7
        b.wall = 1.5
        a.merge(b)
        assert a.cpu.instructions == 12 and a.wall == 1.5

    def test_gpu_time_included_when_launched(self):
        rec = PhaseRecord(name="x")
        rec.gpu.launches = 1
        rec.gpu.g_load = 10**6
        assert rec.modeled_time() > 0


class TestRunProfile:
    def test_phase_created_on_demand(self):
        p = RunProfile(pipeline="t")
        p.phase("likelihood").cpu.instructions = 1
        assert "likelihood" in p.records

    def test_breakdown_ordered_by_components(self):
        p = RunProfile(pipeline="t")
        for c in reversed(COMPONENTS):
            p.phase(c).cpu.instructions = 10**9
        assert list(p.breakdown().keys()) == list(COMPONENTS)

    def test_total_is_sum(self):
        p = RunProfile(pipeline="t")
        p.phase("a").cpu.instructions = 2 * 10**9  # 1s
        p.phase("b").disk.write_bytes = 90 * 10**6  # 1s
        assert p.total_modeled() == pytest.approx(2.0, rel=1e-6)


class TestExtrapolation:
    def test_scaling_linear(self):
        p = RunProfile(pipeline="t")
        p.phase("likelihood").cpu.seq_read_bytes = 4_200_000
        fs = extrapolate(p, CH21_SPEC)  # factor 1000
        assert fs.components["likelihood"] == pytest.approx(1.0, rel=1e-3)
        assert fs.scale_factor == 1000

    def test_paper_tables_complete(self):
        for t in (TABLE1_PAPER, TABLE4_PAPER):
            for ds in ("ch1-sim", "ch21-sim"):
                for c in COMPONENTS:
                    assert c in t[ds]
                assert "total" in t[ds]

    def test_paper_speedup_is_about_42_to_50(self):
        for ds in ("ch1-sim", "ch21-sim"):
            sp = TABLE1_PAPER[ds]["total"] / TABLE4_PAPER[ds]["total"]
            assert 40 < sp < 55


class TestEndToEndCalibration:
    """Full-scale modeled totals must land near the paper's Tables I/IV —
    the quantitative core of the reproduction."""

    @pytest.fixture(scope="class")
    def ch21(self):
        from repro.bench.harness import (
            bench_spec,
            gsnp_result,
            soapsnp_result,
        )

        spec = bench_spec("ch21-sim", 0.25)
        soap = extrapolate(
            soapsnp_result("ch21-sim", 0.25).profile, spec
        )
        gsnp = extrapolate(
            gsnp_result("ch21-sim", "gpu", 0.25).profile, spec
        )
        return soap, gsnp

    def test_soapsnp_total_within_2x(self, ch21):
        soap, _ = ch21
        paper = TABLE1_PAPER["ch21-sim"]["total"]
        assert 0.5 < soap.total / paper < 2.0

    def test_gsnp_total_within_2x(self, ch21):
        _, gsnp = ch21
        paper = TABLE4_PAPER["ch21-sim"]["total"]
        assert 0.5 < gsnp.total / paper < 2.0

    def test_speedup_shape(self, ch21):
        """Paper: ~50x end-to-end for Ch.21 — we require >25x."""
        soap, gsnp = ch21
        assert soap.total / gsnp.total > 25

    def test_likelihood_dominates_soapsnp(self, ch21):
        soap, _ = ch21
        assert soap.components["likelihood"] == max(soap.components.values())

    def test_recycle_negligible_in_gsnp(self, ch21):
        _, gsnp = ch21
        assert gsnp.components["recycle"] < 0.05 * gsnp.total
