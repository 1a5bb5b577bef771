"""Does cal_p_matrix earn its keep?  Calibration vs pure theory.

SOAPsnp spends a full pass over the input to calibrate ``p_matrix``; these
tests verify the calibrated matrix reflects the data (error rates per
cycle) and that the calling machinery works with either matrix — the
calibration is a refinement, not a crutch.
"""

import numpy as np
import pytest

from repro.soapsnp import (
    CallingParams,
    build_p_matrix,
    theoretical_p_matrix,
)


class TestCalibrationReflectsData:
    def test_observed_cells_deviate_from_theory(
        self, small_batch, small_dataset, small_params
    ):
        """Heavily observed cells move away from the smoothing prior."""
        pm = build_p_matrix(small_batch, small_dataset.reference, small_params)
        th = theoretical_p_matrix()
        # Within the observed score range and read length, some cells must
        # differ measurably from theory (real data is not the ideal model).
        window = pm[10:40, :100] - th[10:40, :100]
        assert np.abs(window).max() > 1e-3

    def test_unobserved_cells_stay_theoretical(
        self, small_batch, small_dataset, small_params
    ):
        pm = build_p_matrix(small_batch, small_dataset.reference, small_params)
        th = theoretical_p_matrix()
        # Coordinates beyond the 100 bp reads are never observed.
        assert np.allclose(pm[:, 120:], th[:, 120:])

    def test_error_mass_tracks_quality(self, small_batch, small_dataset,
                                       small_params):
        """Lower reported quality -> more off-diagonal probability mass."""
        pm = build_p_matrix(small_batch, small_dataset.reference, small_params)
        def err_mass(q):
            cell = pm[q, 10]
            return 1.0 - np.trace(cell) / 4.0
        assert err_mass(15) > err_mass(38)

    def test_pseudo_count_controls_blend(self, small_batch, small_dataset):
        heavy = CallingParams(read_len=100, calibration_pseudo=1e9)
        pm = build_p_matrix(small_batch, small_dataset.reference, heavy)
        assert np.allclose(pm, theoretical_p_matrix(), atol=1e-6)


class TestTheoryOnlyCalling:
    def test_calling_works_with_theoretical_matrix(self, small_dataset):
        """The pipeline machinery is calibration-agnostic: swapping in the
        pure Phred model still recovers planted SNPs."""
        from repro.formats.window import Window
        from repro.soapsnp import (
            extract_observations,
            is_snp_call,
            summarize_window,
            window_type_likely,
        )
        from repro.soapsnp.p_matrix import flatten_p_matrix

        params = CallingParams(read_len=100)
        reads = small_dataset.reads
        obs = extract_observations(
            Window(start=0, end=small_dataset.n_sites, reads=reads)
        )
        tl = window_type_likely(
            obs, flatten_p_matrix(theoretical_p_matrix()),
            params.penalty_table(),
        )
        table = summarize_window(
            obs, 0, small_dataset.reference.codes, small_dataset.prior, tl,
            params, chrom="c",
        )
        calls = set((table.pos[is_snp_call(table)] - 1).tolist())
        truth = {
            int(p) for p in small_dataset.diploid.snp_positions
            if table.depth[int(p)] >= 4
        }
        assert len(calls & truth) / max(len(truth), 1) > 0.7


class TestCostModelDiagnostics:
    def test_effective_bandwidth(self):
        from repro.gpusim.costmodel import GpuCostModel
        from repro.gpusim.counters import KernelCounters

        m = GpuCostModel()
        c = KernelCounters(g_load=1000, g_load_bytes=128_000)
        bw = m.effective_bandwidth(c)
        assert bw == pytest.approx(82e9, rel=0.01)
        assert m.effective_bandwidth(KernelCounters()) == 0.0

    def test_shared_time_term(self):
        from repro.gpusim.costmodel import GpuCostModel
        from repro.gpusim.counters import KernelCounters

        m = GpuCostModel()
        c = KernelCounters(s_load_warp=10**9)
        assert m.shared_time(c) > 0
        # Shared traffic alone can dominate the roofline.
        assert m.kernel_time(c) == pytest.approx(m.shared_time(c))

    def test_soap_line_bytes_reasonable(self):
        from repro.formats.soap import soap_line_bytes

        assert 200 <= soap_line_bytes(100) <= 300

    def test_launch_with_shared_request(self, device):
        def k(ctx):
            ctx.instr(1)

        device.launch(k, 32, shared_bytes=1024)  # within 48 KB: fine
