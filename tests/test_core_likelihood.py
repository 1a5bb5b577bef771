"""GSNP likelihood kernels: the consistency property and counter shapes."""

import tracemalloc

import numpy as np
import pytest

from repro.constants import MAX_READ_LEN, MULTIPASS_BOUNDS, N_STRANDS
from repro.core.base_word import (
    canonical_keys,
    decode_keys,
    extract_words,
    pack_words,
    words_from_observations,
)
from repro.core.counting import gsnp_counting
from repro.core.fused import gsnp_likelihood_posterior_fused
from repro.core.likelihood import (
    ALL_VARIANTS,
    BASELINE,
    OPTIMIZED,
    WITH_SHARED,
    WITH_TABLE,
    GsnpTables,
    dep_count_ranks,
    gsnp_likelihood_comp,
    gsnp_likelihood_sort,
)
from repro.core.score_table import table_contributions
from repro.gpusim.costmodel import GpuCostModel
from repro.gpusim.device import Device
from repro.soapsnp.likelihood import (
    adjust_scores,
    sequential_site_sums,
    window_type_likely,
)
from repro.sortnet.cpu_sort import quicksort_per_site


@pytest.fixture(scope="module")
def kernel_setup(small_obs, small_pm_flat, small_penalty):
    device = Device()
    tables = GsnpTables.load(device, small_pm_flat, small_penalty)
    words, offsets = words_from_observations(small_obs, arrival_order=True)
    wsorted, stats = gsnp_likelihood_sort(device, words, offsets)
    ref = window_type_likely(small_obs, small_pm_flat, small_penalty)
    return device, tables, words, wsorted, offsets, stats, ref


class TestSort:
    def test_restores_canonical_order(self, kernel_setup, small_obs):
        device, tables, words, wsorted, offsets, stats, ref = kernel_setup
        canonical, _ = words_from_observations(small_obs, arrival_order=False)
        assert np.array_equal(wsorted, canonical)

    def test_multipass_stats(self, kernel_setup):
        _, _, _, _, _, stats, _ = kernel_setup
        assert stats.passes <= 6
        assert stats.real_elements > 0

    def test_counters_recorded(self, kernel_setup):
        device = kernel_setup[0]
        sort_kernels = [
            k for k in device.counters.entries if "likelihood_sort" in k
        ]
        assert sort_kernels


class TestConsistency:
    """§IV-G: every GPU variant equals the dense CPU algorithm bitwise."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.name)
    def test_variant_bitwise_equal(self, kernel_setup, variant):
        device, tables, _, wsorted, offsets, _, ref = kernel_setup
        tl = gsnp_likelihood_comp(
            device, wsorted, offsets, tables, variant,
            kernel_name=f"test_comp_{variant.name}",
        )
        assert np.array_equal(tl, ref)

    def test_unsorted_words_give_wrong_answer(self, kernel_setup):
        """The sort is load-bearing: feeding arrival-order words changes
        dep_count sequencing and hence the result."""
        device, tables, words, wsorted, offsets, _, ref = kernel_setup
        if np.array_equal(words, wsorted):
            pytest.skip("arrival order happened to be canonical")
        tl = gsnp_likelihood_comp(
            device, words, offsets, tables, OPTIMIZED,
            kernel_name="test_comp_unsorted",
        )
        assert not np.array_equal(tl, ref)


class TestCounterShapes:
    """Table III orderings: shared removes type_likely traffic, the table
    halves score loads and removes logs."""

    @pytest.fixture(scope="class")
    def counters(self, small_obs, small_pm_flat, small_penalty):
        out = {}
        for variant in ALL_VARIANTS:
            device = Device()
            tables = GsnpTables.load(device, small_pm_flat, small_penalty)
            words, offsets = words_from_observations(small_obs)
            wsorted, _ = gsnp_likelihood_sort(device, words, offsets)
            device.reset_counters()
            gsnp_likelihood_comp(device, wsorted, offsets, tables, variant)
            out[variant.name] = device.counters.total()
        return out

    def test_gload_ordering(self, counters):
        g = {k: c.g_load for k, c in counters.items()}
        assert g["optimized"] < g["w_shared"]
        assert g["optimized"] < g["w_new_table"]
        assert g["w_shared"] < g["baseline"]
        assert g["w_new_table"] < g["baseline"]

    def test_gload_ratios_near_paper(self, counters):
        """Paper Table III: 0.70 / 0.64 / 0.36 of baseline."""
        base = counters["baseline"].g_load
        assert 0.5 < counters["w_shared"].g_load / base < 0.85
        assert 0.5 < counters["w_new_table"].g_load / base < 0.85
        assert 0.25 < counters["optimized"].g_load / base < 0.5

    def test_shared_variants_use_shared_memory(self, counters):
        assert counters["w_shared"].s_load_warp > 0
        assert counters["optimized"].s_store_warp > 0
        assert counters["baseline"].s_load_warp == 0
        assert counters["w_new_table"].s_load_warp == 0

    def test_shared_removes_global_stores(self, counters):
        assert counters["w_shared"].g_store < counters["baseline"].g_store
        assert counters["optimized"].g_store < counters["w_new_table"].g_store

    def test_instructions_reduced_by_table(self, counters):
        assert counters["w_new_table"].inst_warp < counters["baseline"].inst_warp
        assert counters["optimized"].inst_warp < counters["w_shared"].inst_warp

    def test_optimized_fastest_in_model(self, counters):
        model = GpuCostModel()
        times = {k: model.kernel_time(c) for k, c in counters.items()}
        assert times["optimized"] == min(times.values())
        assert times["baseline"] == max(times.values())

    def test_fig8_speedup_band(self, counters):
        """Fig 8: optimized ~2.4x faster than baseline (we accept 1.5-4x)."""
        model = GpuCostModel()
        ratio = model.kernel_time(counters["baseline"]) / model.kernel_time(
            counters["optimized"]
        )
        assert 1.5 < ratio < 4.5


class TestCountingKernel:
    def test_matches_host_construction(self, small_obs):
        device = Device()
        words_dev, offsets_dev = gsnp_counting(device, small_obs)
        words_host, offsets_host = words_from_observations(
            small_obs, arrival_order=True
        )
        assert np.array_equal(offsets_dev, offsets_host)
        assert np.array_equal(words_dev, words_host)

    def test_kernels_launched(self, small_obs):
        device = Device()
        gsnp_counting(device, small_obs)
        assert "counting_histogram" in device.counters.entries
        assert "counting_scatter" in device.counters.entries

    def test_empty_observations(self):
        from repro.align.records import AlignmentBatch
        from repro.formats.window import Window
        from repro.soapsnp.observe import extract_observations

        w = Window(start=0, end=5, reads=AlignmentBatch.empty("x", 10))
        obs = extract_observations(w)
        device = Device()
        words, offsets = gsnp_counting(device, obs)
        assert words.size == 0
        assert offsets.size == 6


def _mirror_walk_ranks(words, offsets):
    """Test-only oracle: the dense (n_sites, 512) host ``dep_count`` mirror
    the comp kernel used to carry, walked in lockstep as Algorithm 4 does
    (zero the lane's row when its base advances, bump the slot, read it)."""
    n = offsets.size - 1
    lens = np.diff(offsets)
    dep = np.zeros((n, N_STRANDS * MAX_READ_LEN), dtype=np.int32)
    last_base = np.zeros(n, dtype=np.int64)
    out = np.zeros(words.size, dtype=np.int32)
    for j in range(int(lens.max(initial=0))):
        rows = np.nonzero(j < lens)[0]
        idx = offsets[:-1][rows] + j
        base, _, coord, strand = extract_words(words[idx])
        base = base.astype(np.int64)
        dep[rows[base > last_base[rows]]] = 0
        last_base[rows] = np.maximum(last_base[rows], base)
        slot = strand.astype(np.int64) * MAX_READ_LEN + coord
        dep[rows, slot] += 1
        out[idx] = dep[rows, slot]
    return out


def _random_lanes(seed, read_len=8):
    """Random per-site words (arrival order) with zero-length lanes, lanes
    at every size-class bound and one lane beyond the top bound; few
    distinct coords so dependency groups hold many duplicates."""
    rng = np.random.default_rng(seed)
    top = MULTIPASS_BOUNDS[-1]
    lens = np.concatenate([
        [0, 0, top * 3],
        MULTIPASS_BOUNDS,
        rng.integers(0, 2 * top, 40),
    ])
    rng.shuffle(lens)
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    m = int(offsets[-1])
    words = pack_words(
        rng.integers(0, 4, m), rng.integers(0, 41, m),
        rng.integers(0, read_len, m), rng.integers(0, 2, m),
    )
    return words, offsets


def _sorted_lanes(words, offsets):
    return decode_keys(quicksort_per_site(canonical_keys(words), offsets))


class TestDepCountRanks:
    """The closed-form ranks replace the host dep_count mirror exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_mirror_walk(self, seed):
        words, offsets = _random_lanes(seed)
        wsorted = _sorted_lanes(words, offsets)
        assert np.array_equal(
            dep_count_ranks(wsorted, offsets),
            _mirror_walk_ranks(wsorted, offsets),
        )
        # Unsorted input still follows Algorithm 4's "base advances" reset.
        assert np.array_equal(
            dep_count_ranks(words, offsets),
            _mirror_walk_ranks(words, offsets),
        )

    def test_empty(self):
        ranks = dep_count_ranks(
            np.zeros(0, dtype=np.uint32), np.zeros(4, dtype=np.int64)
        )
        assert ranks.size == 0

    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("fused", [False, True])
    def test_kernel_applies_mirror_walk_ranks(
        self, sanitize, fused, small_pm_flat, small_penalty
    ):
        words, offsets = _random_lanes(11)
        wsorted = _sorted_lanes(words, offsets)
        device = Device(sanitize=sanitize)
        tables = GsnpTables.load(
            device, small_pm_flat, small_penalty, cache=False
        )
        launcher = (
            gsnp_likelihood_posterior_fused if fused else gsnp_likelihood_comp
        )
        got = launcher(device, wsorted, offsets, tables, OPTIMIZED)
        tables.free(device)
        if sanitize:
            assert device.sanitize_teardown(strict=True) == []

        base, score, coord, _ = extract_words(wsorted)
        q_adj = adjust_scores(
            score, _mirror_walk_ranks(wsorted, offsets) - 1, small_penalty
        )
        want = sequential_site_sums(
            table_contributions(tables.newp_host, q_adj, coord, base), offsets
        )
        assert np.array_equal(got, want)

    def test_comp_launch_keeps_no_host_mirror(
        self, small_pm_flat, small_penalty
    ):
        """One 20k-site launch charges the simulated ``dep_count`` array
        but stores none of it (value-free): per-lane vectors and
        transaction memos peak near 0.32x of its bytes.  A dense (n, 512)
        host copy of it, even an int16 one (0.5x), breaks 0.6x."""
        n = 20_000
        rng = np.random.default_rng(5)
        offsets = np.arange(0, 4 * n + 1, 4, dtype=np.int64)
        words = pack_words(
            rng.integers(0, 4, 4 * n), rng.integers(0, 41, 4 * n),
            rng.integers(0, 8, 4 * n), rng.integers(0, 2, 4 * n),
        )
        wsorted = _sorted_lanes(words, offsets)
        device = Device()
        tables = GsnpTables.load(device, small_pm_flat, small_penalty)
        dep_bytes = n * N_STRANDS * MAX_READ_LEN * 4
        tracemalloc.start()
        try:
            gsnp_likelihood_comp(device, wsorted, offsets, tables, OPTIMIZED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert device.counters.get("likelihood_comp_optimized").launches == 1
        assert device.peak_global_used >= dep_bytes
        assert peak < 0.6 * dep_bytes
