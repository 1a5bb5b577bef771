"""Multipass sorting: the three Figure-7b strategies and the batch primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BASE_WORD_SENTINEL
from repro.errors import KernelError
from repro.gpusim.device import Device
from repro.sortnet.batch import batch_sort, pad_rows
from repro.sortnet.cpu_sort import (
    ParallelCpuSortModel,
    quicksort_per_site,
)
from repro.sortnet.multipass import (
    multipass_sort,
    nonequal_sort,
    singlepass_sort,
    size_class_of,
)


def _random_segments(rng, n_sites=300, max_len=120):
    lengths = rng.integers(0, max_len, n_sites)
    # Realistic skew: most sites small.
    small = rng.random(n_sites) < 0.7
    lengths[small] = rng.integers(0, 12, int(small.sum()))
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    words = rng.integers(0, 2**17, offsets[-1]).astype(np.uint32)
    return words, offsets


def _check_all_sorted(out, words, offsets):
    for i in range(offsets.size - 1):
        s, e = offsets[i], offsets[i + 1]
        assert np.array_equal(out[s:e], np.sort(words[s:e]))


class TestSizeClasses:
    def test_paper_buckets(self):
        lengths = np.array([0, 1, 2, 8, 9, 16, 17, 32, 33, 64, 65, 1000])
        classes = size_class_of(lengths)
        assert list(classes) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


class TestStrategiesAgree:
    @pytest.mark.parametrize(
        "fn", [multipass_sort, singlepass_sort, nonequal_sort]
    )
    def test_sorts_everything_cpu(self, fn, rng):
        words, offsets = _random_segments(rng)
        out, stats = fn(words, offsets)
        _check_all_sorted(out, words, offsets)
        assert stats.real_elements == words.size

    @pytest.mark.parametrize(
        "fn", [multipass_sort, singlepass_sort, nonequal_sort]
    )
    def test_sorts_everything_device(self, fn, rng):
        words, offsets = _random_segments(rng, n_sites=80)
        out, _ = fn(words, offsets, device=Device())
        _check_all_sorted(out, words, offsets)

    def test_strategies_identical_results(self, rng):
        words, offsets = _random_segments(rng)
        outs = [fn(words, offsets)[0]
                for fn in (multipass_sort, singlepass_sort, nonequal_sort)]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_multipass_pads_less_than_singlepass(self, rng):
        words, offsets = _random_segments(rng, n_sites=1000)
        _, mp = multipass_sort(words, offsets)
        _, sp = singlepass_sort(words, offsets)
        assert mp.padded_elements < sp.padded_elements
        assert mp.padding_ratio < sp.padding_ratio

    def test_multipass_fewer_compare_exchanges_than_nonequal(self, rng):
        words, offsets = _random_segments(rng, n_sites=1000)
        _, mp = multipass_sort(words, offsets)
        _, ne = nonequal_sort(words, offsets)
        assert mp.compare_exchanges <= ne.compare_exchanges

    def test_multipass_runs_at_most_six_passes(self, rng):
        words, offsets = _random_segments(rng, n_sites=500)
        _, stats = multipass_sort(words, offsets)
        assert stats.passes <= 6

    def test_empty_input(self):
        words = np.empty(0, dtype=np.uint32)
        offsets = np.zeros(1, dtype=np.int64)
        for fn in (multipass_sort, singlepass_sort, nonequal_sort):
            out, stats = fn(words, offsets)
            assert out.size == 0

    def test_all_singletons_no_work(self):
        words = np.arange(50, dtype=np.uint32)
        offsets = np.arange(51, dtype=np.int64)
        out, stats = multipass_sort(words, offsets)
        assert np.array_equal(out, words)
        assert stats.compare_exchanges == 0

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_property_multipass_sorts(self, seed):
        r = np.random.default_rng(seed)
        words, offsets = _random_segments(r, n_sites=60, max_len=70)
        out, _ = multipass_sort(words, offsets)
        _check_all_sorted(out, words, offsets)


class TestPadRows:
    def test_gathers_and_pads(self):
        rows = np.array([5, 4, 9, 8, 7], dtype=np.uint32)
        lengths = np.array([2, 3])
        offsets = np.array([0, 2])
        batch = pad_rows(rows, lengths, 4, BASE_WORD_SENTINEL, offsets)
        assert np.array_equal(batch[0, :2], [5, 4])
        assert np.all(batch[0, 2:] == BASE_WORD_SENTINEL)
        assert np.array_equal(batch[1, :3], [9, 8, 7])

    def test_too_long_row_rejected(self):
        with pytest.raises(KernelError):
            pad_rows(
                np.arange(8, dtype=np.uint32),
                np.array([8]),
                4,
                BASE_WORD_SENTINEL,
                np.array([0]),
            )

    def test_empty(self):
        batch = pad_rows(
            np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.int64),
            4, BASE_WORD_SENTINEL, np.empty(0, dtype=np.int64),
        )
        assert batch.shape == (0, 4)


class TestBatchSortDevice:
    def test_shared_memory_counters(self, rng):
        device = Device()
        batch = rng.integers(0, 100, (64, 32)).astype(np.uint32)
        batch_sort(device, batch, name="bs")
        c = device.counters.get("bs")
        assert c.s_load_warp > 0 and c.s_store_warp > 0
        assert c.g_load > 0 and c.g_store > 0

    def test_rejects_non_pow2(self, rng):
        with pytest.raises(KernelError):
            batch_sort(Device(), rng.integers(0, 9, (4, 6)).astype(np.uint32))

    def test_width_one_copy(self):
        device = Device()
        batch = np.array([[3], [1]], dtype=np.uint32)
        out = batch_sort(device, batch)
        assert np.array_equal(out, batch)


class TestCpuSort:
    def test_quicksort_per_site(self, rng):
        words, offsets = _random_segments(rng, n_sites=100)
        out = quicksort_per_site(words, offsets)
        _check_all_sorted(out, words, offsets)

    def test_parallel_model_throughput_decreases_with_size(self):
        m = ParallelCpuSortModel()
        assert m.throughput(1000, 8) > m.throughput(1000, 256)

    def test_parallel_model_scales_with_threads(self):
        fast = ParallelCpuSortModel(threads=16)
        slow = ParallelCpuSortModel(threads=1)
        assert fast.time(1000, 64) < slow.time(1000, 64)
