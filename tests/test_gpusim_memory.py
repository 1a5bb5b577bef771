"""Coalescing analysis and device arrays."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JobSpec
from repro.core.detector import GsnpDetector
from repro.errors import DeviceError
from repro.gpusim import memory
from repro.gpusim.memory import DeviceArray, count_transactions
from repro.seqsim.datasets import DatasetSpec, generate_dataset


class TestCountTransactions:
    def test_fully_coalesced_4byte(self):
        # 32 consecutive 4-byte words span exactly one 128-byte segment.
        assert count_transactions(np.arange(32), 4) == 1

    def test_fully_coalesced_8byte(self):
        # 32 consecutive 8-byte words span two segments.
        assert count_transactions(np.arange(32), 8) == 2

    def test_fully_scattered(self):
        # Strides of 128 bytes: each lane its own segment.
        assert count_transactions(np.arange(32) * 32, 4) == 32

    def test_same_address_merges(self):
        assert count_transactions(np.zeros(32, dtype=int), 4) == 1

    def test_two_warps(self):
        assert count_transactions(np.arange(64), 4) == 2

    def test_partial_warp_padded(self):
        # 10 active lanes in one warp, consecutive: one transaction.
        assert count_transactions(np.arange(10), 4) == 1

    def test_inactive_lanes_free(self):
        idx = np.arange(32)
        idx[16:] = -1
        assert count_transactions(idx, 4) == 1

    def test_all_inactive_warp(self):
        assert count_transactions(np.full(32, -1), 4) == 0

    def test_empty(self):
        assert count_transactions(np.empty(0, dtype=int), 4) == 0

    def test_stride_two_doubles_segments(self):
        # stride-2 4-byte: warp touches 256 bytes = 2 segments.
        assert count_transactions(np.arange(32) * 2, 4) == 2

    def test_byte_sized_elements(self):
        # 128 one-byte lanes over 4 warps within one segment each... each
        # warp of 32 bytes fits one segment, but warps don't share.
        assert count_transactions(np.arange(128), 1) == 4

    def test_custom_warp_and_segment(self):
        assert count_transactions(np.arange(16), 4, warp_size=16,
                                  segment_bytes=64) == 1

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                 max_size=200)
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, idx):
        """1 <= tx <= n for any all-active access pattern."""
        idx = np.asarray(idx)
        tx = count_transactions(idx, 4)
        assert 1 <= tx <= idx.size

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=32,
                 max_size=32)
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce_single_warp(self, idx):
        idx = np.asarray(idx)
        expected = len({int(a) * 4 // 128 for a in idx})
        assert count_transactions(idx, 4) == expected


class TestDeviceArray:
    def test_properties(self):
        arr = DeviceArray("x", np.zeros((4, 5), dtype=np.float64))
        assert arr.shape == (4, 5)
        assert arr.size == 20
        assert arr.nbytes == 160
        assert arr.itemsize == 8

    def test_invalid_space_rejected(self):
        with pytest.raises(DeviceError):
            DeviceArray("x", np.zeros(1), space="texture")

    def test_freed_array_raises(self):
        arr = DeviceArray("x", np.zeros(4))
        arr._freed = True
        with pytest.raises(DeviceError):
            arr.require_live()

    def test_flat_view_shares_memory(self):
        arr = DeviceArray("x", np.zeros((2, 2)))
        arr.flat_view()[0] = 7.0
        assert arr.data[0, 0] == 7.0

    def test_copy_to_host_detached(self):
        arr = DeviceArray("x", np.zeros(3))
        h = arr.copy_to_host()
        h[0] = 1.0
        assert arr.data[0] == 0.0


class TestMemoByteCap:
    """The transaction memo is bounded by the bytes its keys hold."""

    def test_shipped_cap_is_64_mib(self):
        assert memory._TX_CACHE_MAX_BYTES == 64 << 20

    def test_distinct_jobs_stay_under_the_cap(self, monkeypatch):
        # A small cap makes six small jobs overflow it several times; the
        # held key bytes must never pass it, and the memo keeps working.
        cap = 256 << 10
        inserted = []
        real_put = memory._memo_put

        def put(key, total):
            inserted.append(len(key[-1]))
            real_put(key, total)

        monkeypatch.setattr(memory, "_TX_CACHE_MAX_BYTES", cap)
        monkeypatch.setattr(memory, "_memo_put", put)
        memory._TX_CACHE.clear()
        memory._tx_cache_bytes = 0
        try:
            for seed in range(6):
                ds = generate_dataset(DatasetSpec(
                    name=f"chrCap{seed}", n_sites=3000, depth=10.0,
                    coverage=0.9, seed=400 + seed,
                ))
                GsnpDetector(spec=JobSpec()).run(ds)
                held = sum(len(key[-1]) for key in memory._TX_CACHE)
                assert held <= cap
                assert held == memory._tx_cache_bytes
            assert memory._TX_CACHE
            assert sum(inserted) > 3 * cap
        finally:
            memory._TX_CACHE.clear()
            memory._tx_cache_bytes = 0

    def test_threads_keep_the_byte_count(self, monkeypatch):
        # Jobs of one serve process run on worker threads.  Two threads
        # overflow a full memo at once; the clear yields the GIL, so an
        # unguarded second thread would clear too and reset the counter
        # after the first one's insert, losing its bytes.
        class YieldingDict(dict):
            def clear(self):
                super().clear()
                time.sleep(0.01)

        cap = 4 << 10
        monkeypatch.setattr(memory, "_TX_CACHE_MAX_BYTES", cap)
        monkeypatch.setattr(memory, "_TX_CACHE", YieldingDict())
        memory._tx_cache_bytes = 0
        rng = np.random.default_rng(0)
        for _ in range(cap // 512):  # 64 int64 lanes: 512 key bytes each
            count_transactions(rng.integers(0, 1 << 20, size=64), 4)
        assert memory._tx_cache_bytes == cap
        start = threading.Barrier(2)

        def insert(seed):
            idx = np.random.default_rng(seed).integers(0, 1 << 20, size=64)
            start.wait()
            count_transactions(idx, 4)

        threads = [
            threading.Thread(target=insert, args=(s,)) for s in (1, 2)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            held = sum(len(key[-1]) for key in memory._TX_CACHE)
            assert held == memory._tx_cache_bytes == 2 * 512
        finally:
            memory._tx_cache_bytes = 0
