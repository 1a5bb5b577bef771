"""Coalescing analysis and device arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError
from repro.gpusim.memory import DeviceArray, count_transactions


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
