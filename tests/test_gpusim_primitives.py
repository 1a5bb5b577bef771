"""GPU primitives: reduce, scan, radix sort, unique, binary search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.gpusim.device import Device
from repro.gpusim.memory import DeviceArray
from repro.gpusim.primitives import (
    device_binary_search,
    device_exclusive_scan,
    device_radix_sort,
    device_reduce,
    device_unique,
    sequential_radix_sort_batches,
)


class TestReduce:
    def test_sum(self, device):
        arr = device.to_device(np.arange(1234, dtype=np.int64))
        assert device_reduce(device, arr) == 1234 * 1233 // 2

    def test_single_element(self, device):
        arr = device.to_device(np.array([42], dtype=np.int64))
        assert device_reduce(device, arr) == 42

    def test_empty_rejected(self, device):
        arr = device.alloc(0, np.int64)
        with pytest.raises(KernelError):
            device_reduce(device, arr)

    def test_input_unmodified(self, device):
        data = np.arange(100, dtype=np.int64)
        arr = device.to_device(data)
        device_reduce(device, arr)
        assert np.array_equal(arr.data, data)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy(self, values):
        device = Device()
        arr = device.to_device(np.asarray(values, dtype=np.int64))
        assert device_reduce(device, arr) == sum(values)


class TestScan:
    def test_exclusive_semantics(self, device):
        arr = device.to_device(np.arange(1, 9, dtype=np.int64))
        out = device_exclusive_scan(device, arr)
        assert np.array_equal(out.data, [0, 1, 3, 6, 10, 15, 21, 28])

    def test_non_power_of_two(self, device, rng):
        data = rng.integers(0, 50, 1000)
        arr = device.to_device(data)
        out = device_exclusive_scan(device, arr)
        expected = np.concatenate([[0], np.cumsum(data)[:-1]])
        assert np.array_equal(out.data, expected)

    def test_input_unmodified(self, device):
        data = np.arange(37, dtype=np.int64)
        arr = device.to_device(data)
        device_exclusive_scan(device, arr)
        assert np.array_equal(arr.data, data)

    def test_single_element(self, device):
        arr = device.to_device(np.array([9], dtype=np.int64))
        out = device_exclusive_scan(device, arr)
        assert np.array_equal(out.data, [0])

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_matches_cumsum(self, values):
        device = Device()
        data = np.asarray(values, dtype=np.int64)
        out = device_exclusive_scan(device, device.to_device(data))
        assert np.array_equal(out.data, np.cumsum(data) - data)


class TestRadixSort:
    def test_sorts_random_uint32(self, device, rng):
        data = rng.integers(0, 2**32, 5000, dtype=np.uint32)
        out = device_radix_sort(device, device.to_device(data))
        assert np.array_equal(out.data, np.sort(data))

    def test_requires_unsigned(self, device):
        arr = device.to_device(np.arange(4, dtype=np.int32))
        with pytest.raises(KernelError, match="unsigned"):
            device_radix_sort(device, arr)

    def test_uint8_single_pass_domain(self, device, rng):
        data = rng.integers(0, 256, 777, dtype=np.uint8)
        out = device_radix_sort(device, device.to_device(data))
        assert np.array_equal(out.data, np.sort(data))

    def test_scatter_is_uncoalesced(self, device, rng):
        data = rng.integers(0, 2**32, 4096, dtype=np.uint32)
        device_radix_sort(device, device.to_device(data))
        c = device.counters.get("radix_scatter")
        # Random scatter: transactions comparable to element count.
        assert c.g_store > 4096 * 4 * 0.5  # 4 passes, >50% scattered

    def test_sequential_batches_sorted(self, device, rng):
        batch = rng.integers(0, 1000, (10, 16)).astype(np.uint32)
        lengths = rng.integers(0, 17, 10)
        out = sequential_radix_sort_batches(device, batch, lengths)
        for i in range(10):
            m = lengths[i]
            assert np.array_equal(out[i, :m], np.sort(batch[i, :m]))
            assert np.array_equal(out[i, m:], batch[i, m:])


class TestUnique:
    def test_distinct_values(self, device, rng):
        data = np.sort(rng.integers(0, 40, 500)).astype(np.uint32)
        out = device_unique(device, device.to_device(data))
        assert np.array_equal(out.data, np.unique(data))

    def test_all_same(self, device):
        data = np.full(100, 7, dtype=np.uint32)
        out = device_unique(device, device.to_device(data))
        assert np.array_equal(out.data, [7])

    def test_all_distinct(self, device):
        data = np.arange(64, dtype=np.uint32)
        out = device_unique(device, device.to_device(data))
        assert np.array_equal(out.data, data)

    def test_unsorted_rejected(self, device):
        arr = device.to_device(np.array([3, 1, 2], dtype=np.uint32))
        with pytest.raises(KernelError, match="sorted"):
            device_unique(device, arr)


class TestBinarySearch:
    def test_finds_all_present(self, device, rng):
        hay_data = np.unique(rng.integers(0, 10_000, 300)).astype(np.int64)
        needles_data = rng.choice(hay_data, 100)
        hay = device.to_device(hay_data)
        needles = device.to_device(needles_data)
        out = device_binary_search(device, needles, hay)
        assert np.array_equal(hay_data[out.data], needles_data)

    def test_insertion_points_for_absent(self, device):
        hay = device.to_device(np.array([10, 20, 30], dtype=np.int64))
        needles = device.to_device(np.array([5, 15, 35], dtype=np.int64))
        out = device_binary_search(device, needles, hay)
        assert np.array_equal(out.data, [0, 1, 3])

    def test_empty_haystack_rejected(self, device):
        hay = device.alloc(0, np.int64)
        needles = device.to_device(np.array([1], dtype=np.int64))
        with pytest.raises(KernelError):
            device_binary_search(device, needles, hay)

    def test_constant_memory_dictionary_uses_cache(self, device):
        hay = device.to_constant(np.arange(16, dtype=np.int64))
        needles = device.to_device(np.arange(16, dtype=np.int64))
        device_binary_search(device, needles, hay)
        c = device.counters.get("binary_search")
        assert c.c_load > 0
