"""Value-free device arrays change no simulated number.

A value-free array (``Device.alloc(..., value_free=True)``) is charged in
full but keeps no values: kernel loads return the ``fill`` block, kernel
stores write nothing, and host reads raise :class:`DeviceError`.  The
three such arrays — ``dep_count`` and the unfused ``type_likely`` of the
likelihood_comp launch, and the radix sort's ``rsort.hist`` — must leave
everything a run reports as it was with a real store behind them.  The
oracle is the same call with every value-free allocation materialized (a
zeroed store, consumed by modeled code); a sanitizing device, which
materializes them itself, must agree too.  Compared: outputs (bitwise),
the whole counter book, peak device memory, the allocations and every
array's tallies, the teardown report and the calibration observer's
``OpRecord`` stream.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import MULTIPASS_BOUNDS
from repro.core.base_word import canonical_keys, decode_keys, pack_words
from repro.core.fused import gsnp_likelihood_posterior_fused
from repro.core.likelihood import (
    ALL_VARIANTS,
    GsnpTables,
    gsnp_likelihood_comp,
)
from repro.errors import DeviceError, KernelError
from repro.gpusim.device import Device
from repro.gpusim.kernel import op_observer
from repro.gpusim.primitives import device_radix_sort
from repro.sortnet.cpu_sort import quicksort_per_site

_ALLOC = Device.alloc


def _materializing_alloc(self, *args, value_free=False, **kwargs):
    """``Device.alloc`` with a real store behind every array; a value-free
    request only marks the array consumed by modeled code."""
    arr = _ALLOC(self, *args, **kwargs)
    if value_free:
        arr.mark_consumed()
    return arr


def _lanes(seed, n_lanes, read_len):
    """Sorted random per-site words: zero-length lanes, lanes at the
    size-class bounds and above the top one, and few coords so dependency
    groups repeat."""
    rng = np.random.default_rng(seed)
    top = MULTIPASS_BOUNDS[-1]
    lens = np.concatenate([
        [0], MULTIPASS_BOUNDS, rng.integers(0, top + 8, n_lanes),
    ])
    rng.shuffle(lens)
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    m = int(offsets[-1])
    words = pack_words(
        rng.integers(0, 4, m), rng.integers(0, 41, m),
        rng.integers(0, read_len, m), rng.integers(0, 2, m),
    )
    words = decode_keys(quicksort_per_site(canonical_keys(words), offsets))
    return words, offsets


def _report(device, out):
    """Everything a run reports, the output bytes first."""
    return {
        "out": (out.dtype.str, out.shape, out.tobytes()),
        "book": {
            k: dataclasses.asdict(c)
            for k, c in device.counters.entries.items()
        },
        "peak": device.peak_global_used,
        "arrays": [
            (a.name, a.nbytes, a._host_reads, a._kernel_reads, a._writes)
            for a in device._arrays
        ],
        "teardown": [str(i) for i in device.sanitize_teardown()],
    }


def _comp(device, case, pm_flat, penalty):
    seed, n_lanes, read_len, variant, fused = case
    words, offsets = _lanes(seed, n_lanes, read_len)
    tables = GsnpTables.load(device, pm_flat, penalty, cache=False)
    launch = gsnp_likelihood_posterior_fused if fused else gsnp_likelihood_comp
    out = launch(device, words, offsets, tables, variant)
    tables.free(device)
    return out


def _sort(device, case):
    seed, n, dtype, nbits = case
    rng = np.random.default_rng(seed)
    host = rng.integers(0, np.iinfo(dtype).max, n, endpoint=True, dtype=dtype)
    keys = device.to_device(host, "k")
    out = device_radix_sort(device, keys, nbits)
    values = device.from_device(out)
    device.free(keys)
    device.free(out)
    return values


def check(call):
    """``call(device)`` reports the same value-free, materialized and on a
    sanitizing device, each once without and once under the calibration
    observer; returns the report."""
    def both(make):
        plain = make()
        report = _report(plain, call(plain))
        records = []
        with op_observer(records.append):
            observed = make()
            report["observed"] = _report(observed, call(observed))
        report["records"] = records
        return report

    value_free = both(Device)
    with mock.patch.object(Device, "alloc", _materializing_alloc):
        assert both(Device) == value_free
    assert both(lambda: Device(sanitize=True)) == value_free
    return value_free


def check_comp(case, pm_flat, penalty):
    report = check(lambda d: _comp(d, case, pm_flat, penalty))
    assert report["records"]  # the observer saw the launch


def check_sort(case):
    check(lambda d: _sort(d, case))


comp_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(0, 12),
    st.sampled_from([2, 8, 100]),
    st.sampled_from(ALL_VARIANTS),
    st.booleans(),
)


@st.composite
def sort_cases(draw):
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64]))
    width = np.dtype(dtype).itemsize * 8
    nbits = draw(st.one_of(st.none(), st.integers(1, width)))
    n = draw(st.one_of(st.sampled_from([0, 1, 31, 32, 33]),
                       st.integers(0, 3000)))
    return draw(st.integers(0, 2**32 - 1)), n, dtype, nbits


_TIER1 = settings(max_examples=5, derandomize=True, deadline=None,
                  database=None, suppress_health_check=list(HealthCheck))
_WIDE = settings(max_examples=300, deadline=None, database=None,
                 suppress_health_check=list(HealthCheck))


@pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.name)
def test_comp_launch_every_variant(variant, fused, small_pm_flat,
                                   small_penalty):
    check_comp((7, 6, 8, variant, fused), small_pm_flat, small_penalty)


@_TIER1
@given(case=comp_cases)
def test_comp_launch_equals_materialized(case, small_pm_flat, small_penalty):
    check_comp(case, small_pm_flat, small_penalty)


@_TIER1
@given(case=sort_cases())
def test_radix_sort_equals_materialized(case):
    check_sort(case)


@pytest.mark.tier2
@_WIDE
@given(case=comp_cases)
def test_comp_launch_equals_materialized_wide(case, small_pm_flat,
                                              small_penalty):
    check_comp(case, small_pm_flat, small_penalty)


@pytest.mark.tier2
@_WIDE
@given(case=sort_cases())
def test_radix_sort_equals_materialized_wide(case):
    check_sort(case)


# -- the arrays themselves ----------------------------------------------------


@pytest.mark.parametrize("sanitize", [False, True])
def test_exactly_the_three_arrays_are_value_free(sanitize, tiny_dataset):
    """A pipeline run (per-window and fused) and a radix sort allocate
    exactly the three value-free arrays; a sanitizing device materializes
    them for its shadow bitmaps."""
    from repro.core.pipeline import GsnpPipeline

    seen = []

    def alloc(self, *args, **kwargs):
        arr = _ALLOC(self, *args, **kwargs)
        if arr.value_free:
            seen.append(arr)
        return arr

    with mock.patch.object(Device, "alloc", alloc):
        for fusion in (False, True):
            GsnpPipeline(
                window_size=400, mode="gpu", fusion=fusion,
                device=Device(sanitize=sanitize),
            ).run(tiny_dataset)
        _sort(Device(sanitize=sanitize), (3, 100, np.uint32, None))
    assert {a.name for a in seen} == {"dep_count", "type_likely", "rsort.hist"}
    assert {a._stored for a in seen} == {sanitize}


def _host_accesses(device, arr):
    return {
        "data": lambda: arr.data,
        "set-data": lambda: setattr(arr, "data", np.zeros(arr.size)),
        "copy_to_host": arr.copy_to_host,
        "from_device": lambda: device.from_device(arr),
        "flat_view": arr.flat_view,
    }


@pytest.mark.parametrize("sanitize", [False, True])
def test_every_host_read_raises(sanitize):
    device = Device(sanitize=sanitize)
    arr = device.alloc((3, 4), np.int32, "vf", value_free=True)
    before = (device.transfers.d2h_bytes, arr._host_reads)
    reads = _host_accesses(device, arr)
    if sanitize:  # materialized: the kernel accessor has a store to give
        del reads["flat_view"]
    for what, read in reads.items():
        with pytest.raises(DeviceError, match="value-free"):
            read()
    assert (device.transfers.d2h_bytes, arr._host_reads) == before


def test_value_free_array_keeps_its_charge_and_shape():
    device = Device()
    arr = device.alloc((5, 2, 256), np.int32, "vf", value_free=True)
    assert (arr.shape, arr.dtype, arr.size, arr.nbytes) == (
        (5, 2, 256), np.dtype(np.int32), 2560, 10240
    )
    assert device.global_used == device.peak_global_used == 10240
    device.free(arr)
    assert device.global_used == 0
    assert device.sanitize_teardown() == []


def _kernel(ctx, arr, idx, op):
    if op == "gload":
        return ctx.gload(arr, idx, active=ctx.tid % 3 > 0, fill=7)
    if op == "fan":
        return ctx.gload(arr, idx, fill=7, fan=np.array([0, 1, 2]))
    if op == "gstore":
        ctx.gstore(arr, idx, 1)
    else:
        ctx.gatomic_add(arr, idx, 1)
    return None


@pytest.mark.parametrize("op", ["gload", "fan", "gstore", "gatomic_add"])
def test_kernel_ops_charge_and_bounds_check(op):
    device = Device()
    arr = device.alloc(64, np.int64, "vf", value_free=True)
    out = device.launch(_kernel, 40, arr, np.arange(40), op, name="k")
    if op == "gload":
        assert np.array_equal(out, np.full(40, 7))
    elif op == "fan":
        assert np.array_equal(out, np.full((40, 3), 7))
    c = device.counters.get("k")
    assert c.g_load + c.g_store > 0
    assert arr._kernel_reads + arr._writes > 0
    with pytest.raises(KernelError, match="out-of-bounds"):
        device.launch(_kernel, 40, arr, np.arange(40) + 30, op, name="k")
