"""The fan-out gather equals the per-offset gathers it replaces.

``ctx.gload(arr, idx, active, fan=offsets)`` must return, column by
column, what ``ctx.gload(arr, idx + f, active)`` returns for each ``f``
and charge exactly their sum — on every ``KernelCounters`` field and on
the array's read tally — while counting transactions with one sort.
Under ``Device(sanitize=True)`` and under the calibration observer it
must report the same sanitizer issues and the same ``OpRecord``s as the
loop.  ``count_transactions(..., fan=)`` is checked against the summed
per-offset counts of the reference sentinel sort as well.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SanitizerError
from repro.gpusim.device import Device
from repro.gpusim.kernel import op_observer
from repro.gpusim.memory import (
    _count_transactions_reference,
    count_transactions,
)


@st.composite
def fan_cases(draw):
    """A gather shape: lanes (``n % 32`` arbitrary), itemsize 4 or 8,
    offsets that repeat or are negative, masks with dead lanes, and now
    and then a negative base index (a lane that only some offsets make
    live)."""
    n = draw(st.integers(0, 150))
    itemsize = draw(st.sampled_from([4, 8]))
    fan = draw(st.lists(st.integers(-24, 24), min_size=1, max_size=12))
    size = draw(st.integers(1, 400)) + max(max(fan), 0) + 1
    spread = draw(st.sampled_from([4, 40, size - max(fan)]))
    hi = min(size - max(fan), spread)
    lo = -4 if draw(st.integers(0, 5)) == 0 else 0
    idx = draw(st.lists(st.integers(lo, hi - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        idx = sorted(idx)
    mask = draw(st.one_of(
        st.none(),
        st.lists(st.booleans(), min_size=n, max_size=n),
    ))
    return (
        np.asarray(idx, dtype=np.int64),
        None if mask is None else np.asarray(mask, dtype=bool),
        np.asarray(fan, dtype=np.int64),
        itemsize,
        size,
    )


def _host_array(size, itemsize):
    dtype = np.int32 if itemsize == 4 else np.float64
    return (np.arange(size) * 7 + 3).astype(dtype)


def _run(case, fanned, sanitize=False, written=None):
    """One launch issuing the gather either as one fan-out op or as the
    per-offset loop; returns (values, counters, reads, sanitizer error)."""
    idx, mask, fan, itemsize, size = case
    device = Device(sanitize=sanitize)
    host = _host_array(size, itemsize)
    if written is None:
        arr = device.to_device(host, "table")
    else:
        # Only the elements in ``written`` are initialized: reads of the
        # rest are the sanitizer's uninit-read.
        arr = device.alloc(size, host.dtype, "table", init=False)
        fill_dev = device.to_device(host[written], "fill")
        at = device.to_device(written.astype(np.int64), "at")

        def init(ctx):
            vals = ctx.gload(fill_dev, ctx.tid)
            ctx.gstore(arr, ctx.gload(at, ctx.tid), vals)

        device.launch(init, written.size, name="init")
    out = {}

    def kernel(ctx):
        if fanned:
            out["v"] = ctx.gload(arr, idx, active=mask, fill=-1, fan=fan)
        else:
            out["v"] = np.stack(
                [ctx.gload(arr, idx + f, active=mask, fill=-1) for f in fan],
                axis=1,
            ) if fan.size else np.empty((idx.size, 0), dtype=arr.dtype)

    error = None
    try:
        device.launch(kernel, idx.size, name="k")
    except SanitizerError as exc:
        error = str(exc)
    counters = dataclasses.asdict(device.counters.get("k"))
    return out.get("v"), counters, arr._kernel_reads, error


def check_fan_matches_loop(case):
    # Plain device: the one-sort fast path.
    v1, c1, r1, _ = _run(case, fanned=True)
    v2, c2, r2, _ = _run(case, fanned=False)
    assert v1.shape == v2.shape and v1.dtype == v2.dtype
    assert np.array_equal(v1, v2)
    assert c1 == c2
    assert r1 == r2

    # Sanitizer: same issue (or none) on a half-initialized table.
    idx, mask, fan, itemsize, size = case
    written = np.arange(0, size, 2)
    s1 = _run(case, fanned=True, sanitize=True, written=written)
    s2 = _run(case, fanned=False, sanitize=True, written=written)
    assert s1[3] == s2[3]
    assert s1[1] == s2[1]
    if s1[3] is None:
        assert np.array_equal(s1[0], s2[0])

    # Observer: one OpRecord per offset, as the loop issues.
    recs = {True: [], False: []}
    for fanned in (True, False):
        with op_observer(recs[fanned].append):
            _run(case, fanned=fanned)
    strip = [
        [dataclasses.replace(r, line=0) for r in recs[f]] for f in (True, False)
    ]
    assert strip[0] == strip[1]
    assert len(recs[True]) == fan.size


@settings(max_examples=150, derandomize=True, deadline=None,
          database=None, suppress_health_check=list(HealthCheck))
@given(fan_cases())
def test_fan_gload_equals_per_offset_loop(case):
    check_fan_matches_loop(case)


@pytest.mark.tier2
@settings(max_examples=2000, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(fan_cases())
def test_fan_gload_equals_per_offset_loop_wide(case):
    check_fan_matches_loop(case)


@settings(max_examples=300, derandomize=True, deadline=None,
          database=None, suppress_health_check=list(HealthCheck))
@given(
    fan_cases(),
    st.sampled_from([(32, 128), (16, 64), (32, 96), (8, 100)]),
)
def test_fan_count_equals_summed_counts(case, shape):
    idx, mask, fan, itemsize, _ = case
    warp_size, segment_bytes = shape
    if mask is not None:
        idx = np.where(mask, idx, -1)
    # The fan's contract: a negative base lane is dead at every offset.
    per = sum(
        _count_transactions_reference(
            np.where(idx >= 0, idx + f, -1), itemsize, warp_size,
            segment_bytes,
        )
        for f in fan
    )
    got = count_transactions(idx, itemsize, warp_size, segment_bytes, fan=fan)
    assert got == per


def test_fan_gload_block_shape_in_a_kernel():
    """The comp kernel's shape: ten consecutive slots per lane."""
    device = Device()
    arr = device.to_device(np.arange(1000, dtype=np.float64), "newp")

    def kernel(ctx):
        return ctx.gload(
            arr, ctx.tid * 10, active=ctx.tid % 3 != 0, fan=np.arange(10),
        )

    out = device.launch(kernel, 70, name="k")
    expect = np.arange(700, dtype=np.float64).reshape(70, 10)
    expect[np.arange(70) % 3 == 0] = 0
    assert np.array_equal(out, expect)


@pytest.mark.parametrize("itemsize", [4, 8])
@pytest.mark.parametrize("top", [(1 << 31) - 300, (1 << 31) + 300])
def test_fan_count_near_int32_limit(itemsize, top):
    """Indices that fit int32 once offset sort as int32, larger ones as
    int64; both count what the reference counts."""
    rng = np.random.default_rng(itemsize)
    idx = rng.integers(top - 600, top, size=100)
    idx[rng.random(100) < 0.2] = -1
    fan = np.array([0, 5, 64, 200], dtype=np.int64)
    per = sum(
        _count_transactions_reference(
            np.where(idx >= 0, idx + f, -1), itemsize, 32, 128,
        )
        for f in fan
    )
    assert count_transactions(idx, itemsize, fan=fan) == per
