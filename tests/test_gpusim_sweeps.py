"""The counted block launches equal the kernel path.

On a device with no sanitizer and no op observer,
``device_exclusive_scan`` and ``device_reduce`` launch no kernel: NumPy
computes what each block launch would, and ``sweep.charge`` merges the
launch's counters, its loads and stores priced in closed form
(``sweep.span_tx`` for a tile's elements, one transaction a lane-0 op,
``sweep.tree_warps`` for the shared-memory tree).  The oracle is the
same call on ``Device(sanitize=True)``, which always launches.  The
first call on a fresh device must match it on the values (bitwise), the
whole counter book, peak device memory, the sequence of allocated names
and every array's host-read, kernel-read and write tallies.  Typed
errors, alloc faults and fault-point hits must not tell the paths apart.
Float scans and reduces are held to the documented addition order,
written out here, and a charged offset op to a launched offset load.
"""

from __future__ import annotations

import dataclasses
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, DeviceError, KernelError
from repro.faults.plan import FaultPlan, FaultSpec, fault_plan
from repro.gpusim.device import Device
from repro.gpusim.kernel import op_observer
from repro.gpusim.primitives import device_exclusive_scan, device_reduce
from repro.gpusim.primitives import sweep
from repro.gpusim.primitives.sweep import BLOCK
from repro.gpusim.spec import GpuSpec

DTYPES = ["int8", "int32", "int64", "uint32", "float32", "float64"]
#: The default M2050 and a spec with another warp and segment size (and
#: SM count, which the counters' per-warp views divide by).
SPECS = [GpuSpec(), GpuSpec(warp_size=16, segment_bytes=96, num_sms=7)]
#: Powers of two and their neighbours, the block edges (a tile, one
#: more, and two tiles and one), and a size of many tiles.
CORNERS = sorted({1, 2, 70_000, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1} | {
    (1 << k) + d for k in range(2, 17) for d in (-1, 0, 1)
})
#: Sizes at which each primitive takes one more level of launches.
SIZE_CLASSES = [1, BLOCK, BLOCK + 1, BLOCK**2, BLOCK**2 + 1]


def _values(n, dtype, seed):
    """Full-range integers (sums wrap), or floats with signed zeros,
    infinities and NaNs of both signs and many payloads mixed in (an
    operation on two NaNs keeps one operand's payload, so the payloads
    tell operand order apart)."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(dtype)
    if dt.kind in "iu":
        info = np.iinfo(dt)
        return rng.integers(info.min, info.max, n, endpoint=True, dtype=dt)
    v = (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 6, n)).astype(dt)
    special = rng.random(n)
    v[special < 0.02] = -0.0
    v[(special >= 0.02) & (special < 0.03)] = np.inf
    nan = special >= 0.97
    bits = v.view(np.uint32 if dt.itemsize == 4 else np.uint64)
    mant = 23 if dt.itemsize == 4 else 52
    payload = rng.integers(1, 1 << mant, int(nan.sum()), dtype=np.uint64)
    sign = rng.integers(0, 2, int(nan.sum()), dtype=np.uint64)
    exp = (1 << (dt.itemsize * 8 - 1 - mant)) - 1
    bits[nan] = (sign << (dt.itemsize * 8 - 1)) | (exp << mant) | payload
    return v


def _run(device, prim, host):
    """One primitive call; returns everything the two paths must share."""
    arr = device.to_device(host, "x")
    if prim == "scan":
        out = device_exclusive_scan(device, arr)
        value = (out.dtype.str, out.flat_view().tobytes())
    else:
        out = device_reduce(device, arr)
        value = (out.dtype.str, np.asarray(out).tobytes())
    return {
        "value": value,
        "book": {
            k: dataclasses.asdict(c)
            for k, c in device.counters.entries.items()
        },
        "peak": device.peak_global_used,
        "arrays": [
            (a.name, a._host_reads, a._kernel_reads, a._writes)
            for a in device._arrays
        ],
    }


@st.composite
def sweep_cases(draw):
    prim = draw(st.sampled_from(["scan", "reduce"]))
    n = draw(st.one_of(st.sampled_from(CORNERS), st.integers(1, 70_000)))
    dtype = draw(st.sampled_from(DTYPES))
    spec = draw(st.sampled_from(SPECS))
    seed = draw(st.integers(0, 2**32 - 1))
    return prim, n, dtype, spec, seed


def check_fast_path_equals_kernels(case):
    prim, n, dtype, spec, seed = case
    host = _values(n, dtype, seed)
    with np.errstate(all="ignore"):  # inf - inf, wrapped float32 sums
        oracle = _run(Device(spec=spec, sanitize=True), prim, host)
        counted = _run(Device(spec=spec), prim, host)
    assert counted == oracle


@settings(max_examples=120, derandomize=True, deadline=None,
          database=None, suppress_health_check=list(HealthCheck))
@given(sweep_cases())
# Two NaNs meet: both paths keep the same operand's payload.
@example(("reduce", 117, "float32", GpuSpec(), 4294967295))
def test_fast_path_equals_kernel_path(case):
    check_fast_path_equals_kernels(case)


@pytest.mark.tier2
@settings(max_examples=1000, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(sweep_cases())
def test_fast_path_equals_kernel_path_wide(case):
    check_fast_path_equals_kernels(case)


@pytest.mark.tier2
@pytest.mark.parametrize("spec", SPECS, ids=["m2050", "ws16"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_every_corner_equals_kernel_path(dtype, spec):
    """The first call of every corner size on a fresh device, scan and
    reduce, equals the sanitizing kernel run; so does one size past
    ``BLOCK**2``, where each takes its third level of launches."""
    for i, n in enumerate(CORNERS + [BLOCK**2 + 1]):
        check_fast_path_equals_kernels(("scan", n, dtype, spec, i))
        check_fast_path_equals_kernels(("reduce", n, dtype, spec, i))


def _documented_scan(x):
    """The scan's addition order, written out on NumPy scalars: each tile
    of ``BLOCK`` elements, padded with zeros, up-sweeps
    (``t[i] = t[i - s] + t[i]``), takes its total, zeroes its root and
    down-sweeps; past the first tile each element is then
    ``inc[b] + element``, ``inc`` the same scan of the totals."""
    n, zero = x.size, x.dtype.type(0)
    blocks = -(-n // BLOCK)
    out = np.zeros(blocks * BLOCK, x.dtype)
    out[:n] = x
    totals = np.zeros(blocks, x.dtype)
    for b in range(blocks):
        t = list(out[b * BLOCK:(b + 1) * BLOCK])
        s = 1
        while s < BLOCK:
            for i in range(2 * s - 1, BLOCK, 2 * s):
                t[i] = t[i - s] + t[i]
            s *= 2
        totals[b], t[-1] = t[-1], zero
        while s > 1:
            s //= 2
            for i in range(2 * s - 1, BLOCK, 2 * s):
                t[i - s], t[i] = t[i], t[i - s] + t[i]
        out[b * BLOCK:(b + 1) * BLOCK] = t
    out = out[:n]
    if blocks > 1:
        inc = _documented_scan(totals)
        for i in range(BLOCK, n):
            out[i] = inc[i // BLOCK] + out[i]
    return out


def _documented_reduce(x):
    """The reduce's addition order, written out: in each tile, for
    ``s = BLOCK / 2`` down to 1, ``t[i] = t[i] + t[i + s]`` where
    ``i + s`` is still live; then the partials the same way."""
    while True:
        partials = []
        for b in range(0, x.size, BLOCK):
            t = list(x[b:b + BLOCK])
            live, s = len(t), BLOCK // 2
            while s:
                for i in range(min(s, live - s)):
                    t[i] = t[i] + t[i + s]
                live, s = min(live, s), s // 2
            partials.append(t[0])
        x = np.array(partials, x.dtype)
        if x.size == 1:
            return x[0]


def _same_bits(a, b):
    """Bitwise equal, except that a NaN may carry any payload: NumPy's
    loops do not promise one operand's payload."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    nan = np.isnan(a)
    uint = np.uint32 if a.dtype.itemsize == 4 else np.uint64
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(uint), b[~nan].view(uint)))


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("finite", [False, True])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n", [1, 5, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_float_scan_and_reduce_follow_the_documented_order(n, dtype, finite,
                                                          sanitize):
    """A float scan and a float reduce give the written-out order's bits
    on both paths: on finite values with signed zeros (where every
    rounding shows), and with infinities and NaNs mixed in."""
    host = _values(n, dtype, n)
    if finite:
        host[~np.isfinite(host)] = 1.5
    with np.errstate(all="ignore"):
        device = Device(sanitize=sanitize)
        scan = device_exclusive_scan(device, device.to_device(host, "x"))
        total = device_reduce(device, device.to_device(host, "y"))
        assert _same_bits(scan.flat_view(), _documented_scan(host))
        assert _same_bits(total, _documented_reduce(host))


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1025])
def test_replay_accumulates_like_repeated_launches(n):
    """Three calls on one device: the counted book sums as three
    launched calls do."""
    host = np.arange(n, dtype=np.int64)

    def three(device):
        for _ in range(3):
            device_exclusive_scan(device, device.to_device(host, "x"))
            device_reduce(device, device.to_device(host, "y"))
        return {
            k: dataclasses.asdict(c)
            for k, c in device.counters.entries.items()
        }

    assert three(Device()) == three(Device(sanitize=True))


def _launched_names(device, fn):
    """The kernel names ``fn(device)`` passes to ``Device.launch``."""
    names = []
    launch = Device.launch

    def spy(self, kernel, n_threads, *args, **kwargs):
        names.append(kwargs.get("name"))
        return launch(self, kernel, n_threads, *args, **kwargs)

    with mock.patch.object(Device, "launch", spy):
        fn(device)
    return names


def _launches_per_call(n):
    """(scan, reduce) launches of an ``n``-element call: 1/3/5 and 1/2/3
    by size class."""
    level = 1 if n <= BLOCK else 2 if n <= BLOCK**2 else 3
    return 2 * level - 1, level


@pytest.mark.parametrize("n", [1, 2, 300, 4097])
def test_first_call_launches_only_under_sanitizer_or_observer(n):
    """A plain device's first call launches no kernel; a sanitizing
    device, or a plain one under an op observer, launches every block
    kernel: the tile scan, then (past one tile) the scan of the tile
    totals and the uniform add, then the reduce's block passes."""

    def both(device):
        device_exclusive_scan(device, device.to_device(np.arange(n), "x"))
        device_reduce(device, device.to_device(np.arange(n), "y"))

    assert _launched_names(Device(), both) == []
    scans, reduces = _launches_per_call(n)
    scan = ["scan_block"] if scans == 1 else [
        "scan_block", "scan_block", "scan_add"]
    want = scan + ["reduce_block"] * reduces
    assert _launched_names(Device(sanitize=True), both) == want
    with op_observer(lambda rec: None):
        assert _launched_names(Device(), both) == want


@pytest.mark.parametrize("n", SIZE_CLASSES)
def test_launches_per_size_class(n):
    """A scan is 1 launch up to one tile, 3 up to ``BLOCK`` tiles and 5
    past them; a reduce 1, 2 and 3."""
    device = Device()

    def launches():
        return sum(c.launches for c in device.counters.entries.values())

    device_exclusive_scan(device, device.to_device(np.ones(n, np.int32)))
    scans = launches()
    device_reduce(device, device.to_device(np.ones(n, np.int32)))
    assert (scans, launches() - scans) == _launches_per_call(n)


def test_observer_sees_every_level_op():
    """Under the calibration observer a plain device launches: one
    ``OpRecord`` per routed op of every launch at each level of the
    scan's recursion (the tiles, then their totals), as on a sanitizing
    device."""
    seen = []
    for device in (Device(), Device(sanitize=True)):
        recs = []
        with op_observer(recs.append):
            device_exclusive_scan(device, device.to_device(np.arange(3000)))
            device_reduce(device, device.to_device(np.arange(3000)))
        seen.append(recs)
    assert seen[0] == seen[1]
    per_kernel = {}
    for r in seen[0]:
        per_kernel[r.kernel] = per_kernel.get(r.kernel, 0) + 1
    # Three tiles: the tile scan's load, total and tile stores, the one
    # block scan of the totals (load, store), the uniform add's
    # increment load, element load and store; two reduce launches of a
    # load and a partial store each.
    assert per_kernel == {
        "scan_block": 3 + 2, "scan_add": 3, "reduce_block": 2 * 2,
    }


def test_observer_belongs_to_its_thread():
    """An observer installed on one thread neither sends another thread's
    primitives down the kernel path nor receives its ``OpRecord``s."""
    installed, other_done = threading.Event(), threading.Event()
    recs, other = [], {}

    def observed():
        with op_observer(recs.append):
            installed.set()
            assert other_done.wait(30)
            device = Device()
            device_reduce(device, device.to_device(np.arange(300), "mine"))

    def plain():
        assert installed.wait(30)
        device = Device()
        other["counted"] = sweep.counts_only(device)
        device_exclusive_scan(device, device.to_device(np.arange(300), "x"))
        device_reduce(device, device.to_device(np.arange(300), "theirs"))
        other_done.set()

    threads = [threading.Thread(target=f) for f in (observed, plain)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
        assert not t.is_alive()
    assert other == {"counted": True}
    assert recs and {r.array for r in recs} <= {"mine", "mine.reduce"}


# -- errors, faults, threads ------------------------------------------------


def _outcome(fn):
    try:
        out = fn()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc), str(exc)
    return None, np.asarray(out.data if hasattr(out, "data") else out).tobytes()


@pytest.mark.parametrize("prim", ["scan", "reduce"])
def test_freed_input_raises_device_error_on_both_paths(prim):
    call = device_exclusive_scan if prim == "scan" else device_reduce
    outcomes = []
    for device in (Device(), Device(sanitize=True)):
        arr = device.to_device(np.ones(64, dtype=np.int64), "x")
        device.free(arr)
        with pytest.raises(DeviceError):
            call(device, arr)
        outcomes.append(_outcome(lambda: call(device, arr)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("prim", ["scan", "reduce"])
def test_constant_input_has_one_outcome_on_both_paths(prim):
    """A scan and a reduce load their input in a kernel: both paths
    raise ``KernelError``."""
    call = device_exclusive_scan if prim == "scan" else device_reduce
    outcomes = []
    for device in (Device(), Device(sanitize=True)):
        arr = device.to_constant(np.arange(64, dtype=np.int64), "c")
        outcomes.append(_outcome(lambda: call(device, arr)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is KernelError


@pytest.mark.parametrize("sanitize", [False, True])
def test_empty_reduce_raises_kernel_error(sanitize):
    device = Device(sanitize=sanitize)
    with pytest.raises(KernelError):
        device_reduce(device, device.alloc(0, np.int64, "e"))


@pytest.mark.parametrize("prim, key, after", [
    ("scan", "x.scansums.scan", 2), ("scan", "x.scan", 1),
    ("reduce", "x.reduce", 3),
])
def test_alloc_fault_fires_at_the_same_hit_on_both_paths(prim, key, after):
    """Calls on three tiles until the alloc fault fires at hit ``after``
    of ``key`` (the third scan's scan of its tile totals, the second
    scan's output, the second reduce's partials): both paths fail there
    and leave the same book, allocations and peak."""
    call = device_exclusive_scan if prim == "scan" else device_reduce
    seen = []
    for device in (Device(), Device(sanitize=True)):
        plan = FaultPlan([FaultSpec("gpusim.device.alloc", "alloc", key,
                                    after=after)])
        with fault_plan(plan), pytest.raises(AllocationError):
            for _ in range(4):
                call(device, device.to_device(np.arange(3000), "x"))
        seen.append((
            plan.fired,
            {k: dataclasses.asdict(c)
             for k, c in device.counters.entries.items()},
            [a.name for a in device._arrays],
            device.peak_global_used,
        ))
    assert seen[0] == seen[1]
    assert seen[0][0] == [("gpusim.device.alloc", key, after, "alloc")]


class _SpyPlan(FaultPlan):
    """A plan that fires nothing and logs every fault-point hit."""

    def __init__(self):
        super().__init__()
        self.hits = []

    def check(self, site, key, value, ctx):
        self.hits.append((site, key))
        return value


@pytest.mark.parametrize("prim", ["scan", "reduce"])
def test_recording_call_hits_only_the_kernel_paths_fault_points(prim):
    """A counted call hits the fault points a launched one hits, and so
    does the next plain device's: no call leaves state behind."""
    call = device_exclusive_scan if prim == "scan" else device_reduce
    n = 3000
    hits = []
    for device in (Device(sanitize=True), Device(), Device()):
        spy = _SpyPlan()
        with fault_plan(spy):
            call(device, device.to_device(np.arange(n), "x"))
        hits.append(spy.hits)
    assert hits[0] == hits[1] == hits[2]


# -- the offset op form -----------------------------------------------------

#: Element sizes the offset form is checked at: 129 bytes is more than a
#: segment of either spec, so every lane starts its own.
ITEMSIZES = [1, 2, 4, 8, 16, 129]


@st.composite
def offset_cases(draw):
    start = draw(st.sampled_from([0, 1, BLOCK]) | st.integers(0, 3000))
    count = draw(st.integers(0, 40_000))
    itemsize = draw(st.sampled_from(ITEMSIZES))
    spec = draw(st.sampled_from(SPECS))
    spare = draw(st.integers(0, 70))  # dead threads past the last lane
    short = draw(st.booleans())  # an array that ends before the last lane
    return start, count, itemsize, spec, spare, short


def _offset_load_kernel(ctx, arr, start: int, count: int):
    """Thread t < count loads element start + t."""
    ctx.gload(arr, ctx.tid + start, active=ctx.tid < count)


@settings(max_examples=200, derandomize=True, deadline=None,
          database=None, suppress_health_check=list(HealthCheck))
@given(offset_cases())
def test_offset_form_equals_launched_load(case):
    """A charged lag ``-start`` op over ``count`` live threads (the block
    kernels' tile ops) leaves the book, read tally and typed errors of
    the launched offset load, spare dead threads and all."""
    start, count, itemsize, spec, spare, short = case
    dtype = np.dtype(f"V{itemsize}")
    outcomes = []
    for counted in (True, False):
        device = Device(spec=spec)
        arr = device.alloc(max(start + count - short, 0), dtype, "src")
        try:
            if counted:
                sweep.charge(device, "offset", count, 0,
                             ("gload", arr, -start))
            else:
                device.launch(_offset_load_kernel, count + spare, arr, start,
                              count, name="offset")
            error = None
        except KernelError as exc:
            error = str(exc)
        outcomes.append((
            error,
            {k: dataclasses.asdict(c)
             for k, c in device.counters.entries.items()},
            arr._kernel_reads,
        ))
    assert outcomes[0] == outcomes[1]
