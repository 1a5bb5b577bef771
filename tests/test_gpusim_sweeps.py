"""The counted level sweeps equal the kernel path.

On a device with no sanitizer and no op observer,
``device_exclusive_scan`` and ``device_reduce`` launch no level kernel:
NumPy computes each level on slices, and ``sweep.charge`` merges what
the level's launch would add, its strided ops priced by the closed form
``sweep.slice_tx``.  The oracle is the same call on
``Device(sanitize=True)``, which always launches.  The first call on a
fresh device must match it on the values (bitwise), the whole counter
book, peak device memory, the sequence of allocated names and every
array's host-read, kernel-read and write tallies.  Typed errors, alloc
faults and fault-point hits must not tell the paths apart.  The slice
form's count equals ``count_transactions`` on the materialized range,
and a charged slice op equals a launched strided load.
"""

from __future__ import annotations

import dataclasses
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, DeviceError, KernelError
from repro.faults.plan import FaultPlan, FaultSpec, fault_plan
from repro.gpusim.device import Device
from repro.gpusim.kernel import op_observer
from repro.gpusim.memory import count_transactions
from repro.gpusim.primitives import device_exclusive_scan, device_reduce
from repro.gpusim.primitives import sweep
from repro.gpusim.spec import GpuSpec

DTYPES = ["int8", "int32", "int64", "uint32", "float32", "float64"]
#: The default M2050 and a spec with another warp and segment size (and
#: SM count, which the counters' per-warp views divide by).
SPECS = [GpuSpec(), GpuSpec(warp_size=16, segment_bytes=96, num_sms=7)]
CORNERS = [1, 2] + [
    (1 << k) + d for k in range(2, 17) for d in (-1, 0, 1)
] + [70_000]


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
    reduce, equals the sanitizing kernel run."""
    for i, n in enumerate(CORNERS):
        check_fast_path_equals_kernels(("scan", n, dtype, spec, i))
        check_fast_path_equals_kernels(("reduce", n, dtype, spec, i))


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


@pytest.mark.parametrize("n", [1, 2, 300, 4097])
def test_first_call_launches_only_under_sanitizer_or_observer(n):
    """A plain device's first call launches no level kernel; a sanitizing
    device, or a plain one under an op observer, launches every level:
    ``log2 m`` levels each way (``m`` the padded size) and
    ``ceil(log2 n)`` reduce passes."""

    def both(device):
        device_exclusive_scan(device, device.to_device(np.arange(n), "x"))
        device_reduce(device, device.to_device(np.arange(n), "y"))

    assert _launched_names(Device(), both) == []
    levels = (n - 1).bit_length()
    want = (["scan_upsweep"] * levels + ["scan_downsweep"] * levels
            + ["reduce_pass"] * levels)
    assert _launched_names(Device(sanitize=True), both) == want
    with op_observer(lambda rec: None):
        assert _launched_names(Device(), both) == want


def test_observer_sees_every_level_op():
    """Under the calibration observer a plain device launches: one
    ``OpRecord`` per routed op of every level, as on a sanitizing
    device."""
    seen = []
    for device in (Device(), Device(sanitize=True)):
        recs = []
        with op_observer(recs.append):
            device_exclusive_scan(device, device.to_device(np.arange(300)))
            device_reduce(device, device.to_device(np.arange(300)))
        seen.append(recs)
    assert seen[0] == seen[1]
    per_kernel = {}
    for r in seen[0]:
        per_kernel[r.kernel] = per_kernel.get(r.kernel, 0) + 1
    # 512 padded lanes: 9 levels each way; 300 -> 1 takes 9 passes.
    assert per_kernel == {
        "scan_upsweep": 9 * 3, "scan_downsweep": 9 * 4, "reduce_pass": 9 * 3,
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
    """A reduce pass loads its input in a kernel: ``KernelError``.  The
    scan copies its input to the work array on the host side of the
    launch, as before, so both paths accept it and agree."""
    call = device_exclusive_scan if prim == "scan" else device_reduce
    outcomes = []
    for device in (Device(), Device(sanitize=True)):
        arr = device.to_constant(np.arange(64, dtype=np.int64), "c")
        outcomes.append(_outcome(lambda: call(device, arr)))
    assert outcomes[0] == outcomes[1]
    if prim == "reduce":
        assert outcomes[0][0] is KernelError


@pytest.mark.parametrize("sanitize", [False, True])
def test_empty_reduce_raises_kernel_error(sanitize):
    device = Device(sanitize=sanitize)
    with pytest.raises(KernelError):
        device_reduce(device, device.alloc(0, np.int64, "e"))


@pytest.mark.parametrize(
    "prim, key, after", [("scan", "x.scanwork", 2), ("reduce", "x.reduce", 8)]
)
def test_alloc_fault_fires_at_the_same_hit_on_both_paths(prim, key, after):
    """Calls until the alloc fault fires at hit ``after`` of ``key``
    (the third scan's work array, the second reduce's second level of
    seven): both paths fail there and leave the same book, allocations
    and peak."""
    call = device_exclusive_scan if prim == "scan" else device_reduce
    seen = []
    for device in (Device(), Device(sanitize=True)):
        plan = FaultPlan([FaultSpec("gpusim.device.alloc", "alloc", key,
                                    after=after)])
        with fault_plan(plan), pytest.raises(AllocationError):
            for _ in range(4):
                call(device, device.to_device(np.arange(100), "x"))
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
    n = 777
    hits = []
    for device in (Device(sanitize=True), Device(), Device()):
        spy = _SpyPlan()
        with fault_plan(spy):
            call(device, device.to_device(np.arange(n), "x"))
        hits.append(spy.hits)
    assert hits[0] == hits[1] == hits[2]


# -- the slice op form ------------------------------------------------------

#: Element sizes the slice form is checked at: 129 bytes is more than a
#: segment of either spec, so every lane starts its own.
ITEMSIZES = [1, 2, 4, 8, 16, 129]


@st.composite
def slice_cases(draw):
    start = draw(st.integers(0, 3000))
    step = draw(st.one_of(st.integers(1, 9), st.integers(1, 700)))
    stop = draw(st.integers(0, 40_000))
    itemsize = draw(st.sampled_from(ITEMSIZES))
    spec = draw(st.sampled_from(SPECS))
    spare = draw(st.integers(0, 70))  # dead threads past the last lane
    short = draw(st.booleans())  # an array that ends before the last lane
    return start, stop, step, itemsize, spec, spare, short


def _strided_load_kernel(ctx, arr, start: int, step: int, count: int):
    """Thread t < count loads element start + t * step."""
    ctx.gload(arr, start + ctx.tid * step, active=ctx.tid < count)


def check_slice_form(case):
    """``slice_tx`` equals ``count_transactions`` on the materialized
    range, and a charged slice op leaves the book, tallies and typed
    errors of the launched strided load."""
    start, stop, step, itemsize, spec, spare, short = case
    lanes = range(start, stop, step)
    want = count_transactions(
        np.arange(start, stop, step), itemsize, spec.warp_size,
        spec.segment_bytes,
    )
    assert sweep.slice_tx(Device(spec=spec), lanes, itemsize) == want
    size = max(lanes[-1] if lanes else 0, 0) + (0 if short else 1)
    dtype = np.dtype(f"V{itemsize}")
    outcomes = []
    for counted in (True, False):
        device = Device(spec=spec)
        arr = device.alloc(size, dtype, "src")
        threads = len(lanes) + spare
        try:
            if counted:
                sweep.charge(device, "strided", threads, 0,
                             ("gload", arr, slice(start, stop, step)))
            else:
                device.launch(_strided_load_kernel, threads, arr, start,
                              step, len(lanes), name="strided")
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


@settings(max_examples=200, derandomize=True, deadline=None,
          database=None, suppress_health_check=list(HealthCheck))
@given(slice_cases())
def test_slice_form_equals_materialized_range(case):
    check_slice_form(case)


@pytest.mark.tier2
@settings(max_examples=3000, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(slice_cases())
def test_slice_form_equals_materialized_range_wide(case):
    check_slice_form(case)
