"""The level-sweep fast path equals the kernel path.

``device_exclusive_scan`` and ``device_reduce`` launch their level kernels
on the first call of a (spec, size, dtype, op) key and record what the
launches charged; later calls compute the levels on NumPy slices and
replay the record.  The oracle is the same call on
``Device(sanitize=True)``, which always launches.  Both the recording
call and a replaying call must match it on the values (bitwise), the
whole counter book, peak device memory, the sequence of allocated names
and every array's host-read, kernel-read and write tallies.  Typed
errors, alloc faults and fault-point hits must not tell the paths apart,
and the record must be safe under threads and bounded.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, DeviceError, KernelError
from repro.faults.plan import FaultPlan, FaultSpec, fault_plan
from repro.gpusim.device import Device
from repro.gpusim.kernel import set_op_observer
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


def _run(device, prim, host, op):
    """One primitive call; returns everything the two paths must share."""
    arr = device.to_device(host, "x")
    if prim == "scan":
        out = device_exclusive_scan(device, arr)
        value = (out.dtype.str, out.flat_view().tobytes())
    else:
        out = device_reduce(device, arr, op)
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


def _key(prim, n, dtype, op, spec):
    size = 1 << (n - 1).bit_length() if prim == "scan" else n
    return (prim, size, np.dtype(dtype), op, spec)


@st.composite
def sweep_cases(draw):
    prim = draw(st.sampled_from(["scan", "reduce"]))
    n = draw(st.one_of(st.sampled_from(CORNERS), st.integers(1, 70_000)))
    dtype = draw(st.sampled_from(DTYPES))
    op = "sum" if prim == "scan" else draw(
        st.sampled_from(["sum", "max", "min"])
    )
    spec = draw(st.sampled_from(SPECS))
    seed = draw(st.integers(0, 2**32 - 1))
    return prim, n, dtype, op, spec, seed


def check_fast_path_equals_kernels(case):
    prim, n, dtype, op, spec, seed = case
    host = _values(n, dtype, seed)
    key = _key(prim, n, dtype, op, spec)
    sweep._RECORD.pop(key, None)
    with np.errstate(all="ignore"):  # inf - inf, wrapped float32 sums
        oracle = _run(Device(spec=spec, sanitize=True), prim, host, op)
        assert key not in sweep._RECORD  # the sanitizer never records
        recording = _run(Device(spec=spec), prim, host, op)
        assert key in sweep._RECORD
        replaying = _run(Device(spec=spec), prim, host, op)
    assert recording == oracle
    assert replaying == oracle


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


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1025])
def test_replay_accumulates_like_repeated_launches(n):
    """Three calls on one device: the book sums as three launches do."""
    host = np.arange(n, dtype=np.int64)

    def three(device):
        for _ in range(3):
            device_exclusive_scan(device, device.to_device(host, "x"))
            device_reduce(device, device.to_device(host, "y"), "max")
        return {
            k: dataclasses.asdict(c)
            for k, c in device.counters.entries.items()
        }

    assert three(Device()) == three(Device(sanitize=True))


def test_observer_sees_every_level_op():
    """A recorded key still launches under the calibration observer: one
    ``OpRecord`` per routed op of every level, as on a sanitizing
    device."""
    _record("scan", 300)
    _record("reduce", 300)
    seen = []
    for device in (Device(), Device(sanitize=True)):
        recs = []
        prev = set_op_observer(recs.append)
        try:
            device_exclusive_scan(device, device.to_device(np.arange(300)))
            device_reduce(device, device.to_device(np.arange(300)))
        finally:
            set_op_observer(prev)
        seen.append(recs)
    assert seen[0] == seen[1]
    per_kernel = {}
    for r in seen[0]:
        per_kernel[r.kernel] = per_kernel.get(r.kernel, 0) + 1
    # 512 padded lanes: 9 levels each way; 300 -> 1 takes 9 passes.
    assert per_kernel == {
        "scan_upsweep": 9 * 3, "scan_downsweep": 9 * 4, "reduce_pass": 9 * 3,
    }


# -- errors, faults, threads ------------------------------------------------


def _record(prim, n, dtype=np.int64, spec=None):
    """Make sure the plain-device call of this key replays."""
    device = Device() if spec is None else Device(spec=spec)
    arr = device.to_device(np.ones(n, dtype=dtype), "warm")
    if prim == "scan":
        device_exclusive_scan(device, arr)
    else:
        device_reduce(device, arr)


def _outcome(fn):
    try:
        out = fn()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc), str(exc)
    return None, np.asarray(out.data if hasattr(out, "data") else out).tobytes()


@pytest.mark.parametrize("prim", ["scan", "reduce"])
def test_freed_input_raises_device_error_on_both_paths(prim):
    _record(prim, 64)
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
    _record(prim, 64)
    call = device_exclusive_scan if prim == "scan" else device_reduce
    outcomes = []
    for device in (Device(), Device(sanitize=True)):
        arr = device.to_constant(np.arange(64, dtype=np.int64), "c")
        outcomes.append(_outcome(lambda: call(device, arr)))
    assert outcomes[0] == outcomes[1]
    if prim == "reduce":
        assert outcomes[0][0] is KernelError


@pytest.mark.parametrize("sanitize", [False, True])
def test_empty_reduce_and_unknown_op_raise_kernel_error(sanitize):
    _record("reduce", 8)
    device = Device(sanitize=sanitize)
    with pytest.raises(KernelError):
        device_reduce(device, device.alloc(0, np.int64, "e"))
    with pytest.raises(KernelError):
        device_reduce(device, device.to_device(np.ones(8, np.int64)), "xor")


@pytest.mark.parametrize(
    "prim, key, after", [("scan", "x.scanwork", 2), ("reduce", "x.reduce", 8)]
)
def test_alloc_fault_fires_at_the_same_hit_on_both_paths(prim, key, after):
    """Calls of a recorded key until the alloc fault fires at hit
    ``after`` of ``key`` (the third scan's work array, the second
    reduce's second level of seven): both paths fail there and leave the
    same book, allocations and peak."""
    call = device_exclusive_scan if prim == "scan" else device_reduce
    _record(prim, 100)
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
    call = device_exclusive_scan if prim == "scan" else device_reduce
    n = 777
    sweep._RECORD.pop(_key(prim, n, "int64", "sum", GpuSpec()), None)
    hits = []
    # Kernel path (sanitizer), recording call, replaying call.
    for device in (Device(sanitize=True), Device(), Device()):
        spy = _SpyPlan()
        with fault_plan(spy):
            call(device, device.to_device(np.arange(n), "x"))
        hits.append(spy.hits)
    assert hits[0] == hits[1] == hits[2]


def test_two_threads_record_one_key_at_once():
    n, spec = 3000, GpuSpec()
    key = _key("scan", n, "int64", "sum", spec)
    host = np.arange(n, dtype=np.int64)
    oracle = _run(Device(sanitize=True), "scan", host, "sum")
    for _ in range(5):
        sweep._RECORD.pop(key, None)
        barrier = threading.Barrier(2)
        results = [None, None]

        def work(i):
            device = Device()
            barrier.wait()
            results[i] = _run(device, "scan", host, "sum")

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] == oracle
        assert results[1] == oracle
        assert _run(Device(), "scan", host, "sum") == oracle


def test_specs_never_share_a_record_entry():
    n = 5000
    host = np.arange(n, dtype=np.int32)
    for spec in SPECS:
        sweep._RECORD.pop(_key("reduce", n, "int32", "sum", spec), None)
    for _ in range(2):  # record, then replay
        for spec in SPECS:
            got = _run(Device(spec=spec), "reduce", host, "sum")
            assert got == _run(
                Device(spec=spec, sanitize=True), "reduce", host, "sum"
            )
    entries = [sweep._RECORD[_key("reduce", n, "int32", "sum", s)]
               for s in SPECS]
    assert entries[0] != entries[1]
    assert entries[0][0].num_sms == SPECS[0].num_sms
    assert entries[1][0].num_sms == SPECS[1].num_sms


def test_record_stays_at_or_below_its_cap(monkeypatch):
    monkeypatch.setattr(sweep, "_RECORD_MAX", 4)
    monkeypatch.setattr(sweep, "_RECORD", {})
    for n in range(2, 40):
        _record("reduce", n)
        assert len(sweep._RECORD) <= 4
    host = np.arange(39, dtype=np.int64)
    assert _run(Device(), "reduce", host, "sum") == _run(
        Device(sanitize=True), "reduce", host, "sum"
    )
