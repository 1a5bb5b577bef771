"""Count-only launches and step blocks: the counts equal the ops.

Three fast paths must leave every simulated number as the kernels leave
it:

* (a) Six primitives are *counted* on a device with no sanitizer and no
  op observer: the block scan and reduce, which sum integers only, and
  the dictionary chain (``device_radix_sort``, ``device_unique``,
  ``device_binary_search`` on a constant-memory dictionary and
  ``segmented_flag_runs``, and so ``segmented_dict_indices``).  Each
  launch merges counters computed from host index patterns
  (``sweep.charge``: a tile's elements priced in closed form by
  ``sweep.span_tx``, one transaction a lane-0 op, the shared-memory tree
  by ``sweep.tree_warps``), and NumPy computes the values.  The oracle
  is the same call on ``Device(sanitize=True)``, which runs the kernels:
  values (bitwise), the whole counter book, peak memory, allocation
  names, every array's tallies, h2d bytes, typed errors, alloc faults
  and fault-point hits must match, on a fresh device's first call and
  on every later one.  ``tests/test_gpusim_sweeps.py`` runs the same
  harness on scan and reduce alone.
* (b) The comp kernel walks its steps in blocks of ``LANES // n`` rows;
  with ``LANES = 1`` it walks them one by one.  Both give the same
  ``acc`` bits, counter book and tallies on all four variants, fused and
  unfused.
* (c) A ``KernelContext`` op on a ``(steps, n_threads)`` block equals its
  per-row 1-D ops, on every op kind, with and without ``fan=``.

Under the sanitizer or an op observer none of these paths is taken, and
a step block is a ``KernelError``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.likelihood as likelihood
from repro.constants import MULTIPASS_BOUNDS
from repro.core.base_word import canonical_keys, decode_keys, pack_words
from repro.core.fused import gsnp_likelihood_posterior_fused
from repro.core.likelihood import ALL_VARIANTS, GsnpTables, gsnp_likelihood_comp
from repro.errors import AllocationError, DeviceError, KernelError
from repro.faults.plan import FaultPlan, FaultSpec, fault_plan
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelContext, op_observer
from repro.gpusim.primitives import (
    device_binary_search,
    device_exclusive_scan,
    device_radix_sort,
    device_reduce,
    device_unique,
    reduce,
    scan,
    search,
    segmented,
    segmented_dict_indices,
    segmented_flag_runs,
    sort,
    sweep,
    unique,
)
from repro.gpusim.primitives.sweep import BLOCK
from repro.gpusim.spec import GpuSpec
from repro.sortnet.cpu_sort import quicksort_per_site

#: The default M2050 and a spec with another warp and segment size (and
#: SM count, which the counters' per-warp views divide by).
SPECS = [GpuSpec(), GpuSpec(warp_size=16, segment_bytes=96, num_sms=7)]
SIZES = st.one_of(st.sampled_from([0, 1, 2, 31, 32, 33]), st.integers(0, 3000))
#: Scan and reduce sizes: powers of two and their neighbours, the block
#: edges (a tile, one more, two tiles and one) and a size of many tiles.
CORNERS = sorted({1, 2, 70_000, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1} | {
    (1 << k) + d for k in range(2, 17) for d in (-1, 0, 1)
})
#: Sizes at which scan and reduce take one more level of launches.
SIZE_CLASSES = [1, BLOCK, BLOCK + 1, BLOCK**2, BLOCK**2 + 1]
#: Scan and reduce sum integers (their sums wrap); the chain sorts keys.
SUM_PRIMS = ("scan", "reduce")
CHAIN_PRIMS = ("sort", "unique", "search", "search_global", "flags", "segdict")
SUM_DTYPES = [np.int8, np.int32, np.int64, np.uint32]
KEY_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64]


def _report(device, value):
    """Everything a call leaves behind, the value first."""
    return {
        "value": value,
        "book": {
            k: dataclasses.asdict(c)
            for k, c in device.counters.entries.items()
        },
        "peak": device.peak_global_used,
        "arrays": [
            (a.name, a.space, a.nbytes, a._host_reads, a._kernel_reads,
             a._writes)
            for a in device._arrays
        ],
        "h2d": device.transfers.h2d_bytes,
    }


def _outcome(device, call):
    try:
        value = call(device)
    except Exception as exc:  # noqa: BLE001 - the type is the result
        value = (type(exc), str(exc))
    return _report(device, value)


def _bytes(arr):
    return (arr.dtype.str, arr.data.tobytes())


# -- (a) the count-only primitives ---------------------------------------------


def _keys(rng, n, dtype, distinct):
    """``n`` values drawn from ``distinct`` of ``dtype``'s whole range."""
    info = np.iinfo(dtype)
    pool = rng.integers(info.min, info.max, max(distinct, 1), endpoint=True,
                        dtype=dtype)
    return pool[rng.integers(0, pool.size, n)]


@st.composite
def cases(draw, prims=SUM_PRIMS + CHAIN_PRIMS):
    prim = draw(st.sampled_from(prims))
    summed = prim in SUM_PRIMS
    dtype = draw(st.sampled_from(SUM_DTYPES if summed else KEY_DTYPES))
    width = np.dtype(dtype).itemsize * 8
    nbits = None if summed else draw(st.one_of(st.none(),
                                               st.integers(1, width)))
    n = draw(st.one_of(st.sampled_from(CORNERS), st.integers(1, 70_000))
             if summed else SIZES)
    distinct = draw(st.sampled_from([1, 3, 60, 5000]))
    spec = draw(st.sampled_from(SPECS))
    seed = draw(st.integers(0, 2**32 - 1))
    return prim, dtype, nbits, n, distinct, spec, seed


def _call(case):
    prim, dtype, nbits, n, distinct, spec, seed = case
    rng = np.random.default_rng(seed)
    keys = _keys(rng, n, dtype, distinct)

    def call(device):
        rng = np.random.default_rng(seed + 1)
        if prim == "scan":
            return _bytes(device_exclusive_scan(
                device, device.to_device(keys, "x")
            ))
        if prim == "reduce":
            out = device_reduce(device, device.to_device(keys, "x"))
            return out.dtype.str, out.tobytes()
        if prim == "sort":
            out = device_radix_sort(device, device.to_device(keys, "k"), nbits)
            return _bytes(out)
        if prim == "unique":
            out = device_unique(device, device.to_device(np.sort(keys), "k"))
            return _bytes(out)
        if prim.startswith("search"):
            table = np.unique(keys).astype(np.int64)
            if not table.size:
                table = np.zeros(1, dtype=np.int64)
            put = device.to_constant if prim == "search" else device.to_device
            hay = put(table, "table")
            # Present and absent needles, below and above the dictionary.
            needles = np.concatenate([keys.astype(np.int64), table + 1, [-1]])
            needles = needles[rng.permutation(needles.size)][:n]
            out = device_binary_search(
                device, device.to_device(needles, "needles"), hay
            )
            return _bytes(out)
        if prim == "flags":
            first = (rng.random(n) < 0.05).astype(np.uint8)
            first[:1] = 1
            out = segmented_flag_runs(
                device, device.to_device(keys, "v"),
                device.to_device(first, "first"),
            )
            return _bytes(out)
        cuts = np.sort(rng.integers(0, n + 1, rng.integers(0, 5)))
        segs = np.split(keys.astype(np.uint32) & 0xFFFF, cuts)
        idx, sizes = segmented_dict_indices(device, segs)
        return idx.dtype.str, idx.tobytes(), sizes

    return spec, call


def check_counted(case):
    spec, call = _call(case)
    oracle = _outcome(Device(spec=spec, sanitize=True), call)
    assert _outcome(Device(spec=spec), call) == oracle


@settings(max_examples=420, derandomize=True, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(cases(CHAIN_PRIMS))
def test_counted_chain_equals_kernels(case):
    check_counted(case)


@pytest.mark.tier2
@settings(max_examples=1600, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(cases())
def test_counted_equals_kernels_wide(case):
    check_counted(case)


@pytest.mark.tier2
@pytest.mark.parametrize("spec", SPECS, ids=["m2050", "w16s96"])
@pytest.mark.parametrize("dtype", SUM_DTYPES, ids=lambda d: d.__name__)
def test_every_corner_equals_kernel_path(dtype, spec):
    """Every corner size, scan and reduce, and one size past
    ``BLOCK**2``, where each takes its third level of launches."""
    for i, n in enumerate(CORNERS + [BLOCK**2 + 1]):
        check_counted(("scan", dtype, None, n, 5000, spec, i))
        check_counted(("reduce", dtype, None, n, 5000, spec, i))


@pytest.mark.parametrize("prim", ["sort", "unique", "search", "flags"])
@pytest.mark.parametrize("spec", SPECS, ids=["m2050", "w16s96"])
def test_empty_and_one_element_inputs(prim, spec):
    for n in (0, 1):
        if prim == "search" and n == 0:
            continue
        check_counted((prim, np.uint32, None, n, 1, spec, 5))


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1025])
def test_replay_accumulates_like_repeated_launches(n):
    """Three calls on one device: the counted book sums as three
    launched calls do."""
    host = np.arange(n, dtype=np.int64)

    def three(device):
        for _ in range(3):
            device_exclusive_scan(device, device.to_device(host, "x"))
            device_reduce(device, device.to_device(host, "y"))
        return device

    assert _report(three(Device()), None) == _report(
        three(Device(sanitize=True)), None)


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


def _summed(call, dtype, put="to_device", free=False):
    """``call`` on 3 000 elements of ``dtype`` put on the device by
    ``put`` (and freed first, with ``free``)."""
    def run(device):
        arr = getattr(device, put)(np.arange(3000, dtype=dtype), "x")
        if free:
            device.free(arr)
        return call(device, arr)
    return run


def _bad_inputs():
    """Calls that fail typed: a kernel loads an input from the wrong
    memory space, out of bounds or after it was freed, or scan and
    reduce get what they do not sum."""
    keys = np.arange(40, dtype=np.uint32)[::-1].copy()
    table = {
        "unique_constant_keys": (KernelError, lambda d: device_unique(
            d, d.to_constant(np.sort(keys), "k")
        )),
        "search_constant_needles": (KernelError, lambda d: device_binary_search(
            d, d.to_constant(keys.astype(np.int64), "n"),
            d.to_constant(np.sort(keys).astype(np.int64), "t"),
        )),
        "flags_constant_values": (KernelError, lambda d: segmented_flag_runs(
            d, d.to_constant(keys, "v"), d.to_device(np.ones(40, np.uint8))
        )),
        "flags_short_first": (KernelError, lambda d: segmented_flag_runs(
            d, d.to_device(keys, "v"), d.to_device(np.ones(7, np.uint8))
        )),
    }
    for name, call in (("scan", device_exclusive_scan),
                       ("reduce", device_reduce)):
        table[f"{name}_freed_input"] = (
            DeviceError, _summed(call, np.int64, free=True))
        table[f"{name}_constant_input"] = (
            KernelError, _summed(call, np.int64, put="to_constant"))
        for dtype in (np.float32, np.float64):
            table[f"{name}_{dtype.__name__}"] = (
                KernelError, _summed(call, dtype))
    return table


@pytest.mark.parametrize("name", sorted(_bad_inputs()))
def test_typed_errors_match(name):
    error, call = _bad_inputs()[name]
    oracle = _outcome(Device(sanitize=True), call)
    assert isinstance(oracle["value"], tuple) and oracle["value"][0] is error
    assert _outcome(Device(), call) == oracle
    if "float" in name:  # refused before anything is allocated
        assert [a[0] for a in oracle["arrays"]] == ["x"]


def _workload(device, parts=("chain", "scan", "reduce")):
    """Three rounds of a dictionary chain, a three-tile scan and a
    three-tile reduce (of those named in ``parts``)."""
    rng = np.random.default_rng(3)
    segs = [rng.integers(0, 50, 300).astype(np.uint32) for _ in range(4)]
    for _ in range(3):
        if "chain" in parts:
            segmented_dict_indices(device, segs)
        if "scan" in parts:
            device_exclusive_scan(device, device.to_device(np.arange(3000),
                                                           "x"))
        if "reduce" in parts:
            device_reduce(device, device.to_device(np.arange(3000), "x"))


@pytest.mark.parametrize("key, after", [
    ("segdict.keys.rsortB", 2), ("unique.flags", 1), ("unique", 2),
    ("bsearch", 1), ("segdict.table", 2),
    ("x.scansums.scan", 2), ("x.scan", 1), ("x.reduce", 3),
])
def test_alloc_fault_fires_at_the_same_hit_on_both_paths(key, after):
    """The workload until the alloc fault fires at hit ``after`` of
    ``key`` (for scan and reduce: the third scan's scan of its tile
    totals, the second scan's output, the second reduce's partials):
    both paths fail there and leave the same book, allocations and
    peak."""
    seen = []
    for device in (Device(), Device(sanitize=True)):
        plan = FaultPlan([FaultSpec("gpusim.device.alloc", "alloc", key,
                                    after=after)])
        with fault_plan(plan), pytest.raises(AllocationError):
            _workload(device)
        report = _report(device, plan.fired)
        report["arrays"] = [a[:2] for a in report["arrays"]]
        seen.append(report)
    assert seen[0] == seen[1]
    assert seen[0]["value"] == [("gpusim.device.alloc", key, after, "alloc")]


class _SpyPlan(FaultPlan):
    """A plan that fires nothing and logs every fault-point hit."""

    def __init__(self):
        super().__init__()
        self.hits = []

    def check(self, site, key, value, ctx):
        self.hits.append((site, key))
        return value


def check_fault_point_hits(parts):
    """A counted workload hits the fault points a launched one hits, and
    so does the next plain device's: no call leaves state behind."""
    hits = []
    for device in (Device(sanitize=True), Device(), Device()):
        spy = _SpyPlan()
        with fault_plan(spy):
            _workload(device, parts)
        hits.append(spy.hits)
    assert hits[0] == hits[1] == hits[2]


def test_fault_point_hits_match():
    check_fault_point_hits(("chain",))


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


# -- (b) the blocked comp kernel -------------------------------------------------


def _lanes(seed, n_lanes, read_len):
    """Sorted random per-site words; lane counts off the warp size and
    lengths across every size class, zero-length lanes included."""
    rng = np.random.default_rng(seed)
    lens = np.concatenate([
        [0], MULTIPASS_BOUNDS,
        rng.integers(0, MULTIPASS_BOUNDS[-1] + 12, n_lanes),
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


def _comp_report(case, lanes, pm_flat, penalty):
    seed, n_lanes, read_len, variant, fused = case
    words, offsets = _lanes(seed, n_lanes, read_len)
    device = Device()
    tables = GsnpTables.load(device, pm_flat, penalty, cache=False)
    launch = gsnp_likelihood_posterior_fused if fused else gsnp_likelihood_comp
    with mock.patch.object(likelihood, "LANES", lanes):
        out = launch(device, words, offsets, tables, variant)
    tables.free(device)
    return _report(device, (out.dtype.str, out.shape, out.tobytes()))


def check_comp(case, lanes, pm_flat, penalty):
    one = _comp_report(case, 1, pm_flat, penalty)
    assert _comp_report(case, lanes, pm_flat, penalty) == one
    assert _comp_report(case, likelihood.LANES, pm_flat, penalty) == one


comp_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(0, 300),
    st.sampled_from([2, 8, 100]),
    st.sampled_from(ALL_VARIANTS),
    st.booleans(),
)


@pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.name)
def test_blocked_comp_every_variant(variant, fused, small_pm_flat,
                                    small_penalty):
    check_comp((11, 45, 8, variant, fused), 200, small_pm_flat,
               small_penalty)


@settings(max_examples=8, derandomize=True, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(case=comp_cases, lanes=st.integers(2, 5000))
def test_blocked_comp_equals_step_by_step(case, lanes, small_pm_flat,
                                          small_penalty):
    check_comp(case, lanes, small_pm_flat, small_penalty)


@pytest.mark.tier2
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(case=comp_cases, lanes=st.integers(2, 5000))
def test_blocked_comp_equals_step_by_step_wide(case, lanes, small_pm_flat,
                                               small_penalty):
    check_comp(case, lanes, small_pm_flat, small_penalty)


# -- (c) KernelContext step blocks ------------------------------------------------


@st.composite
def block_cases(draw):
    """A block op: steps, lanes (off the warp size too), an index that is
    one row for all steps or one per step (negative lanes included), a
    mask per step or none, and an optional fan."""
    steps = draw(st.integers(1, 6))
    n = draw(st.one_of(st.sampled_from([1, 31, 32, 33, 64]),
                       st.integers(1, 120)))
    seed = draw(st.integers(0, 2**32 - 1))
    shared_idx = draw(st.booleans())
    masked = draw(st.booleans())
    fan = draw(st.one_of(st.none(), st.lists(
        st.integers(-3, 6), min_size=1, max_size=4
    )))
    spec = draw(st.sampled_from(SPECS))
    return steps, n, seed, shared_idx, masked, fan, spec


NO_INDEX = ("instr", "note_shared")


def _block_run(case, blocked):
    steps, n, seed, shared_idx, masked, fan, spec = case
    rng = np.random.default_rng(seed)
    shape = (n,) if shared_idx else (steps, n)
    idx = rng.integers(-2, 300, shape)
    if rng.random() < 0.5:
        idx = np.sort(idx, axis=-1)
    act = (rng.random((steps, n)) < 0.7) if masked else None
    fan = None if fan is None else np.asarray(fan, dtype=np.int64)
    device = Device(spec=spec)
    src = device.to_device(rng.standard_normal(320), "src")
    table = device.to_constant(rng.integers(0, 9, 320).astype(np.int32), "c")
    dst = device.to_device(np.zeros(320, dtype=np.int64), "dst")
    out = {}

    def rows(a, r):
        return a if a is None or a.ndim == 1 else a[r]

    def kernel(ctx):
        ops = {
            "gload": lambda i, a: ctx.gload(src, i, active=a),
            "gload_fan": lambda i, a: (
                ctx.gload(src, i, active=a, fan=fan) if fan is not None
                else ctx.gload(src, i, active=a)
            ),
            "cload": lambda i, a: ctx.cload(table, np.abs(i), active=a),
            "gstore": lambda i, a: ctx.gstore(dst, i, i * 3, active=a),
            "gatomic_add": lambda i, a: ctx.gatomic_add(
                dst, np.abs(i) % 300, 1, active=a
            ),
            "instr": lambda i, a: ctx.instr(5, active=a),
            "note_shared": lambda i, a: ctx.note_shared(2, 3, active=a),
        }
        for name, op in ops.items():
            if blocked:
                # Some operand must be 2-D: the index, else an all-live
                # mask (the per-row ops then run unmasked).
                a, i = act, idx
                if a is None and (idx.ndim == 1 or name in NO_INDEX):
                    a = np.ones((steps, n), dtype=bool)
                got = op(i, a)
            else:
                got = [op(rows(idx, r), rows(act, r)) for r in range(steps)]
                got = None if got[0] is None else np.stack(got)
            out[name] = None if got is None else (got.dtype.str, got.shape,
                                                  got.tobytes())

    device.launch(kernel, n, name="block")
    out["dst"] = dst.data.tobytes()
    return _report(device, out)


def check_block(case):
    assert _block_run(case, True) == _block_run(case, False)


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(block_cases())
def test_block_ops_equal_their_rows(case):
    check_block(case)


@pytest.mark.tier2
@settings(max_examples=2000, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(block_cases())
def test_block_ops_equal_their_rows_wide(case):
    check_block(case)


def test_block_operand_of_the_wrong_shape_is_a_kernel_error():
    def kernel(ctx):
        ctx.gload(src, np.zeros((3, 40), dtype=np.int64),
                  active=np.ones((2, 40), dtype=bool))

    device = Device()
    src = device.to_device(np.arange(50.0), "src")
    with pytest.raises(KernelError):
        device.launch(kernel, 40)


@pytest.mark.parametrize("watch", ["sanitizer", "observer"])
def test_block_op_is_a_kernel_error_under_sanitizer_or_observer(watch):
    """Replayed row by row, a block's ops would reach the hooks out of
    the kernel's step order: under a sanitizer or an op observer a 2-D op
    raises instead of running."""

    def kernel(ctx):
        ctx.gload(src, np.zeros((3, 40), dtype=np.int64))

    device = Device(sanitize=watch == "sanitizer")
    src = device.to_device(np.arange(50.0), "src")
    observer = op_observer(lambda rec: None) if watch == "observer" else (
        contextlib.nullcontext())
    with observer, pytest.raises(KernelError, match="step block"):
        device.launch(kernel, 40)


# -- no fast path under the sanitizer or an op observer -------------------------


def test_sanitizer_and_observer_take_no_fast_path(tiny_dataset):
    """A whole fused job, once on a sanitizing device and once under the
    op observer: no counted chain launch, no counted scan or reduce and
    no step block.  A plain device's first job takes all three."""
    from repro.api import JobSpec, create_pipeline

    taken = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            taken.append(name)
            return fn(*args, **kwargs)
        return wrapped

    patches = [
        mock.patch.object(mod, "charge", spy("count", mod.charge))
        for mod in (sort, unique, search, segmented)
    ] + [
        mock.patch.object(mod, "charge", spy("tree", mod.charge))
        for mod in (scan, reduce)
    ] + [
        mock.patch.object(KernelContext, "_view",
                          spy("block", KernelContext._view)),
    ]
    for p in patches:
        p.start()
    try:
        create_pipeline(
            spec=JobSpec(window=400), device=Device(sanitize=True)
        ).run(tiny_dataset)
        with op_observer(lambda rec: None):
            create_pipeline(spec=JobSpec(window=400)).run(tiny_dataset)
        assert taken == []
        create_pipeline(spec=JobSpec(window=400)).run(tiny_dataset)
        assert set(taken) == {"count", "tree", "block"}
    finally:
        for p in patches:
            p.stop()
