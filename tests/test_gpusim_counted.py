"""Small launches charged without per-op Python: the counts equal the ops.

Three fast paths must leave every simulated number as the kernels leave
it:

* (a) The dictionary chain — ``device_radix_sort``, ``device_unique``,
  ``device_binary_search`` on a constant-memory dictionary and
  ``segmented_flag_runs`` (and so ``segmented_dict_indices``) — is
  *counted* on a device with no sanitizer and no op observer: its
  launches merge counters computed from host index vectors, NumPy
  computes the values.  The oracle is the same call on
  ``Device(sanitize=True)``, which runs the kernels: values (bitwise),
  the whole counter book, peak memory, allocation names, every array's
  tallies, typed errors, alloc faults and fault-point hits must match.
* (b) The comp kernel walks its steps in blocks of ``LANES // n`` rows;
  with ``LANES = 1`` it walks them one by one.  Both give the same
  ``acc`` bits, counter book and tallies on all four variants, fused and
  unfused.
* (c) A ``KernelContext`` op on a ``(steps, n_threads)`` block equals its
  per-row 1-D ops, on every op kind, with and without ``fan=``.

Under the sanitizer or an op observer none of these paths is taken.
"""

from __future__ import annotations

import dataclasses
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
from repro.errors import AllocationError
from repro.faults.plan import FaultPlan, FaultSpec, fault_plan
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelContext, op_observer
from repro.gpusim.primitives import (
    device_binary_search,
    device_radix_sort,
    device_unique,
    reduce,
    scan,
    search,
    segmented,
    segmented_dict_indices,
    segmented_flag_runs,
    sort,
    unique,
)
from repro.gpusim.spec import GpuSpec
from repro.sortnet.cpu_sort import quicksort_per_site

SPECS = [GpuSpec(), GpuSpec(warp_size=16, segment_bytes=96, num_sms=7)]
SIZES = st.one_of(st.sampled_from([0, 1, 2, 31, 32, 33]), st.integers(0, 3000))


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


# -- (a) the dictionary chain --------------------------------------------------


def _keys(rng, n, dtype, distinct):
    info = np.iinfo(dtype)
    pool = rng.integers(0, info.max, max(distinct, 1), endpoint=True,
                        dtype=dtype)
    return pool[rng.integers(0, pool.size, n)]


@st.composite
def chain_cases(draw):
    prim = draw(st.sampled_from(
        ["sort", "unique", "search", "search_global", "flags", "segdict"]
    ))
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64]))
    width = np.dtype(dtype).itemsize * 8
    nbits = draw(st.one_of(st.none(), st.integers(1, width)))
    n = draw(SIZES)
    distinct = draw(st.sampled_from([1, 3, 60, 5000]))
    spec = draw(st.sampled_from(SPECS))
    seed = draw(st.integers(0, 2**32 - 1))
    return prim, dtype, nbits, n, distinct, spec, seed


def _chain_call(case):
    prim, dtype, nbits, n, distinct, spec, seed = case
    rng = np.random.default_rng(seed)
    keys = _keys(rng, n, dtype, distinct)

    def call(device):
        rng = np.random.default_rng(seed + 1)
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


def check_chain(case):
    spec, call = _chain_call(case)
    oracle = _outcome(Device(spec=spec, sanitize=True), call)
    assert _outcome(Device(spec=spec), call) == oracle


_TIER1 = settings(max_examples=60, derandomize=True, deadline=None,
                  database=None, suppress_health_check=list(HealthCheck))
_WIDE = settings(max_examples=600, deadline=None, database=None,
                 suppress_health_check=list(HealthCheck))


@_TIER1
@given(chain_cases())
def test_counted_chain_equals_kernels(case):
    check_chain(case)


@pytest.mark.tier2
@_WIDE
@given(chain_cases())
def test_counted_chain_equals_kernels_wide(case):
    check_chain(case)


@pytest.mark.parametrize("prim", ["sort", "unique", "search", "flags"])
@pytest.mark.parametrize("spec", SPECS, ids=["m2050", "w16s96"])
def test_empty_and_one_element_inputs(prim, spec):
    for n in (0, 1):
        if prim == "search" and n == 0:
            continue
        check_chain((prim, np.uint32, None, n, 1, spec, 5))


def _bad_inputs():
    """Calls whose kernels load an input from the wrong memory space or
    out of bounds."""
    keys = np.arange(40, dtype=np.uint32)[::-1].copy()
    return {
        "unique_constant_keys": lambda d: device_unique(
            d, d.to_constant(np.sort(keys), "k")
        ),
        "search_constant_needles": lambda d: device_binary_search(
            d, d.to_constant(keys.astype(np.int64), "n"),
            d.to_constant(np.sort(keys).astype(np.int64), "t"),
        ),
        "flags_constant_values": lambda d: segmented_flag_runs(
            d, d.to_constant(keys, "v"), d.to_device(np.ones(40, np.uint8))
        ),
        "flags_short_first": lambda d: segmented_flag_runs(
            d, d.to_device(keys, "v"), d.to_device(np.ones(7, np.uint8))
        ),
    }


@pytest.mark.parametrize("name", sorted(_bad_inputs()))
def test_typed_errors_match(name):
    call = _bad_inputs()[name]
    oracle = _outcome(Device(sanitize=True), call)
    assert isinstance(oracle["value"], tuple) and issubclass(
        oracle["value"][0], Exception
    )
    assert _outcome(Device(), call) == oracle


def _dict_chain(device):
    rng = np.random.default_rng(3)
    segs = [rng.integers(0, 50, 300).astype(np.uint32) for _ in range(4)]
    for _ in range(3):
        segmented_dict_indices(device, segs)


@pytest.mark.parametrize("key, after", [
    ("segdict.keys.rsortB", 2), ("unique.flags", 1), ("unique", 2),
    ("bsearch", 1), ("segdict.table", 2),
])
def test_alloc_fault_fires_at_the_same_hit_on_both_paths(key, after):
    seen = []
    for device in (Device(), Device(sanitize=True)):
        plan = FaultPlan([FaultSpec("gpusim.device.alloc", "alloc", key,
                                    after=after)])
        with fault_plan(plan), pytest.raises(AllocationError):
            _dict_chain(device)
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


def test_fault_point_hits_match():
    hits = []
    for device in (Device(sanitize=True), Device()):
        spy = _SpyPlan()
        with fault_plan(spy):
            _dict_chain(device)
        hits.append(spy.hits)
    assert hits[0] == hits[1]


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
    from repro.errors import KernelError

    def kernel(ctx):
        ctx.gload(src, np.zeros((3, 40), dtype=np.int64),
                  active=np.ones((2, 40), dtype=bool))

    device = Device()
    src = device.to_device(np.arange(50.0), "src")
    with pytest.raises(KernelError):
        device.launch(kernel, 40)


# -- no fast path under the sanitizer or an op observer -------------------------


def test_sanitizer_and_observer_take_no_fast_path(tiny_dataset):
    """A whole fused job, once on a sanitizing device and once under the
    op observer: no counted launch, no step block, no counted level sweep.
    A plain device's first job takes all three."""
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
        mock.patch.object(mod, "charge", spy("level", mod.charge))
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
        assert set(taken) == {"count", "level", "block"}
    finally:
        for p in patches:
            p.stop()
