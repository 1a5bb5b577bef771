"""gsnp audit: static dataflow proofs over the kernel IR.

Covers the IR extraction layer (ops, masks, barrier regions, ctx-method
aliases), the affine-in-tid abstract interpretation (coalesced / strided
/ gather / unproven verdicts), the whole-kernel checks (GSNP202 static
races, GSNP203 uninit reads, GSNP204 missing barriers, GSNP205 honesty),
the coalescing replay, and the acceptance gates: the repo's own kernels
audit with zero errors and zero unproven ops, and every proven
coalescing verdict agrees with the simulator's transaction counters.
The replay runs once per test run (a module fixture): the pipeline in
three configurations plus probes of every device primitive, under the
op observer; a forged verdict shows the bound check can fail.  Hostile
input is a finding, never an exception: a hypothesis property audits
mutants of every in-tree kernel body.
"""

import ast
import functools
import re
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyze import discover_kernels
from repro.analyze.dataflow import (
    AFFINE,
    DATADEP,
    VERDICT_COALESCED,
    VERDICT_GATHER,
    VERDICT_STRIDED,
    VERDICT_UNPROVEN,
    ModuleAudit,
    affine,
    audit_source,
    classify,
    datadep,
    join,
    tidperm,
    uniform,
    unknown,
)
from repro.analyze.ir import extract_module_ir
from repro.gpusim.kernel import op_observer


def _audit(src):
    return audit_source(textwrap.dedent(src), "test.py")


def _verdicts(src):
    return {(v.line, v.kind): v for v in _audit(src).verdicts}


def _errors(src):
    return [d for d in _audit(src).diagnostics if d.severity == "error"]


def _ir(src):
    return extract_module_ir(ast.parse(textwrap.dedent(src)), "test.py")


class TestIRExtraction:
    def test_ops_masks_and_regions(self):
        kirs = _ir(
            """
            def k_kernel(ctx, src, dst, n):
                active = ctx.tid < n
                v = ctx.gload(src, ctx.tid, active=active)
                ctx.syncthreads()
                ctx.gstore(dst, ctx.tid, v, active=None)
            """
        )
        assert len(kirs) == 1
        kir = kirs[0]
        assert kir.name == "k_kernel"
        assert kir.params == ["src", "dst", "n"]
        assert kir.n_barriers == 1
        mem = kir.mem_ops()
        assert [op.kind for op in mem] == ["gload", "gstore"]
        load, store = mem
        assert not load.mask.is_full and load.mask.text == "active"
        assert store.mask.is_full
        # The barrier separates the two ops into distinct regions.
        assert load.region == 0 and store.region == 1

    def test_ctx_method_alias(self):
        kirs = _ir(
            """
            def k_kernel(ctx, buf, fast):
                probe = ctx.cload if fast else ctx.gload
                v = probe(buf, ctx.tid, None)
            """
        )
        ops = kirs[0].mem_ops()
        assert len(ops) == 1
        assert ops[0].alias_of == "probe"

    def test_loop_and_branch_tracking(self):
        kirs = _ir(
            """
            def k_kernel(ctx, buf, n):
                for step in range(n):
                    ctx.gstore(buf, ctx.tid, step, active=None)
                    ctx.syncthreads()
            """
        )
        op = kirs[0].mem_ops()[0]
        assert op.loop_id is not None
        assert op.loop_has_barrier

    def test_index_text_is_source(self):
        kirs = _ir(
            """
            def k_kernel(ctx, buf):
                v = ctx.gload(buf, ctx.tid * 4 + 1, active=None)
            """
        )
        assert kirs[0].mem_ops()[0].index_text == "ctx.tid * 4 + 1"

    def test_unroutable_constructs_are_sites(self):
        kirs = _ir(
            """
            import numpy as np

            def k_kernel(ctx, arr, out):
                for t in range(ctx.n_threads):
                    x = np.log(arr.flat_view())
                out[ctx.tid] = arr.data
            """
        )
        assert [(s.kind, s.line, s.text) for s in kirs[0].sites] == [
            ("thread-loop", 5, ""),
            ("log", 6, "np.log"),
            ("raw-call", 6, "flat_view"),
            ("subscript", 7, "out"),
            ("data", 7, ""),
        ]

    def test_helper_ops_are_recorded_without_verdicts(self):
        kirs = _ir(
            """
            def k_kernel(ctx, buf, n):
                active = ctx.tid < n
                def helper(i):
                    ctx.gstore(buf, i, 0)
                    ctx.syncthreads()
                v = ctx.gload(buf, ctx.tid, active=active)
            """
        )
        kir = kirs[0]
        store = kir.ops[0]
        assert store.in_helper and store.live_masks == ("active",)
        # Only the kernel's own op is analysed, and the helper's barrier
        # does not split the kernel's barrier regions.
        assert [op.kind for op in kir.mem_ops()] == ["gload"]
        assert kir.n_barriers == 0 and kir.mem_ops()[0].region == 0


class TestLattice:
    def test_classify_table(self):
        assert classify(affine(1, 0)) == (VERDICT_COALESCED, 1)
        assert classify(affine(-1, 7)) == (VERDICT_COALESCED, 1)
        assert classify(uniform(3)) == (VERDICT_COALESCED, 0)
        assert classify(affine(4, 0)) == (VERDICT_STRIDED, 4)
        assert classify(affine(None, None)) == (VERDICT_STRIDED, None)
        assert classify(tidperm("x"))[0] == VERDICT_GATHER
        assert classify(datadep("x"))[0] == VERDICT_GATHER
        assert classify(unknown("x"))[0] == VERDICT_UNPROVEN

    def test_join_merges_control_flow(self):
        a, b = affine(1, 0), affine(1, 4)
        j = join(a, b)
        assert j.kind == AFFINE and j.stride == 1 and j.offset is None
        assert join(affine(1, 0), affine(2, 0)).stride is None
        assert join(uniform(1), datadep("d")).kind == DATADEP

    def test_coalesced_and_strided_verdicts(self):
        v = _verdicts(
            """
            def k_kernel(ctx, src, dst):
                a = ctx.gload(src, ctx.tid, active=None)
                b = ctx.gload(src, ctx.tid * 4, active=None)
                ctx.gstore(dst, ctx.tid + 8, a + b, active=None)
            """
        )
        assert v[(3, "gload")].verdict == VERDICT_COALESCED
        assert v[(4, "gload")].verdict == VERDICT_STRIDED
        assert v[(4, "gload")].stride == 4
        assert v[(5, "gstore")].verdict == VERDICT_COALESCED

    def test_data_dependent_gather(self):
        v = _verdicts(
            """
            def k_kernel(ctx, idx, src, dst):
                j = ctx.gload(idx, ctx.tid, active=None)
                val = ctx.gload(src, j, active=None)
                ctx.gstore(dst, ctx.tid, val, active=None)
            """
        )
        assert v[(4, "gload")].verdict == VERDICT_GATHER
        assert "idx" in v[(4, "gload")].detail

    def test_clamped_neighbor_load(self):
        v = _verdicts(
            """
            import numpy as np

            def k_kernel(ctx, src, dst, n: int):
                j = np.minimum(ctx.tid + 1, n - 1)
                v = ctx.gload(src, j, active=None)
                ctx.gstore(dst, ctx.tid, v, active=None)
            """
        )
        assert v[(6, "gload")].verdict == VERDICT_COALESCED
        assert v[(6, "gload")].clamped

    def test_loop_carried_rebinding_degrades(self):
        # After one iteration `lo` is np.where-selected (data-dependent);
        # the two-pass fixpoint must classify `mid` as a gather, not take
        # the first-iteration affine value.
        v = _verdicts(
            """
            import numpy as np

            def k_kernel(ctx, table, out, steps):
                lo = ctx.tid * 0
                for _ in range(steps):
                    mid = lo + 1
                    probe = ctx.gload(table, mid, active=None)
                    lo = np.where(probe > 0, mid, lo)
            """
        )
        assert v[(8, "gload")].verdict == VERDICT_GATHER

    def test_augmented_assignment_uses_its_operator(self):
        # ``i *= 4`` scales the stride; it is not ``i + 4``.
        v = _verdicts(
            """
            def k_kernel(ctx, src):
                i = ctx.tid
                i *= 4
                a = ctx.gload(src, i, active=None)
            """
        )
        assert v[(5, "gload")].verdict == VERDICT_STRIDED

    def test_unproven_is_said_out_loud(self):
        audit = _audit(
            """
            def k_kernel(ctx, buf):
                idx = mystery()
                v = ctx.gload(buf, idx, active=None)
            """
        )
        assert audit.verdicts[0].verdict == VERDICT_UNPROVEN
        assert [d.rule for d in audit.diagnostics
                if d.severity == "error"] == ["GSNP205"]


class TestStaticRaces:
    def test_raw_race_fires(self):
        errs = _errors(
            """
            def k_kernel(ctx, buf):
                v = ctx.gload(buf, ctx.tid + 1, active=None)
                ctx.gstore(buf, ctx.tid, v, active=None)
            """
        )
        assert [d.rule for d in errs] == ["GSNP202"]

    def test_barrier_between_is_clean(self):
        errs = _errors(
            """
            def k_kernel(ctx, buf):
                v = ctx.gload(buf, ctx.tid + 1, active=None)
                ctx.syncthreads()
                ctx.gstore(buf, ctx.tid, v, active=None)
            """
        )
        assert errs == []

    def test_broadcast_store_self_race(self):
        errs = _errors(
            """
            def k_kernel(ctx, buf):
                ctx.gstore(buf, 0, ctx.tid, active=None)
            """
        )
        assert [d.rule for d in errs] == ["GSNP202"]

    def test_atomic_broadcast_is_clean(self):
        errs = _errors(
            """
            def k_kernel(ctx, buf):
                ctx.gatomic_add(buf, 0, 1, active=None)
            """
        )
        assert errs == []

    def test_disjoint_lanes_are_clean(self):
        errs = _errors(
            """
            def k_kernel(ctx, buf):
                v = ctx.gload(buf, ctx.tid, active=None)
                ctx.gstore(buf, ctx.tid, v + 1, active=None)
            """
        )
        assert errs == []

    def test_cross_iteration_race_in_barrier_free_loop(self):
        errs = _errors(
            """
            def k_kernel(ctx, buf, steps):
                for _ in range(steps):
                    v = ctx.gload(buf, ctx.tid + 1, active=None)
                    ctx.gstore(buf, ctx.tid, v, active=None)
            """
        )
        assert "GSNP202" in {d.rule for d in errs}

    def test_loop_with_barrier_between_is_clean(self):
        errs = _errors(
            """
            def k_kernel(ctx, buf, steps):
                for _ in range(steps):
                    v = ctx.gload(buf, ctx.tid + 1, active=None)
                    ctx.syncthreads()
                    ctx.gstore(buf, ctx.tid, v, active=None)
                    ctx.syncthreads()
            """
        )
        assert errs == []


class TestMissingBarrier:
    def test_masked_store_then_full_load_fires(self):
        errs = _errors(
            """
            def k_kernel(ctx, buf, n):
                active = ctx.tid < n
                ctx.gstore(buf, ctx.tid, ctx.tid, active=active)
                v = ctx.gload(buf, ctx.tid + 1, active=None)
            """
        )
        assert [d.rule for d in errs] == ["GSNP204"]

    def test_same_lane_readback_is_clean(self):
        errs = _errors(
            """
            def k_kernel(ctx, buf, n):
                active = ctx.tid < n
                ctx.gstore(buf, ctx.tid, ctx.tid, active=active)
                v = ctx.gload(buf, ctx.tid, active=None)
            """
        )
        assert errs == []

    def test_barrier_resolves_hazard(self):
        errs = _errors(
            """
            def k_kernel(ctx, buf, n):
                active = ctx.tid < n
                ctx.gstore(buf, ctx.tid, ctx.tid, active=active)
                ctx.syncthreads()
                v = ctx.gload(buf, ctx.tid + 1, active=None)
            """
        )
        assert errs == []


class TestUninitReads:
    def test_load_from_uninit_alloc_fires(self):
        errs = _errors(
            """
            scratch = device.alloc(64, init=False)

            def k_kernel(ctx, buf):
                v = ctx.gload(buf, ctx.tid, active=None)

            device.launch(k_kernel, 64, scratch)
            """
        )
        assert [d.rule for d in errs] == ["GSNP203"]

    def test_store_before_load_is_clean(self):
        errs = _errors(
            """
            scratch = device.alloc(64, init=False)

            def k_kernel(ctx, buf):
                ctx.gstore(buf, ctx.tid, 0, active=None)
                v = ctx.gload(buf, ctx.tid, active=None)

            device.launch(k_kernel, 64, scratch)
            """
        )
        assert errs == []

    def test_initialized_alloc_is_clean(self):
        errs = _errors(
            """
            scratch = device.alloc(64)

            def k_kernel(ctx, buf):
                v = ctx.gload(buf, ctx.tid, active=None)

            device.launch(k_kernel, 64, scratch)
            """
        )
        assert errs == []

    def test_keyword_launch_binding(self):
        errs = _errors(
            """
            scratch = device.alloc(64, init=False)

            def k_kernel(ctx, buf):
                v = ctx.gload(buf, ctx.tid, active=None)

            device.launch(k_kernel, 64, buf=scratch)
            """
        )
        assert [d.rule for d in errs] == ["GSNP203"]


class TestSuppression:
    def test_audit_rules_are_suppressible(self):
        audit = _audit(
            """
            def k_kernel(ctx, buf):
                idx = mystery()
                v = ctx.gload(buf, idx, active=None)  # gsnp-lint: disable=GSNP205
            """
        )
        assert all(d.rule != "GSNP205" for d in audit.diagnostics)

    def test_note_verdicts_are_suppressible(self):
        audit = _audit(
            """
            def k_kernel(ctx, buf):
                # The verdict stays on the op; only its note is hidden.
                v = ctx.gload(buf, ctx.tid, active=None)  # gsnp-lint: disable=GSNP201
            """
        )
        assert audit.diagnostics == []
        # The verdict itself survives; only the note is filtered.
        assert len(audit.verdicts) == 1


# ---------------------------------------------------------------------------
# The coalescing replay: runtime transactions against the proven verdicts
# ---------------------------------------------------------------------------

_REPLAY_SEED = 20110711


def transaction_bound(stride, warp_size, itemsize, segment_bytes):
    """Max segment transactions one active warp can issue for a coalesced
    access of the given concrete ``|stride|``.

    Stride 0 (broadcast) is one segment: elements never straddle
    segments, since ``segment_bytes`` is a multiple of every itemsize.
    Otherwise the warp's footprint spans ``(warp_size - 1) * stride + 1``
    elements: ``ceil(span_bytes / segment_bytes)`` segments, plus one for
    an arbitrary alignment of the warp's base address.
    """
    if stride == 0:
        return 1
    span_bytes = ((warp_size - 1) * stride + 1) * itemsize
    return -(-span_bytes // segment_bytes) + 1


def _run_pipelines(n_sites, seed):
    """The end-to-end tier-1 surface: optimized, fused, and baseline, each
    on its own isolated sanitized device."""
    from repro.core.likelihood import BASELINE, OPTIMIZED
    from repro.core.pipeline import GsnpPipeline
    from repro.gpusim.pool import acquire_device
    from repro.seqsim.datasets import DatasetSpec, generate_dataset

    dataset = generate_dataset(DatasetSpec(
        name="chrCal", n_sites=n_sites, depth=10.0, coverage=0.9,
        seed=seed,
    ))
    for variant, fusion in ((OPTIMIZED, False), (OPTIMIZED, True),
                            (BASELINE, False)):
        GsnpPipeline(
            window_size=256, mode="gpu", variant=variant,
            device=acquire_device(sanitize=True), fusion=fusion,
        ).run(dataset)


def _run_primitive_probes(seed):
    """Direct launches of every device primitive the pipeline composes,
    including paths small datasets skip (global-memory bitonic,
    standalone scan/reduce/search)."""
    import numpy as np

    from repro.compress.rle_dict import rle_dict_encode_gpu
    from repro.gpusim.pool import acquire_device
    from repro.gpusim.primitives.reduce import device_reduce
    from repro.gpusim.primitives.scan import device_exclusive_scan
    from repro.gpusim.primitives.search import device_binary_search
    from repro.gpusim.primitives.segmented import segmented_dict_indices
    from repro.gpusim.primitives.sort import device_radix_sort
    from repro.gpusim.primitives.unique import device_unique
    from repro.sortnet.batch import batch_sort

    rng = np.random.default_rng(seed)
    device = acquire_device(sanitize=True)

    keys = rng.integers(0, 1 << 20, size=2000).astype(np.uint32)
    device_radix_sort(device, device.to_device(keys, "cal_keys"))

    sorted_keys = np.sort(keys)
    uniq = device_unique(device, device.to_device(sorted_keys, "cal_sorted"))
    needles = device.to_device(
        rng.choice(np.unique(sorted_keys), size=500), "cal_needles"
    )
    device_binary_search(device, needles, uniq)

    vals = device.to_device(
        rng.integers(0, 100, size=1500).astype(np.uint32), "cal_vals"
    )
    device_reduce(device, vals)
    device_exclusive_scan(device, vals)

    segmented_dict_indices(device, [
        rng.integers(0, 64, size=200).astype(np.uint32) for _ in range(4)
    ])

    rle_dict_encode_gpu(
        device, np.repeat(rng.integers(0, 6, size=60), 25).astype(np.uint8)
    )

    # Oversized rows force the global-memory bitonic path (shared tile
    # capacity is 48 KB; 16384 * 4 bytes exceeds it).
    big = rng.integers(0, 1 << 30, size=(2, 16384)).astype(np.uint32)
    batch_sort(device, big, elem_bytes=4)
    # Small rows take the shared-memory tile path.
    small = rng.integers(0, 1 << 16, size=(8, 64)).astype(np.uint32)
    batch_sort(device, small, elem_bytes=4)


@functools.lru_cache(maxsize=None)
def _resolved(path):
    return str(Path(path).resolve())


def _key(rec):
    return _resolved(rec.file), rec.line, rec.kind


@pytest.fixture(scope="module")
def tree_audits():
    from repro.analyze import audit_paths

    return audit_paths(["src/repro"])


@pytest.fixture(scope="module")
def static_ops(tree_audits):
    """``(resolved file, line, kind)`` -> the audit's verdict on that op.

    A call through a ctx-method alias (``search.py``'s ``probe =
    ctx.cload if ... else ctx.gload``) is one op the IR records as
    ``gload`` (``ir._pick_alias_kind``); it is keyed as ``cload`` too,
    the one legitimate difference between a runtime and a static kind.
    """
    out = {}
    for m in tree_audits:
        for k in m.kernels:
            aliased = {(op.line, op.col) for op in k.ir.ops if op.alias_of}
            for v in k.verdicts:
                kinds = [v.kind]
                if (v.line, v.col) in aliased and v.kind == "gload":
                    kinds.append("cload")
                for kind in kinds:
                    key = (_resolved(v.path), v.line, kind)
                    # One op per key, so each record names one verdict.
                    assert key not in out, key
                    out[key] = v
    return out


@pytest.fixture(scope="module")
def replay():
    """The runtime op records of one replay, by part: the pipeline in its
    three configurations at ``n_sites=300``, then the primitive probes."""
    records = {"pipeline": [], "probes": []}
    with op_observer(records["pipeline"].append):
        _run_pipelines(300, _REPLAY_SEED)
    with op_observer(records["probes"].append):
        _run_primitive_probes(_REPLAY_SEED)
    return records


def _bounded(static_ops, records):
    """``(record, bound)`` for each record of an op proven coalesced.

    Constant-cache loads issue no counted transactions and are skipped;
    gather/strided verdicts make no upper-bound claim.
    """
    for rec in records:
        v = static_ops.get(_key(rec))
        if v is None or v.verdict != VERDICT_COALESCED or rec.kind == "cload":
            continue
        yield rec, rec.warps * transaction_bound(
            v.stride, rec.warp_size, rec.itemsize, rec.segment_bytes
        )


def _mismatches(static_ops, records):
    return [
        f"{rec.file}:{rec.line}: {rec.kind} on {rec.array!r} in "
        f"{rec.kernel!r} issued {rec.tx} transactions, bound {bound}"
        for rec, bound in _bounded(static_ops, records)
        if rec.tx > bound
    ]


class TestCalibration:
    """Every op the audit proves coalesced stays within the transaction
    bound its verdict implies when the replay runs it.
    ``count_transactions`` is the ground truth the paper's Table III
    numbers come from, so a record above its bound is an analyzer bug."""

    def test_transaction_bound_table(self):
        # Broadcast: one segment per warp regardless of geometry.
        assert transaction_bound(0, 32, 4, 128) == 1
        # Unit stride, 4-byte elems: 124 bytes span -> 1 segment + slack.
        assert transaction_bound(1, 32, 4, 128) == 2
        # Stride 2 doubles the span.
        assert transaction_bound(2, 32, 4, 128) == 3

    def test_probe_replay_agrees(self, static_ops, replay):
        assert any(_bounded(static_ops, replay["probes"]))
        assert _mismatches(static_ops, replay["probes"]) == []

    def test_full_calibration_covers_every_coalesced_op(
        self, tree_audits, static_ops, replay
    ):
        """Acceptance gate: 0 mismatches AND full coverage — every op the
        audit proved coalesced runs in the replay within its bound."""
        records = replay["pipeline"] + replay["probes"]
        assert _mismatches(static_ops, records) == []
        observed = {
            (_resolved(v.path), v.line, v.col)
            for v in (static_ops[_key(rec)] for rec in records)
        }
        unobserved = [
            f"{v.path}:{v.line} {v.kind} on {v.array!r} in {v.kernel!r}"
            for m in tree_audits for v in m.verdicts
            if v.verdict == VERDICT_COALESCED and v.kind != "cload"
            and (_resolved(v.path), v.line, v.col) not in observed
        ]
        assert observed and unobserved == []

    def test_every_record_matches_a_static_op_on_its_line(
        self, static_ops, replay
    ):
        """A memory op the IR fails to extract has runtime records and no
        static op on their ``(file, line, kind)``."""
        records = replay["pipeline"] + replay["probes"]
        assert records
        unmatched = sorted({
            f"{rec.file}:{rec.line} {rec.kind}"
            for rec in records if _key(rec) not in static_ops
        })
        assert unmatched == []

    def test_forged_coalesced_verdict_is_a_mismatch(self, static_ops, replay):
        """Negative control: had the audit called any in-tree strided op
        coalesced with stride 1, the bound check on the same records
        would report it."""
        records = replay["pipeline"] + replay["probes"]
        strided = sorted({
            _key(rec) for rec in records
            if static_ops[_key(rec)].verdict == VERDICT_STRIDED
        })
        assert strided
        for key in strided:
            forged = {**static_ops, key: replace(
                static_ops[key], verdict=VERDICT_COALESCED, stride=1
            )}
            assert _mismatches(forged, records), key


class TestInTreeGates:
    """The audit's headline acceptance criteria on the repo's own kernels."""

    def test_zero_errors(self, tree_audits):
        errs = [
            d for m in tree_audits for d in m.diagnostics
            if d.severity == "error"
        ]
        assert errs == []

    def test_zero_unproven(self, tree_audits):
        unproven = [
            v for m in tree_audits for v in m.verdicts
            if v.verdict == VERDICT_UNPROVEN
        ]
        assert unproven == []

    def test_every_mem_op_classified(self, tree_audits):
        counts = {}
        for m in tree_audits:
            for v in m.verdicts:
                counts[v.verdict] = counts.get(v.verdict, 0) + 1
        total = sum(counts.values())
        ops = sum(
            len(k.ir.mem_ops()) for m in tree_audits for k in m.kernels
        )
        assert total == ops > 0
        assert counts.get(VERDICT_COALESCED, 0) > 0
        assert counts.get(VERDICT_STRIDED, 0) > 0


class TestBlockKernels:
    """The scan and reduce block kernels: the audit proves every tile
    load and store coalesced (the lane-0 total, increment and partial
    are one-lane gathers) and finds no race or barrier hazard; the
    sanitizer, at one, three and 65 blocks, reports nothing either."""

    PRIMITIVES = Path(__file__).parents[1] / "src/repro/gpusim/primitives"

    def test_tile_loads_and_stores_are_coalesced(self):
        from repro.analyze import audit_paths

        audits = audit_paths([self.PRIMITIVES / "scan.py",
                              self.PRIMITIVES / "reduce.py"])
        verdicts = {
            (v.kernel, v.kind, v.array): v.verdict
            for m in audits for v in m.verdicts
        }
        assert verdicts == {
            ("_block_scan_kernel", "gload", "src"): VERDICT_COALESCED,
            ("_block_scan_kernel", "gstore", "dst"): VERDICT_COALESCED,
            ("_block_scan_kernel", "gstore", "sums"): VERDICT_GATHER,
            ("_uniform_add_kernel", "gload", "inc"): VERDICT_GATHER,
            ("_uniform_add_kernel", "gload", "arr"): VERDICT_COALESCED,
            ("_uniform_add_kernel", "gstore", "arr"): VERDICT_COALESCED,
            ("_block_reduce_kernel", "gload", "src"): VERDICT_COALESCED,
            ("_block_reduce_kernel", "gstore", "dst"): VERDICT_GATHER,
        }
        assert [d.rule for m in audits for d in m.diagnostics
                if d.rule != "GSNP201"] == []

    @pytest.mark.parametrize("blocks", [1, 3, 65])
    def test_sanitizer_reports_no_race_and_no_barrier_finding(self, blocks):
        import numpy as np

        from repro.gpusim.device import Device
        from repro.gpusim.primitives import (
            device_exclusive_scan,
            device_reduce,
        )
        from repro.gpusim.primitives.sweep import BLOCK

        n = (blocks - 1) * BLOCK + 7
        device = Device(sanitize=True)
        host = np.arange(n, dtype=np.int64)
        arr = device.to_device(host, "x")
        out = device_exclusive_scan(device, arr)
        assert int(device_reduce(device, arr)) == int(host.sum())
        assert np.array_equal(out.data, np.cumsum(host) - host)
        launches = {k: c.launches for k, c in device.counters.entries.items()}
        assert launches == ({"scan_block": 1, "reduce_block": 1}
                            if blocks == 1 else
                            {"scan_block": 2, "scan_add": 1,
                             "reduce_block": 2})
        device.free(arr)
        device.free(out)
        assert device.sanitizer.issues == []
        assert device.sanitize_teardown() == []


class TestCLI:
    def test_exit_zero_on_clean_tree(self, capsys):
        from repro.cli import main_audit

        assert main_audit(["src/repro/gpusim/primitives/reduce.py"]) == 0
        err = capsys.readouterr().err
        assert "audited" in err and "unproven" in err

    def test_exit_one_on_error(self, tmp_path, capsys):
        from repro.cli import main_audit

        (tmp_path / "bad.py").write_text(textwrap.dedent(
            """
            def k_kernel(ctx, buf):
                idx = mystery()
                v = ctx.gload(buf, idx, active=None)
            """
        ))
        assert main_audit([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "GSNP205" in out

    def test_json_format_carries_verdicts(self, capsys):
        import json

        from repro.cli import main_audit

        assert main_audit([
            "src/repro/gpusim/primitives/reduce.py", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "gsnp-audit"
        assert doc["kernels"] == 1
        assert doc["verdicts"]["coalesced"] > 0
        assert all("verdict" in op for op in doc["ops"])

    def test_verbose_prints_notes(self, capsys):
        from repro.cli import main_audit

        assert main_audit([
            "src/repro/gpusim/primitives/reduce.py", "--verbose",
        ]) == 0
        out = capsys.readouterr().out
        assert "GSNP201" in out and "note:" in out

    def test_list_rules(self, capsys):
        from repro.cli import main_audit

        assert main_audit(["x", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("GSNP201", "GSNP202", "GSNP203", "GSNP204", "GSNP205"):
            assert rid in out


@functools.cache
def _kernel_spans():
    """(file, first line, end line) of every in-tree kernel body: the
    no-crash property mutates these."""
    root = Path(__file__).parents[1] / "src" / "repro"
    return [
        (path, k.lineno - 1, k.end_lineno)
        for path in sorted(root.rglob("*.py"))
        for k in discover_kernels(ast.parse(path.read_text())).kernels
    ]


_SWAPS = {
    "operator": (
        re.compile(r"(?<= )(?:<<|>>|//|<=|>=|==|[-+*%&|^<>])(?= )"),
        ("+", "-", "*", "//", "%", "<<", ">>", "&", "|", "^", "<", "=="),
    ),
    "constant": (
        re.compile(r"\b\d+\b"),
        ("0", "1", "-1", "7", "64", "100000000", "(1 << 4096)",
         "0x" + "f" * 1200),
    ),
}


@st.composite
def _kernel_mutants(draw):
    """An in-tree kernel file whose kernel body took 1-3 line deletions,
    line duplications, operator swaps or constant swaps."""
    path, lo, hi = draw(st.sampled_from(_kernel_spans()))
    lines = path.read_text().splitlines(keepends=True)
    body = "".join(lines[lo:hi])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ("delete", "duplicate", "operator", "constant")
        ))
        if kind in _SWAPS:
            regex, choices = _SWAPS[kind]
            spans = [m.span() for m in regex.finditer(body)]
            if spans:
                a, b = spans[draw(st.integers(0, len(spans) - 1))]
                body = body[:a] + draw(st.sampled_from(choices)) + body[b:]
        else:
            rows = body.splitlines(keepends=True)
            i = draw(st.integers(0, len(rows) - 1))
            rows[i:i + 1] = [] if kind == "delete" else [rows[i]] * 2
            body = "".join(rows)
    return path.name, "".join(lines[:lo]) + body + "".join(lines[hi:])


class TestHostileInput:
    """The audit reports what it cannot prove; it never raises."""

    @pytest.mark.parametrize("index", [
        "ctx.tid << 100000000",        # folds past the int->str limit
        "ctx.tid << -1",               # negative shift count
        "ctx.tid * 0x" + "f" * 1200,   # literal past the int->str limit
        "(ctx.tid << 64) * (1 << 64)",
    ])
    def test_unbounded_constants_are_unproven(self, index):
        audit = audit_source(
            f"def k_kernel(ctx, a):\n    ctx.gload(a, {index})\n", "t.py"
        )
        assert [v.verdict for v in audit.verdicts] == [VERDICT_UNPROVEN]
        assert "GSNP205" in {d.rule for d in audit.diagnostics}

    @pytest.mark.parametrize("depth", [600, 5000])
    def test_deep_nesting_is_a_finding(self, depth):
        # 600 nested additions outrun the analyzer's recursion, 5000 the
        # parser's; both are one GSNP100, not a traceback.
        src = "def k_kernel(ctx, a):\n    ctx.gload(a, ctx.tid"
        audit = audit_source(src + " + 1" * depth + ")\n", "deep.py")
        assert [d.rule for d in audit.diagnostics] == ["GSNP100"]
        assert audit.kernels == []

    def test_mutants_cover_every_in_tree_kernel(self):
        spans = _kernel_spans()
        assert len(spans) == 14
        assert len({path for path, _, _ in spans}) == 10

    @given(_kernel_mutants())
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_kernels_audit_without_raising(self, mutant):
        name, source = mutant
        assert isinstance(audit_source(source, name), ModuleAudit)

    @pytest.mark.tier2
    @given(_kernel_mutants())
    @settings(max_examples=5000, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_kernels_audit_without_raising_wide(self, mutant):
        name, source = mutant
        assert isinstance(audit_source(source, name), ModuleAudit)
