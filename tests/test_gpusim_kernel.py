"""KernelContext semantics: gather/scatter, masking, counter attribution."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.gpusim.device import Device


class TestGload:
    def test_gather_values(self, device):
        arr = device.to_device(np.arange(100, dtype=np.int64) * 3)

        def k(ctx):
            return ctx.gload(arr, ctx.tid * 2)

        out = device.launch(k, 50)
        assert np.array_equal(out, np.arange(50) * 6)

    def test_inactive_lanes_get_fill(self, device):
        arr = device.to_device(np.arange(10, dtype=np.int64))

        def k(ctx):
            return ctx.gload(arr, ctx.tid, active=ctx.tid < 3, fill=-7)

        out = device.launch(k, 8)
        assert np.array_equal(out[:3], [0, 1, 2])
        assert np.all(out[3:] == -7)

    def test_coalesced_load_counts_one_transaction_per_warp(self, device):
        arr = device.to_device(np.arange(64, dtype=np.int32))

        def k(ctx):
            ctx.gload(arr, ctx.tid)

        device.launch(k, 64, name="seq")
        assert device.counters.get("seq").g_load == 2  # 2 warps x 1 segment

    def test_scattered_load_counts_many_transactions(self, device):
        arr = device.to_device(np.zeros(32 * 64, dtype=np.int32))

        def k(ctx):
            ctx.gload(arr, ctx.tid * 64)  # 256-byte stride

        device.launch(k, 32, name="scat")
        assert device.counters.get("scat").g_load == 32

    def test_useful_bytes_tracked(self, device):
        arr = device.to_device(np.arange(32, dtype=np.float64))

        def k(ctx):
            ctx.gload(arr, ctx.tid)

        device.launch(k, 32, name="b")
        assert device.counters.get("b").g_load_bytes == 32 * 8

    def test_out_of_bounds_raises(self, device):
        arr = device.to_device(np.zeros(4, dtype=np.int64))

        def k(ctx):
            ctx.gload(arr, ctx.tid + 100)

        with pytest.raises(KernelError, match="out-of-bounds"):
            device.launch(k, 4)

    def test_wrong_lane_count_raises(self, device):
        arr = device.to_device(np.zeros(64, dtype=np.int64))

        def k(ctx):
            ctx.gload(arr, np.arange(3))

        with pytest.raises(KernelError, match="lanes"):
            device.launch(k, 8)

    def test_constant_space_rejected_for_gload(self, device):
        arr = device.to_constant(np.zeros(4, dtype=np.int64))

        def k(ctx):
            ctx.gload(arr, ctx.tid % 4)

        with pytest.raises(KernelError, match="space"):
            device.launch(k, 8)


class TestGstore:
    def test_scatter_values(self, device):
        arr = device.alloc(10, np.int64)

        def k(ctx):
            ctx.gstore(arr, ctx.tid, ctx.tid * 5)

        device.launch(k, 10)
        assert np.array_equal(arr.data, np.arange(10) * 5)

    def test_masked_lanes_do_not_write(self, device):
        arr = device.alloc(10, np.int64)

        def k(ctx):
            ctx.gstore(arr, ctx.tid, 9, active=ctx.tid % 2 == 0)

        device.launch(k, 10)
        assert np.array_equal(arr.data[::2], np.full(5, 9))
        assert np.array_equal(arr.data[1::2], np.zeros(5))

    def test_conflicting_writes_last_lane_wins(self, device):
        arr = device.alloc(1, np.int64)

        def k(ctx):
            ctx.gstore(arr, np.zeros(ctx.n_threads, dtype=int), ctx.tid)

        device.launch(k, 32)
        assert arr.data[0] == 31

    def test_scalar_value_broadcast(self, device):
        arr = device.alloc(8, np.int64)

        def k(ctx):
            ctx.gstore(arr, ctx.tid, 3)

        device.launch(k, 8)
        assert np.all(arr.data == 3)


class TestAtomicAdd:
    def test_colliding_adds_all_land(self, device):
        arr = device.alloc(4, np.int64)

        def k(ctx):
            ctx.gatomic_add(arr, ctx.tid % 4, 1)

        device.launch(k, 128)
        assert np.array_equal(arr.data, np.full(4, 32))

    def test_atomic_counts_load_and_store(self, device):
        arr = device.alloc(32, np.int64)

        def k(ctx):
            ctx.gatomic_add(arr, ctx.tid, 1)

        device.launch(k, 32, name="at")
        c = device.counters.get("at")
        assert c.g_load == c.g_store > 0


class TestConstantLoad:
    def test_cload_values(self, device):
        table = device.to_constant(np.arange(16, dtype=np.int32) * 2)

        def k(ctx):
            return ctx.cload(table, ctx.tid % 16)

        out = device.launch(k, 32)
        assert np.array_equal(out, (np.arange(32) % 16) * 2)

    def test_cload_does_not_touch_global_counters(self, device):
        table = device.to_constant(np.arange(8, dtype=np.int32))

        def k(ctx):
            ctx.cload(table, ctx.tid % 8)

        device.launch(k, 32, name="c")
        counters = device.counters.get("c")
        assert counters.g_load == 0
        assert counters.c_load == 32

    def test_cload_rejects_global_array(self, device):
        arr = device.to_device(np.zeros(4, dtype=np.int32))

        def k(ctx):
            ctx.cload(arr, ctx.tid % 4)

        with pytest.raises(KernelError, match="space"):
            device.launch(k, 4)


class TestInstructionAccounting:
    def test_instr_counts_per_warp(self, device):
        def k(ctx):
            ctx.instr(5)

        device.launch(k, 96, name="i")  # 3 warps
        assert device.counters.get("i").inst_warp == 15

    def test_partially_active_warp_still_issues(self, device):
        def k(ctx):
            ctx.instr(1, active=ctx.tid == 0)

        device.launch(k, 64, name="d")  # only warp 0 has an active lane
        assert device.counters.get("d").inst_warp == 1

    def test_note_shared(self, device):
        def k(ctx):
            ctx.note_shared(loads=2, stores=1)

        device.launch(k, 64, name="s")
        c = device.counters.get("s")
        assert c.s_load_warp == 4 and c.s_store_warp == 2

    def test_n_warps_ceil_division(self, device):
        def k(ctx):
            assert ctx.n_warps == 3

        device.launch(k, 65)


class TestAllTrueMaskCollapse:
    """An all-true ``active`` mask collapses to ``active=None``: same
    values, same counters, on every op kind, with and without the
    sanitizer (whose hooks keep the live mask materialized)."""

    N = 70  # not a warp multiple: the padded tail warp must not count

    def _run(self, sanitize, make_mask):
        device = Device(sanitize=sanitize)
        src = device.to_device(np.arange(4 * self.N, dtype=np.int32))
        table = device.to_constant(np.arange(16, dtype=np.int32))
        out = device.alloc(self.N, np.int64)
        hist = device.alloc(8, np.int64)

        def k(ctx):
            act = make_mask(ctx)
            ctx.instr(3, active=act)
            a = ctx.gload(src, ctx.tid, active=act)
            b = ctx.gload(src, (ctx.tid * 37) % src.size, active=act)
            c = ctx.cload(table, ctx.tid % 16, active=act)
            ctx.gstore(out, ctx.tid, a + b + c, active=act)
            ctx.gatomic_add(hist, ctx.tid % 8, 1, active=act)

        device.launch(k, self.N, name="mask")
        counters = device.counters.get("mask").as_dict()
        return counters, out.data.copy(), hist.data.copy()

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_all_true_mask_matches_none(self, sanitize):
        unmasked = self._run(sanitize, lambda ctx: None)
        masked = self._run(
            sanitize, lambda ctx: np.ones(ctx.n_threads, dtype=bool)
        )
        assert masked[0] == unmasked[0]
        assert np.array_equal(masked[1], unmasked[1])
        assert np.array_equal(masked[2], unmasked[2])
