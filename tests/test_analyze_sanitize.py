"""Runtime kernel sanitizer: races, hazards, uninit reads, leaks.

Each test launches a deliberately broken kernel under
``Device(sanitize=True)`` and checks the violation is caught with an
actionable, lane-addressed report — plus the negative space: the same
kernels pass once fixed, and a full end-to-end detector run is bitwise
identical with the sanitizer on.
"""

import numpy as np
import pytest

from repro.analyze import SanitizerIssue
from repro.core.pipeline import GsnpPipeline
from repro.errors import DeviceError, SanitizerError
from repro.gpusim.counters import KernelCounters
from repro.gpusim.device import Device


@pytest.fixture
def dev():
    return Device(sanitize=True)


def _launch(device, kernel, n, *args, **kw):
    return device.launch(kernel, n, *args, **kw)


class TestWriteWriteRace:
    def test_duplicate_indices_in_one_gstore(self, dev):
        out = dev.alloc(8, np.int64, "out")

        def racy_kernel(ctx, out):
            # Every lane stores to slot tid // 2: lanes 0,1 collide, etc.
            ctx.gstore(out, ctx.tid // 2, ctx.tid, active=None)

        with pytest.raises(SanitizerError) as ei:
            _launch(dev, racy_kernel, 8, out)
        msg = str(ei.value)
        assert "write-write-race" in msg
        assert "racy_kernel" in msg
        # The report names both colliding lanes of a sample element.
        assert "lane" in msg and "warp" in msg
        assert "gatomic_add" in msg  # actionable suggestion

    def test_race_report_spans_warps(self, dev):
        n = 64  # two warps
        out = dev.alloc(n, np.int64, "out")

        def cross_warp_kernel(ctx, out):
            # Lane i of warp 0 collides with lane i of warp 1.
            ctx.gstore(out, ctx.tid % 32, ctx.tid, active=None)

        with pytest.raises(SanitizerError) as ei:
            _launch(dev, cross_warp_kernel, n, out)
        assert "warp 0" in str(ei.value) and "warp 1" in str(ei.value)

    def test_conflict_across_gstore_calls(self, dev):
        out = dev.alloc(8, np.int64, "out")

        def double_store_kernel(ctx, out):
            ctx.gstore(out, ctx.tid, ctx.tid, active=None)
            # Second store hits slots owned by *other* lanes: unsynchronized
            # WW conflict even though each individual call is race-free.
            ctx.gstore(out, (ctx.tid + 1) % 8, ctx.tid, active=None)

        with pytest.raises(SanitizerError, match="write-write"):
            _launch(dev, double_store_kernel, 8, out)

    def test_disjoint_stores_pass(self, dev):
        out = dev.alloc(16, np.int64, "out")

        def clean_kernel(ctx, out):
            ctx.gstore(out, ctx.tid, ctx.tid, active=None)
            ctx.gstore(out, ctx.tid + 8, ctx.tid, active=ctx.tid < 8)

        _launch(dev, clean_kernel, 8, out)

    def test_masked_lanes_do_not_race(self, dev):
        out = dev.alloc(8, np.int64, "out")

        def masked_kernel(ctx, out):
            # All lanes target slot 0, but only lane 3 is live.
            ctx.gstore(out, np.zeros_like(ctx.tid), ctx.tid, active=ctx.tid == 3)

        _launch(dev, masked_kernel, 8, out)


class TestRawHazard:
    def test_read_after_other_lanes_write(self, dev):
        buf = dev.alloc(8, np.int64, "buf")

        def hazard_kernel(ctx, buf):
            ctx.gstore(buf, ctx.tid, ctx.tid * 10, active=None)
            # Neighbour exchange without a barrier: lane t reads the slot
            # lane t+1 just wrote.
            ctx.gload(buf, (ctx.tid + 1) % 8, active=None)

        with pytest.raises(SanitizerError) as ei:
            _launch(dev, hazard_kernel, 8, buf)
        msg = str(ei.value)
        assert "raw-hazard" in msg
        assert "syncthreads" in msg  # suggests the fix

    def test_syncthreads_clears_hazard(self, dev):
        buf = dev.alloc(8, np.int64, "buf")

        def fixed_kernel(ctx, buf):
            ctx.gstore(buf, ctx.tid, ctx.tid * 10, active=None)
            ctx.syncthreads()
            ctx.gload(buf, (ctx.tid + 1) % 8, active=None)

        _launch(dev, fixed_kernel, 8, buf)

    def test_own_write_readback_is_fine(self, dev):
        buf = dev.alloc(8, np.int64, "buf")

        def self_kernel(ctx, buf):
            ctx.gstore(buf, ctx.tid, ctx.tid, active=None)
            ctx.gload(buf, ctx.tid, active=None)  # same lane: ordered

        _launch(dev, self_kernel, 8, buf)


class TestMixedStoreAtomic:
    def test_gstore_then_atomic(self, dev):
        out = dev.alloc(8, np.int64, "out")

        def mixed_kernel(ctx, out):
            ctx.gstore(out, ctx.tid, ctx.tid, active=None)
            ctx.gatomic_add(out, ctx.tid, 1, active=None)

        with pytest.raises(SanitizerError, match="mixed-store-atomic"):
            _launch(dev, mixed_kernel, 8, out)

    def test_atomic_then_gstore(self, dev):
        out = dev.alloc(8, np.int64, "out")

        def mixed_kernel(ctx, out):
            ctx.gatomic_add(out, ctx.tid, 1, active=None)
            ctx.gstore(out, ctx.tid, ctx.tid, active=None)

        with pytest.raises(SanitizerError, match="mixed-store-atomic"):
            _launch(dev, mixed_kernel, 8, out)

    def test_atomic_histogram_passes(self, dev):
        hist = dev.alloc(4, np.int64, "hist")

        def hist_kernel(ctx, hist):
            ctx.gatomic_add(hist, ctx.tid % 4, 1, active=None)

        _launch(dev, hist_kernel, 32, hist)
        assert np.array_equal(hist.data, np.full(4, 8))

    def test_mixing_rule_survives_barrier(self, dev):
        out = dev.alloc(8, np.int64, "out")

        def mixed_kernel(ctx, out):
            ctx.gstore(out, ctx.tid, ctx.tid, active=None)
            ctx.syncthreads()  # establishes ordering but not access mode
            ctx.gatomic_add(out, ctx.tid, 1, active=None)

        with pytest.raises(SanitizerError, match="mixed-store-atomic"):
            _launch(dev, mixed_kernel, 8, out)


class TestUninitRead:
    def test_read_of_raw_alloc(self, dev):
        raw = dev.alloc(8, np.int64, "raw", init=False)

        def reader_kernel(ctx, raw):
            ctx.gload(raw, ctx.tid, active=None)

        with pytest.raises(SanitizerError) as ei:
            _launch(dev, reader_kernel, 8, raw)
        msg = str(ei.value)
        assert "uninit-read" in msg and "'raw'" in msg
        assert "element 0" in msg  # points at a concrete element

    def test_partial_coverage_detected(self, dev):
        raw = dev.alloc(8, np.int64, "raw", init=False)

        def half_kernel(ctx, raw):
            ctx.gstore(raw, ctx.tid, ctx.tid, active=ctx.tid < 4)

        def full_reader_kernel(ctx, raw):
            ctx.gload(raw, ctx.tid, active=None)

        _launch(dev, half_kernel, 8, raw)
        with pytest.raises(SanitizerError, match="uninit-read"):
            _launch(dev, full_reader_kernel, 8, raw)

    def test_zeroed_alloc_reads_clean(self, dev):
        buf = dev.alloc(8, np.int64, "buf")  # init=True default

        def reader_kernel(ctx, buf):
            ctx.gload(buf, ctx.tid, active=None)

        _launch(dev, reader_kernel, 8, buf)

    def test_host_staging_initializes(self, dev):
        raw = dev.alloc(8, np.int64, "raw", init=False)
        raw.data[:] = 5  # host staging marks the array initialized

        def reader_kernel(ctx, raw):
            ctx.gload(raw, ctx.tid, active=None)

        _launch(dev, reader_kernel, 8, raw)

    def test_sanitized_results_match_plain(self):
        """The deterministic-zeros guarantee: init=False changes reporting,
        never values."""
        plain, san = Device(), Device(sanitize=True)
        outs = []
        for d in (plain, san):
            src = d.to_device(np.arange(8, dtype=np.int64), "src")
            dst = d.alloc(8, np.int64, "dst", init=False)

            def copy_kernel(ctx, src, dst):
                v = ctx.gload(src, ctx.tid, active=None)
                ctx.gstore(dst, ctx.tid, v * 3, active=None)

            d.launch(copy_kernel, 8, src, dst)
            outs.append(dst.data.copy())
        assert np.array_equal(outs[0], outs[1])


class TestTeardown:
    def test_unfreed_and_never_read_reported(self, dev):
        leaked = dev.alloc(8, np.int64, "leaked")
        dead = dev.alloc(8, np.int64, "dead")

        def writer_kernel(ctx, dead):
            ctx.gstore(dead, ctx.tid, ctx.tid, active=None)

        _launch(dev, writer_kernel, 8, dead)
        dev.free(dead)
        issues = dev.sanitize_teardown()
        kinds = {(i.kind, i.array) for i in issues}
        assert ("leak-unfreed", "leaked") in kinds
        assert ("leak-never-read", "dead") in kinds
        dev.free(leaked)

    def test_strict_raises_with_issue_list(self, dev):
        dev.alloc(8, np.int64, "leaked")
        with pytest.raises(SanitizerError) as ei:
            dev.sanitize_teardown(strict=True)
        assert all(isinstance(i, SanitizerIssue) for i in ei.value.issues)
        assert any(i.kind == "leak-unfreed" for i in ei.value.issues)

    def test_clean_device_is_clean(self, dev):
        buf = dev.alloc(8, np.int64, "buf")

        def writer_kernel(ctx, buf):
            ctx.gstore(buf, ctx.tid, ctx.tid, active=None)

        _launch(dev, writer_kernel, 8, buf)
        _ = buf.data  # host readback
        dev.free(buf)
        assert dev.sanitize_teardown(strict=True) == []

    def test_mark_consumed_suppresses_never_read(self, dev):
        modeled = dev.alloc(8, np.int64, "modeled")
        modeled.mark_consumed()

        def writer_kernel(ctx, modeled):
            ctx.gstore(modeled, ctx.tid, ctx.tid, active=None)

        _launch(dev, writer_kernel, 8, modeled)
        dev.free(modeled)
        assert dev.sanitize_teardown(strict=True) == []


class TestClampVsMask:
    """The satellite fix: a clamped gather keeps out-of-range lanes live
    (wasting transactions and hiding bugs); masking them is both cheaper
    and sanitizer-clean."""

    def test_clamped_gather_reads_uninit_tail(self, dev):
        src = dev.alloc(8, np.int64, "src", init=False)

        def stage_kernel(ctx, src):
            ctx.gstore(src, ctx.tid, ctx.tid, active=ctx.tid < 6)

        def clamped_kernel(ctx, src):
            # Lanes 6..7 clamp onto the last element instead of going
            # inactive — the pattern the likelihood kernel used to have.
            idx = np.minimum(ctx.tid, src.size - 1)
            ctx.gload(src, idx, active=None)

        def masked_kernel(ctx, src):
            ctx.gload(src, ctx.tid, active=ctx.tid < 6)

        _launch(dev, stage_kernel, 8, src)
        with pytest.raises(SanitizerError, match="uninit-read"):
            _launch(dev, clamped_kernel, 8, src)
        _launch(dev, masked_kernel, 8, src)  # masked version is clean


class TestCountersMergeGuard:
    def test_mismatched_num_sms_raises(self):
        a = KernelCounters(name="k", num_sms=14)
        a.launches = 1
        a.g_load = 10
        b = KernelCounters(name="k", num_sms=16)
        b.launches = 1
        with pytest.raises(DeviceError, match="num_sms"):
            a.merge(b)

    def test_empty_accumulator_adopts_spec(self):
        a = KernelCounters(name="k", num_sms=14)
        b = KernelCounters(name="k", num_sms=16)
        b.launches = 1
        b.g_load = 4
        a.merge(b)
        assert a.num_sms == 16
        assert a.g_load == 4

    def test_empty_other_is_ignored(self):
        a = KernelCounters(name="k", num_sms=14)
        a.launches = 1
        a.merge(KernelCounters(name="k", num_sms=16))
        assert a.num_sms == 14


class TestEndToEnd:
    def test_pipeline_bitwise_identical_under_sanitizer(self, small_dataset):
        plain = GsnpPipeline(window_size=2000, mode="gpu").run(small_dataset)
        dev = Device(sanitize=True)
        san = GsnpPipeline(window_size=2000, mode="gpu", device=dev).run(
            small_dataset
        )
        assert san.table.equals(plain.table)
        assert dev.sanitize_teardown(strict=True) == []

    def test_counters_identical_under_sanitizer(self, small_dataset):
        dev_plain, dev_san = Device(), Device(sanitize=True)
        GsnpPipeline(window_size=2000, mode="gpu", device=dev_plain).run(
            small_dataset
        )
        GsnpPipeline(window_size=2000, mode="gpu", device=dev_san).run(
            small_dataset
        )
        plain_counts = {
            name: (k.launches, k.g_load, k.g_store, k.inst_warp, k.c_load)
            for name, k in dev_plain.counters.entries.items()
        }
        san_counts = {
            name: (k.launches, k.g_load, k.g_store, k.inst_warp, k.c_load)
            for name, k in dev_san.counters.entries.items()
        }
        assert plain_counts == san_counts

    def test_detector_sanitize_flag(self, small_dataset):
        from repro.core.detector import GsnpDetector

        det = GsnpDetector(engine="gsnp", window=2000, sanitize=True)
        plain = GsnpDetector(engine="gsnp", window=2000)
        assert det.run(small_dataset).table.equals(
            plain.run(small_dataset).table
        )

    def test_detector_sanitizes_sharded_serial_jobs(
        self, small_dataset, tmp_path, monkeypatch
    ):
        """A serial job with shards or a journal runs sanitized on the
        serial lane's own device, leak-checked when the scheduler
        closes."""
        from repro.core.detector import GsnpDetector
        from repro.gpusim.device import Device

        checks = []
        teardown = Device.sanitize_teardown

        def spy(self, strict=False):
            checks.append(strict)
            return teardown(self, strict=strict)

        monkeypatch.setattr(Device, "sanitize_teardown", spy)
        plain = GsnpDetector(engine="gsnp", window=1000).run(small_dataset)
        for fields in ({"shard_size": 2000}, {"journal": str(tmp_path)}):
            res = GsnpDetector(
                engine="gsnp", window=1000, sanitize=True, **fields
            ).run(small_dataset)
            assert res.extras["exec"]["n_shards"] > 1
            assert res.extras["device"].sanitizer is not None
            assert res.compressed_output == plain.compressed_output
        assert checks == [True, True]

    def test_detector_sanitize_rejects_sharded(self):
        from repro.core.detector import GsnpDetector

        # The spec is validated once, at construction.
        with pytest.raises(ValueError, match="serial"):
            GsnpDetector(engine="gsnp", workers=2, sanitize=True)
