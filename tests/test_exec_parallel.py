"""Sharded parallel executor: planning, parity, retries, fallback.

The load-bearing guarantee (ISSUE acceptance): at any worker count, the
sharded executor's calls, compressed output and merged event counters are
identical to a serial run's — for all three engines.
"""

import pytest

from repro.api import Engine, JobSpec, create_pipeline
from repro.core.detector import GsnpDetector
from repro.errors import PipelineError, ShardError
from repro.exec import align_shard_size, execute, plan_shards
from repro.faults import DegradationWarning, FaultPlan, FaultSpec
from repro.formats.cns import format_rows
from repro.serve.runner import write_job_output

WINDOW = 512
ENGINES = ("gsnp", "gsnp_cpu", "soapsnp")


def _counters(profile):
    """Event counters of a profile, excluding measured wall seconds."""
    out = {}
    for name, rec in profile.records.items():
        gpu = rec.gpu.as_dict() if hasattr(rec.gpu, "as_dict") else vars(rec.gpu)
        out[name] = {
            "cpu": dict(vars(rec.cpu)),
            "disk": dict(vars(rec.disk)),
            "gpu": dict(gpu),
            "transfer_bytes": rec.transfer_bytes,
            "fixed_seconds": rec.fixed_seconds,
        }
    return out


def _serial(engine, dataset, **toggles):
    """A whole-job pipeline run: the serial oracle."""
    pipe = create_pipeline(
        spec=JobSpec(engine=engine, window=WINDOW, **toggles)
    )
    return pipe.run(dataset)


def _serial_bytes(engine, result) -> bytes:
    """The file bytes a serial result stands for."""
    if engine == "soapsnp":
        return format_rows(result.table)
    return result.compressed_output


def _execute(dataset, engine, output=None, **kw):
    """``execute`` with the JobSpec fields in ``kw``; with ``output``, the
    engine's own bytes (``_serial_bytes``) are written there."""
    spec = JobSpec(
        engine=engine, window=WINDOW, compressed=engine != "soapsnp",
        output=str(output) if output else None, **kw,
    )
    result = execute(dataset, spec=spec)
    write_job_output(result, spec)
    return result


def _fail(shard: int, times: int) -> FaultPlan:
    """A plan failing ``shard``'s first ``times`` attempts."""
    return FaultPlan(
        (FaultSpec(site="exec.shard.error", key=shard, times=times),)
    )


#: gsnp *event counters* are compared on the per-window oracle: a sharded
#: fused run and a serial fused run cut megabatches at different window
#: boundaries, so their launch counts legitimately differ.  Result bytes
#: are compared on the default (fused) path.
PER_WINDOW = {"fusion": False}


class TestPlanShards:
    def test_tiles_site_range(self):
        shards = plan_shards(10_000, 512, shard_size=2000, workers=2)
        assert shards[0].start == 0
        assert shards[-1].end == 10_000
        for prev, cur in zip(shards, shards[1:]):
            assert cur.start == prev.end
            assert cur.index == prev.index + 1

    def test_boundaries_window_aligned(self):
        shards = plan_shards(10_000, 512, shard_size=1000, workers=2)
        for s in shards[:-1]:
            assert s.start % 512 == 0 and s.end % 512 == 0

    def test_default_size_scales_with_workers(self):
        few = plan_shards(100_000, 512, workers=1)
        many = plan_shards(100_000, 512, workers=4)
        assert len(many) > len(few)
        assert len(few) >= 4  # ~4 shards per worker for load balancing

    def test_align_shard_size(self):
        assert align_shard_size(1000, 512) == 1024
        assert align_shard_size(512, 512) == 512
        with pytest.raises(PipelineError):
            align_shard_size(0, 512)

    def test_empty_range_rejected(self):
        with pytest.raises(PipelineError):
            plan_shards(0, 512)


class TestParity:
    """Bitwise identity with serial, all engines, 2 and 4 workers."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_identical(
        self, engine, workers, small_dataset, tmp_path
    ):
        par_path = tmp_path / "par.out"
        serial = _serial(engine, small_dataset)
        par = _execute(
            small_dataset, engine, output=par_path, workers=workers
        )
        assert par.table.equals(serial.table)
        assert getattr(par, "compressed_output", b"") == getattr(
            serial, "compressed_output", b""
        )
        assert par_path.read_bytes() == _serial_bytes(engine, serial)
        assert par.output_bytes == serial.output_bytes
        if engine == "gsnp":
            serial = _serial(engine, small_dataset, **PER_WINDOW)
            par = _execute(
                small_dataset, engine, workers=workers, **PER_WINDOW
            )
        assert _counters(par.profile) == _counters(serial.profile)

    def test_compressed_roundtrip(self, small_dataset, tmp_path):
        from repro.compress.reader import CompressedResultReader

        path = tmp_path / "calls.gsnp"
        par = _execute(small_dataset, "gsnp", output=path, workers=2)
        table = CompressedResultReader(path).read_all()
        assert table.equals(par.table)

    def test_serial_fallback_identical(self, small_dataset, monkeypatch):
        """A 4-worker job on a platform without multiprocessing runs its
        shards on the serial lane (the ``pool-serial-fallback`` rung)."""
        import repro.exec.executor as executor

        def broken(self, lane):
            raise OSError("no semaphores on this platform")

        monkeypatch.setattr(executor._Scheduler, "_start_worker", broken)
        serial = _serial("gsnp_cpu", small_dataset)
        with pytest.warns(DegradationWarning, match="pool-serial-fallback"):
            par = _execute(small_dataset, "gsnp_cpu", workers=4)
        assert par.extras["exec"]["pool"] == "serial"
        assert par.extras["exec"]["n_shards"] > 1
        assert par.table.equals(serial.table)
        assert _counters(par.profile) == _counters(serial.profile)

    def test_engine_enum_accepted(self, small_dataset):
        par = _execute(small_dataset, Engine.GSNP_CPU, workers=2)
        assert par.table.equals(_serial("gsnp_cpu", small_dataset).table)

    def test_detector_workers_path(self, small_dataset):
        serial = GsnpDetector(
            engine="gsnp", window=WINDOW
        ).run(small_dataset)
        par = GsnpDetector(
            engine="gsnp", window=WINDOW, workers=2
        ).run(small_dataset)
        assert par.table.equals(serial.table)
        assert par.compressed_output == serial.compressed_output
        assert "exec" in par.extras

    def test_shard_metrics_reported(self, small_dataset):
        par = _execute(
            small_dataset, "gsnp_cpu", workers=2, shard_size=1024
        )
        shards = par.extras["shards"]
        assert len(shards) == 4  # 4000 sites / 1024-aligned shards
        assert [s["index"] for s in shards] == [0, 1, 2, 3]
        assert all(s["wall"] > 0 for s in shards)
        assert all(s["sites_per_second"] > 0 for s in shards)
        meta = par.extras["exec"]
        assert meta["workers"] == 2
        assert meta["n_shards"] == 4
        assert meta["wall"] > 0


class TestRetries:
    def test_injected_failure_retried(self, small_dataset):
        serial = _serial("gsnp_cpu", small_dataset)
        par = _execute(
            small_dataset, "gsnp_cpu", workers=2, shard_size=1024,
            faults=_fail(1, 1),
        )
        assert par.table.equals(serial.table)
        assert _counters(par.profile) == _counters(serial.profile)
        attempts = {
            s["index"]: s["attempts"] for s in par.extras["shards"]
        }
        assert attempts[1] == 2  # failed once, succeeded on retry
        assert attempts[0] == 1
        assert par.extras["exec"]["retries"] == 1

    def test_exhausted_retries_surface_shard_context(
        self, small_dataset, monkeypatch
    ):
        from repro.exec import executor

        monkeypatch.setattr(executor, "MAX_RETRIES", 1)
        with pytest.raises(ShardError) as err:
            _execute(
                small_dataset, "gsnp_cpu", workers=2, shard_size=1024,
                faults=_fail(2, 10),
            )
        assert err.value.shard_index == 2
        assert err.value.site_range == (2048, 3072)
        assert err.value.attempts == 2
        assert "shard 2" in str(err.value)

    def test_retry_in_serial_pool(self, small_dataset):
        par = _execute(
            small_dataset, "gsnp_cpu", workers=1, shard_size=1024,
            faults=_fail(0, 2),
        )
        serial = _serial("gsnp_cpu", small_dataset)
        assert par.table.equals(serial.table)
        attempts = {
            s["index"]: s["attempts"] for s in par.extras["shards"]
        }
        assert attempts[0] == 3
