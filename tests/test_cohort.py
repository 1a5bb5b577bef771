"""Cohort-batched multi-sample calling: parity, residency, resume.

The load-bearing invariant: every member of an S-sample cohort produces
output *bitwise identical* to its own solo serial run sharing the pooled
calibration — under any combination of fusion, worker count, device
count, sanitizer, and crash/resume schedule.  The batching is pure
amortization (one input pass, one resident table set, one sample-major
launch chain); it must never be visible in the bytes.
"""

import warnings
from dataclasses import replace

import pytest

from repro.api import JobSpec, create_pipeline
from repro.core.cohort import cohort_output_path, pooled_batch
from repro.core.detector import GsnpDetector
from repro.errors import PipelineError, ShardError
from repro.exec import execute, plan_shards
from repro.faults import DegradationWarning, FaultPlan, FaultSpec
from repro.seqsim.datasets import DatasetSpec, generate_dataset
from repro.seqsim.reads import simulate_reads
from repro.serve.runner import write_job_output

WINDOW = 512
SEED = 77

#: Cohort batching must keep launches per fused stage (near-)independent
#: of S.  The sort/likelihood/recycle stages are exactly constant; the
#: counting and codec stages carry data-sized sub-chains (tree reduce,
#: sort passes) that grow ~logarithmically with pileup volume, so the
#: per-stage launch ratio S-vs-1 is bounded well below S — an unfused
#: per-sample loop would sit at exactly S.
LAUNCH_STAGE_RATIO_BOUND = 1.5


@pytest.fixture(scope="module")
def ds():
    return generate_dataset(DatasetSpec(
        name="cohort-t", n_sites=3000, depth=8.0, coverage=0.9,
        read_len=40, seed=SEED,
    ))


@pytest.fixture(scope="module")
def batches(ds):
    """Four cohort members: the dataset's own reads plus three fresh
    sequencing runs of the same individual (distinct seeds)."""
    out = [ds.reads]
    for i in range(1, 4):
        rs = simulate_reads(
            ds.diploid, depth=8.0, coverage=0.9, read_len=40,
            seed=SEED * 7 + 3 + 1000 * i,
        )
        out.append(rs)
    return out


@pytest.fixture(scope="module")
def cals(ds, batches):
    """Pooled calibration per cohort size (deterministic: any path that
    recalibrates over the same pooled reads reproduces these exactly)."""
    out = {}
    for s in (1, 2, 4):
        pipe = create_pipeline(spec=JobSpec(engine="gsnp", window=WINDOW))
        out[s] = pipe.calibrate(ds, reads=pooled_batch(batches[:s]))
        if hasattr(pipe, "release_cache"):
            pipe.release_cache()
    return out


@pytest.fixture(scope="module")
def solo(ds, batches, cals):
    """The parity oracle: per cohort size, each sample's solo serial
    non-fused run with the pooled calibration -> (table, bytes)."""
    out = {}
    for s in (2, 4):
        runs = []
        for batch in batches[:s]:
            pipe = create_pipeline(
                spec=JobSpec(engine="gsnp", window=WINDOW, fusion=False)
            )
            res = pipe.run(ds, calibration=cals[s], reads=batch)
            if hasattr(pipe, "release_cache"):
                pipe.release_cache()
            runs.append((res.table, res.compressed_output))
        out[s] = runs
    return out


def _assert_parity(cohort_res, oracle, ctx):
    assert cohort_res.n_samples == len(oracle), ctx
    for si, (table, blob) in enumerate(oracle):
        sres = cohort_res.samples[si]
        assert sres.table.equals(table), (ctx, si)
        assert sres.compressed_output == blob, (ctx, si)


class TestBitwiseParity:
    def test_multidevice_cohort_matches_solo_runs(self, ds, batches, solo):
        self._check_multidevice_cohort(ds, batches, solo, dying=())

    @pytest.mark.parametrize("dying", [(1,), (0, 1)])
    def test_multidevice_cohort_survives_device_death(
        self, dying, ds, batches, solo
    ):
        self._check_multidevice_cohort(ds, batches, solo, dying)

    def _check_multidevice_cohort(self, ds, batches, solo, dying):
        """A sanitized cohort on pool lanes stepped in modeled-clock
        order, with the ``dying`` devices failing under it."""
        plan = FaultPlan(tuple(
            FaultSpec(site="gpusim.device.fail", key=k, kind="alloc",
                      after=k)
            for k in dying
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            res = execute(
                ds,
                spec=JobSpec(
                    engine="gsnp", window=WINDOW, fusion=True, devices=2,
                    sanitize=True, faults=plan,
                ),
                sample_reads=batches[:4],
            )
        _assert_parity(res, solo[4], ("devices=2", dying))
        lanes = res.extras["exec"]["hetero"]["lanes"]
        assert [l["lane"] for l in lanes if l["dead"]] \
            == [f"gpu{k}" for k in dying]
        assert max(l["wall"] for l in lanes) > 0

    @pytest.mark.parametrize("lanes,pool", [
        ({"workers": 2}, "process"),  # real worker-process lanes
        ({"workers": 2, "devices": 2}, "hetero"),  # pool lanes: workers ignored
    ])
    def test_cohort_on_concurrent_lanes_matches_solo_runs(
        self, lanes, pool, ds, batches, solo
    ):
        res = execute(
            ds,
            spec=JobSpec(
                engine="gsnp", window=WINDOW, fusion=True, shard_size=1024,
                **lanes,
            ),
            sample_reads=batches[:2],
        )
        assert res.extras["exec"]["pool"] == pool
        _assert_parity(res, solo[2], lanes)

    def test_sanitized_cohort_matches_solo_runs(self, ds, batches, solo):
        det = GsnpDetector(
            engine="gsnp", window=WINDOW, fusion=True, sanitize=True,
        )
        det.sample_batches = batches[:4]
        res = det.run(ds)
        _assert_parity(res, solo[4], "sanitize")

    def test_output_files_per_sample(self, ds, batches, solo, tmp_path):
        out = tmp_path / "cohort.cns"
        det = GsnpDetector(engine="gsnp", window=WINDOW, fusion=True,
                           output=str(out), compressed=True)
        det.sample_batches = batches[:4]
        write_job_output(det.run(ds), det.spec)
        paths = [cohort_output_path(out, i) for i in range(4)]
        assert sorted(tmp_path.iterdir()) == sorted(paths)
        assert paths[0] == out
        assert paths[2].name == "cohort.cns.s2"
        for si, (_, blob) in enumerate(solo[4]):
            assert paths[si].read_bytes() == blob, si


class TestAmortization:
    def test_fused_cohort_amortizes_modeled_cost(self, ds, batches, cals):
        """S=4 fused against S=1 on the modeled clock (exact, so a tier-1
        assertion): one input pass, one calibration, one resident table
        set and one launch chain per megabatch make the per-sample cost
        fall, while launches per fused stage stay bounded instead of
        scaling with S.  The per-stage bound is what guards against a
        launcher called inside a per-sample loop: such a loop makes every
        stage's launches grow with S (``test_fusion.py`` holds the same
        bound for windows per megabatch)."""
        per_sample, stages = {}, {}
        for s in (1, 4):
            pipe = create_pipeline(
                spec=JobSpec(engine="gsnp", window=WINDOW, fusion=True)
            )
            res = pipe.run_cohort(ds, batches[:s], calibration=cals[s])
            pipe.release_cache()
            total = cals[s].record.modeled_time() + res.profile.total_modeled()
            per_sample[s] = total / s
            stages[s] = {
                k: int(v["launches"])
                for k, v in res.extras["fusion"]["stages"].items()
            }
        assert per_sample[1] / per_sample[4] >= 1.5
        assert stages[4].keys() == stages[1].keys()
        for stage, launches in stages[4].items():
            assert launches / stages[1][stage] <= LAUNCH_STAGE_RATIO_BOUND, (
                stage
            )


class TestResidency:
    def test_cohort_uploads_tables_once(self, ds, batches, cals):
        """Satellite regression: an S=4 fused cohort run performs exactly
        one score-table upload — the residency key is the calibration
        fingerprint, never the sample."""
        pipe = create_pipeline(
            spec=JobSpec(engine="gsnp", window=WINDOW, fusion=True)
        )
        res = pipe.run_cohort(ds, batches[:4], calibration=cals[4])
        device = res.extras["device"]
        assert device is not None
        assert device.resident.misses == 1
        # A second cohort run with the same calibration re-uses the
        # resident set: still one upload ever.
        pipe.run_cohort(ds, batches[:4], calibration=cals[4])
        assert device.resident.misses == 1
        assert device.resident.hits >= 1
        pipe.release_cache()

    def test_solo_runs_share_pooled_tables(self, ds, batches, cals):
        """Four solo runs under one pooled calibration hit the same
        resident entry: the cache key is sample-independent."""
        pipe = create_pipeline(
            spec=JobSpec(engine="gsnp", window=WINDOW)
        )
        for batch in batches[:4]:
            res = pipe.run(ds, calibration=cals[4], reads=batch)
        device = res.extras["device"]
        assert device.resident.misses == 1
        assert device.resident.hits == 3
        pipe.release_cache()


class TestCrashResume:
    def test_crashed_shard_resumes_to_identical_bytes(
        self, ds, batches, solo, tmp_path, monkeypatch
    ):
        from repro.exec import executor

        monkeypatch.setattr(executor, "MAX_RETRIES", 0)
        shards = plan_shards(ds.n_sites, WINDOW, 1024, 2)
        poison = FaultPlan([
            FaultSpec(site="exec.shard.error", key=len(shards) - 1,
                      times=99),
        ])
        out = tmp_path / "cohort.cns"
        jdir = tmp_path / "journal"
        base = JobSpec(
            engine="gsnp", window=WINDOW, fusion=True, shard_size=1024,
            journal=str(jdir), output=str(out), compressed=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with pytest.raises(ShardError):
                write_job_output(execute(
                    ds, spec=replace(base, faults=poison),
                    sample_reads=batches[:2],
                ), base)
            assert not out.exists()  # crash-safe: no partial file
            committed = len(list(jdir.rglob("shard-*.pkl")))
            assert committed > 0
            res = execute(
                ds, spec=replace(base, resume=True),
                sample_reads=batches[:2],
            )
            write_job_output(res, base)
        assert res.extras["exec"]["resumed"] == committed
        for si, (_, blob) in enumerate(solo[2]):
            assert cohort_output_path(out, si).read_bytes() == blob, si

    @pytest.mark.parametrize("order", [(1, 0), (0,)],
                             ids=["reordered", "solo"])
    def test_resume_as_another_cohort_recomputes(
        self, ds, batches, tmp_path, monkeypatch, order
    ):
        """The journal of cohort (A, B) is spliced neither into (B, A) —
        the pooled calibration does not depend on read order — nor into
        A alone."""
        from repro.exec import executor

        monkeypatch.setattr(executor, "MAX_RETRIES", 0)
        last = len(plan_shards(ds.n_sites, WINDOW, 1024, 1)) - 1
        poison = FaultPlan([
            FaultSpec(site="exec.shard.error", key=last, times=99),
        ])
        jdir = tmp_path / "journal"
        base = JobSpec(engine="gsnp", window=WINDOW, shard_size=1024)
        journaled = replace(base, journal=str(jdir))
        resumed = [batches[i] for i in order]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with pytest.raises(ShardError):
                execute(ds, spec=replace(journaled, faults=poison),
                        sample_reads=batches[:2])
            assert len(list(jdir.rglob("shard-*.pkl"))) == last
            res = execute(ds, spec=replace(journaled, resume=True),
                          sample_reads=resumed)
        fresh = execute(ds, spec=base, sample_reads=resumed)
        assert res.extras["exec"]["resumed"] == 0
        for si in range(len(order)):
            assert res.samples[si].compressed_output \
                == fresh.samples[si].compressed_output, si


class TestSpecAndHelpers:
    def test_jobspec_samples_round_trips_on_the_wire(self):
        spec = JobSpec(engine="gsnp", samples=["a.soap", "b.soap"])
        assert spec.samples == ("a.soap", "b.soap")
        assert spec.is_cohort and spec.n_samples == 3
        back = JobSpec.from_wire(spec.to_wire())
        assert back.samples == spec.samples

    def test_cohort_requires_gsnp_engine(self):
        with pytest.raises(ValueError, match="cohort"):
            JobSpec(engine="soapsnp", samples=("a.soap",)).validate()

    def test_pooled_batch_rejects_mixed_read_lengths(self, ds):
        a = ds.reads
        b = simulate_reads(
            ds.diploid, depth=2.0, coverage=0.5, read_len=36, seed=9,
        )
        with pytest.raises(PipelineError, match="read length"):
            pooled_batch([a, b])
        with pytest.raises(PipelineError, match="at least one"):
            pooled_batch([])

    def test_pooled_batch_is_position_sorted(self, batches):
        import numpy as np

        pooled = pooled_batch(batches[:4])
        assert pooled.n_reads == sum(b.n_reads for b in batches[:4])
        assert np.all(np.diff(pooled.pos) >= 0)

    def test_empty_cohort_rejected(self, ds):
        pipe = create_pipeline(spec=JobSpec(engine="gsnp", window=WINDOW))
        with pytest.raises(PipelineError, match="at least one"):
            pipe.run_cohort(ds, [])
