"""gsnp-serve and the JobSpec API: parity, caching, quotas, recovery.

The load-bearing guarantees (ISSUE acceptance):

* jobs served by the resident daemon — including concurrent ones — are
  bitwise identical to a one-shot ``gsnp call`` over the same inputs;
* a repeated job hits the cross-job caches (the calibration store and
  device score-table residency), visible in ``/stats``;
* per-tenant admission quotas reject at submit time;
* a daemon killed mid-job resumes it on restart from the ledger + shard
  journal and still produces bitwise-identical output;
* :class:`repro.api.JobSpec` round-trips CLI args -> spec -> wire ->
  spec and is the only spelling of a job: ``validate`` rejects every
  incoherent field at admission, and a loose ``create_pipeline`` engine
  name or config keyword is a ``TypeError``.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import JobSpec, create_pipeline
from repro.cli import main_call
from repro.exec import execute
from repro.faults.plan import FaultPlan, FaultSpec
from repro.serve import (
    GsnpServer,
    ServeClient,
    ServeConfig,
    wait_for_server,
)
from repro.serve.protocol import MAX_MESSAGE_BYTES

WINDOW = 400
SITES = 1200


@pytest.fixture(scope="module")
def serve_inputs():
    """Simulated input files, plus one-shot CLI reference bytes."""
    root = Path(tempfile.mkdtemp(prefix="gsnp-serve-test-"))
    from repro.formats.fasta import write_fasta
    from repro.formats.prior import write_prior
    from repro.formats.soap import write_soap
    from repro.seqsim.datasets import DatasetSpec, generate_dataset

    ds = generate_dataset(DatasetSpec(
        name="chrServe", n_sites=SITES, depth=8.0, coverage=0.9,
        read_len=60, seed=11,
    ))
    fasta, soap, prior = (
        str(root / "d.fa"), str(root / "d.soap"), str(root / "d.prior")
    )
    write_fasta(fasta, [ds.reference])
    write_soap(soap, ds.reads)
    write_prior(prior, ds.reference.name, ds.prior)
    ref = root / "ref.cns"
    assert main_call([
        fasta, soap, "--prior", prior,
        "--window", str(WINDOW), "-o", str(ref),
    ]) == 0
    yield {
        "root": root, "fasta": fasta, "soap": soap, "prior": prior,
        "ref_bytes": ref.read_bytes(),
    }
    shutil.rmtree(root, ignore_errors=True)


def _spec(inputs, output=None, **kwargs) -> JobSpec:
    return JobSpec(
        fasta=inputs["fasta"], soap=inputs["soap"], prior=inputs["prior"],
        window=WINDOW, output=output, **kwargs,
    )


@pytest.fixture
def server_factory():
    """Build in-process daemons on short temp sockets; cleans up after."""
    servers, dirs = [], []

    def make(**overrides):
        root = Path(tempfile.mkdtemp(prefix="gsnp-srv-"))
        dirs.append(root)
        cfg = dict(
            socket_path=str(root / "s.sock"),
            state_dir=str(root / "state"),
            workers=1,
            max_queued=16,
        )
        cfg.update(overrides)
        server = GsnpServer(ServeConfig(**cfg))
        server.start()
        assert wait_for_server(cfg["socket_path"], timeout=10.0)
        servers.append(server)
        return server, ServeClient(cfg["socket_path"])

    yield make
    for server in servers:
        server.shutdown(drain=False)
        server.close()
    for root in dirs:
        shutil.rmtree(root, ignore_errors=True)


class TestJobSpecApi:
    def test_cli_to_spec_to_wire_roundtrip(self):
        p = argparse.ArgumentParser()
        JobSpec.add_cli_args(p)
        args = p.parse_args([
            "a.fa", "a.soap", "--prior", "a.prior", "--engine", "gsnp_cpu",
            "--window", "1000", "--workers", "3", "--shard-size", "500",
            "--fusion",
            "--compressed", "--min-quality", "20", "--variant", "optimized",
        ])
        spec = JobSpec.from_cli_args(args)
        assert spec.engine == "gsnp_cpu"
        assert spec.window == 1000
        assert spec.workers == 3 and spec.shard_size == 500
        assert spec.fusion is True
        assert spec.compressed is True and spec.min_quality == 20
        assert JobSpec.from_wire(spec.to_wire()) == spec

    def test_wire_faults_roundtrip(self):
        plan = FaultPlan(
            (FaultSpec(site="exec.shard.slow", kind="slow", key=1,
                       times=2, arg=0.5),),
            seed=7,
        )
        spec = JobSpec(fasta="a", soap="b", faults=plan)
        back = JobSpec.from_wire(spec.to_wire())
        # FaultPlan has no __eq__; compare the wire forms and contents.
        assert back.to_wire() == spec.to_wire()
        assert back.faults.specs == plan.specs
        assert back.faults.seed == plan.seed

    def test_wire_rejects_unknown_fields_and_versions(self):
        wire = JobSpec().to_wire()
        with pytest.raises(ValueError, match="unknown JobSpec field"):
            JobSpec.from_wire({**wire, "windw": 5})
        with pytest.raises(ValueError, match="wire version"):
            JobSpec.from_wire({**wire, "version": 99})

    def test_validate_rejects_incoherent_specs(self):
        with pytest.raises(ValueError, match="journal"):
            JobSpec(resume=True).validate()
        with pytest.raises(ValueError, match="sanitize"):
            JobSpec(sanitize=True, workers=2).validate()
        with pytest.raises(ValueError, match="workers"):
            JobSpec(workers=0).validate()
        with pytest.raises(ValueError, match="inputs"):
            JobSpec().validate(require_inputs=True)

    @pytest.mark.parametrize("wire, match", [
        ({"window": 0}, "window must be >= 1"),
        ({"window": 0, "workers": 2}, "window must be >= 1"),
        ({"shard_size": 0}, "shard_size must be >= 1"),
        ({"megabatch": 4}, "unknown JobSpec field"),
        ({"window": "abc"}, "window must be an integer"),
        ({"workers": "2", "sanitize": True}, "workers must be an integer"),
        ({"shard_timeout": 0, "workers": 2}, "shard_timeout"),
        ({"shard_timeout": "soon"}, "shard_timeout"),
        ({"fusion": "false"}, "fusion must be a bool"),
        ({"sanitize": "false"}, "sanitize must be a bool"),
        ({"cpu_steal": "no"}, "cpu_steal must be a bool"),
        ({"compressed": 1}, "compressed must be a bool"),
        ({"resume": "yes"}, "resume must be a bool"),
        ({"min_quality": "abc"}, "min_quality must be an integer"),
        ({"min_quality": True}, "min_quality must be an integer"),
        ({"min_quality": -1}, "min_quality must be >= 0"),
        ({"cache": False}, "unknown JobSpec field"),
        ({"prefetch": True}, "unknown JobSpec field"),
    ])
    def test_validate_rejects_out_of_range_fields(self, wire, match):
        with pytest.raises(ValueError, match=match):
            JobSpec.from_wire(wire).validate()

    def test_samples_is_a_tuple_of_paths_or_a_value_error(self):
        assert JobSpec(samples="a.soap").samples == ("a.soap",)
        assert JobSpec(samples=["a.soap", "b.soap"]).samples == (
            "a.soap", "b.soap",
        )
        assert JobSpec(samples=None).samples == ()
        with pytest.raises(ValueError, match="samples"):
            JobSpec.from_wire({"samples": 5})

    def test_normalized_gives_serial_journal_shards(
        self, small_dataset, tmp_path
    ):
        """A serial job is one shard; journaled, one megabatch of windows
        per shard."""
        def n_shards(**fields):
            spec = JobSpec(engine="gsnp_cpu", **fields)
            return execute(small_dataset, spec=spec).extras["exec"]["n_shards"]

        # 4000 sites: 16 windows of 128 per shard -> ceil(4000 / 2048)
        assert n_shards(window=128, journal=str(tmp_path / "j")) == 2
        assert n_shards(window=512, journal=str(tmp_path / "k")) == 1
        assert n_shards(window=128) == 1


def _events(profile) -> dict:
    """Per-phase records with the measured wall clock blanked."""
    return {k: replace(r, wall=0.0) for k, r in profile.records.items()}


class TestJournaledShards:
    """A journal checkpoints every ``MEGABATCH_WINDOWS`` windows, where a
    whole-job run cuts its megabatches anyway: journaling (and so every
    served job) keeps the whole job's launch chain and event book."""

    def test_journaled_serial_job_keeps_the_whole_job_event_book(
        self, small_dataset, tmp_path
    ):
        spec = JobSpec(window=128)  # 4000 sites: 32 windows, two shards
        whole = execute(small_dataset, spec=spec)
        journaled = execute(
            small_dataset, spec=replace(spec, journal=str(tmp_path / "j"))
        )
        assert whole.extras["exec"]["n_shards"] == 1
        assert journaled.extras["exec"]["n_shards"] == 2
        assert _events(journaled.profile) == _events(whole.profile)
        assert journaled.compressed_output == whole.compressed_output

    def test_serve_job_keeps_the_call_jobs_event_book(
        self, serve_inputs, tmp_path, monkeypatch
    ):
        from repro.serve import runner as runner_mod
        from repro.serve.scheduler import Job

        real, seen = runner_mod.execute, []

        def spy(dataset, **kwargs):
            seen.append((dataset, kwargs["spec"], real(dataset, **kwargs)))
            return seen[-1][2]

        monkeypatch.setattr(runner_mod, "execute", spy)
        # 1200 sites at window 64: 19 windows, two journaled shards.
        spec = replace(_spec(serve_inputs), window=64)
        runner = runner_mod.ResidentRunner(tmp_path / "state")
        with runner.pipelines() as pipelines:
            runner.run_job(Job("job-1", spec), pipelines)
        (dataset, run_spec, served), = seen
        assert run_spec.journal is not None
        assert served.extras["exec"]["n_shards"] == 2
        call = execute(dataset, spec=spec)
        assert call.extras["exec"]["n_shards"] == 1
        assert _events(served.profile) == _events(call.profile)
        assert served.compressed_output == call.compressed_output


class TestDeprecationShim:
    """The shim is gone: ``create_pipeline`` takes a JobSpec and nothing
    else about the job."""

    def test_loose_engine_and_kwargs_are_type_errors(self):
        with pytest.raises(TypeError):
            create_pipeline("gsnp", window_size=512)
        with pytest.raises(TypeError):
            create_pipeline(spec=JobSpec(), fusion=True)
        with pytest.raises(TypeError, match="takes a JobSpec"):
            create_pipeline("gsnp")


class TestServeParity:
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_concurrent_jobs_match_one_shot_cli(
        self, serve_inputs, server_factory, n_jobs
    ):
        server, client = server_factory(workers=max(2, n_jobs))
        root = serve_inputs["root"]
        outs = [root / f"par-{n_jobs}-{i}.cns" for i in range(n_jobs)]
        results = [None] * n_jobs

        def run(i):
            results[i] = client.submit(
                _spec(serve_inputs, output=str(outs[i])), tenant=f"t{i}"
            )

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(n_jobs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        for i, r in enumerate(results):
            assert r is not None and r.status == "done", (i, r and r.error)
            assert outs[i].read_bytes() == serve_inputs["ref_bytes"]

    def test_inline_job_streams_identical_bytes(
        self, serve_inputs, server_factory
    ):
        server, client = server_factory()
        r = client.submit(_spec(serve_inputs))
        assert r.status == "done"
        assert r.output == serve_inputs["ref_bytes"]
        assert "sites" in r.summary


class TestResidentCaches:
    def test_repeated_job_hits_calibration_and_tables(
        self, serve_inputs, server_factory
    ):
        server, client = server_factory(workers=1)
        out = serve_inputs["root"] / "cache.cns"
        first = client.submit(_spec(serve_inputs, output=str(out)))
        assert first.status == "done"
        stats0 = client.stats()
        second = client.submit(_spec(serve_inputs, output=str(out)))
        assert second.status == "done"
        stats1 = client.stats()
        cal0 = stats0["runner"]["calibration"]
        cal1 = stats1["runner"]["calibration"]
        assert cal1["hits"] > cal0["hits"]
        assert cal1["misses"] == cal0["misses"]
        assert stats1["runner"]["datasets"]["hits"] > 0
        # Same worker thread, same resident pipeline: the repeat job's
        # score-table upload is a residency hit, not a re-upload.
        assert (
            stats1["resident"]["table_hits"]
            > stats0["resident"]["table_hits"]
        )
        assert stats1["resident"]["pipelines"] == 1
        assert out.read_bytes() == serve_inputs["ref_bytes"]
        # The server owns its workers' pipelines: closing releases them.
        server.shutdown(drain=True)
        server.close()
        assert server.stats()["resident"]["pipelines"] == 0

    def test_cohort_jobs_share_parsed_inputs_and_key_sample_order(
        self, serve_inputs, tmp_path
    ):
        """Cohort jobs reuse the solo job's parsed dataset and parse each
        sample file once, but cohorts (A, B) and (B, A) are two
        calibration entries; each job's bytes are the ``gsnp call``
        job's."""
        from repro.core.cohort import cohort_output_path
        from repro.formats.soap import write_soap
        from repro.seqsim.datasets import DatasetSpec, generate_dataset
        from repro.serve.runner import ResidentRunner

        a, b = str(tmp_path / "a.soap"), str(tmp_path / "b.soap")
        for path, seed in ((a, 12), (b, 13)):
            write_soap(path, generate_dataset(
                DatasetSpec(name="chrServe", n_sites=SITES, depth=4.0,
                            coverage=0.9, read_len=60, seed=seed),
            ).reads)
        runner = ResidentRunner(tmp_path / "state")
        with runner.pipelines() as pipelines:
            outcomes = [
                runner.run_job(types.SimpleNamespace(
                    spec=_spec(serve_inputs, samples=samples),
                    job_id=f"job{i}", recovered=False,
                ), pipelines)
                for i, samples in enumerate(((), (a, b), (b, a), (a, b)))
            ]
        assert outcomes[0].blob == serve_inputs["ref_bytes"]
        out = tmp_path / "call.cns"
        assert main_call([
            serve_inputs["fasta"], serve_inputs["soap"], "--prior",
            serve_inputs["prior"], "--window", str(WINDOW), "-o", str(out),
            "--samples", b, a,
        ]) == 0
        assert outcomes[2].blob == b"".join(
            cohort_output_path(out, i).read_bytes() for i in range(3))
        assert outcomes[3].blob == outcomes[1].blob != outcomes[2].blob
        stats = runner.stats()["runner"]
        assert (stats["datasets"]["misses"], stats["datasets"]["hits"]) \
            == (3, 7)
        assert (stats["calibration"]["misses"], stats["calibration"]["hits"]) \
            == (3, 1)

    def test_calibration_entry_of_another_store_version_is_a_miss(
        self, tmp_path
    ):
        """A stored calibration of another store version (a daemon
        upgraded mid-job finds such entries) or a torn one is a miss."""
        import pickle

        from repro.faults.journal import seal, unseal
        from repro.serve.runner import (
            CALIBRATION_STORE_VERSION,
            CalibrationCache,
        )

        CalibrationCache(tmp_path).put("key", ["calibration"])
        assert CalibrationCache(tmp_path).get("key") == ["calibration"]
        (path,) = tmp_path.glob("*.pkl")
        version, calibration = pickle.loads(unseal(path.read_bytes()))
        assert version == CALIBRATION_STORE_VERSION
        for raw in (seal(pickle.dumps((version - 1, calibration))),
                    seal(pickle.dumps(calibration)),  # version 1's layout
                    b"torn garbage, no digest header"):
            path.write_bytes(raw)
            cache = CalibrationCache(tmp_path)
            assert cache.get("key") is None
            assert cache.stats()["misses"] == 1

    def test_calibration_memory_is_bounded_and_evicts_to_disk(
        self, tmp_path
    ):
        """The memory layer holds at most ``max_entries`` calibrations, least
        recently used out first; the disk layer keeps all of them, so an
        evicted key comes back as a disk hit."""
        from repro.serve.runner import CalibrationCache

        cache = CalibrationCache(tmp_path, max_entries=4)
        for i in range(6):
            cache.put(f"key{i}", [f"calibration {i}"])
        assert cache.stats()["entries"] == 4
        assert cache.get("key0") == ["calibration 0"]
        assert cache.get("key5") == ["calibration 5"]
        stats = cache.stats()
        assert (stats["hits_disk"], stats["hits_memory"], stats["misses"]) \
            == (1, 1, 0)
        assert stats["entries"] == 4

    def test_runner_bounds_calibrations_by_max_datasets(self, tmp_path):
        from repro.serve.runner import ResidentRunner

        assert ResidentRunner(tmp_path, max_datasets=3) \
            .calibrations.max_entries == 3

    def test_calibration_entry_of_an_older_build_is_a_miss(
        self, tmp_path, stale_class
    ):
        """A stored calibration whose pickled classes this build no longer
        has (a restarted daemon of a newer build) is recomputed."""
        from repro.serve.runner import CalibrationCache

        payload, gone = stale_class
        CalibrationCache(tmp_path).put("key", payload())
        assert isinstance(CalibrationCache(tmp_path).get("key"), payload)
        gone()
        cache = CalibrationCache(tmp_path)
        assert cache.get("key") is None
        assert cache.stats()["misses"] == 1

    def test_worker_holds_one_pipeline_and_one_table_set(self, tmp_path):
        """A worker's resident state does not grow with what it serves:
        six datasets and two job shapes (two windows) leave one pipeline,
        one resident table set and the first job's device bytes.  A job
        that changes only ``min_quality`` (byte-invariant) reuses the
        pipeline and its uploaded tables."""
        from repro.formats.fasta import write_fasta
        from repro.formats.soap import write_soap
        from repro.seqsim.datasets import DatasetSpec, generate_dataset
        from repro.serve.runner import ResidentRunner

        jobs = []
        for i in range(6):
            ds = generate_dataset(DatasetSpec(
                name="chrServe", n_sites=SITES, depth=4.0, coverage=0.9,
                read_len=60, seed=100 + i,
            ))
            fasta, soap = tmp_path / f"d{i}.fa", tmp_path / f"d{i}.soap"
            write_fasta(str(fasta), [ds.reference])
            write_soap(str(soap), ds.reads)
            jobs.append(JobSpec(fasta=str(fasta), soap=str(soap),
                                window=(WINDOW, 2 * WINDOW)[i % 2]))
        jobs.append(replace(jobs[-1], min_quality=30))
        runner = ResidentRunner(tmp_path / "state", max_datasets=2)
        seen = []
        with runner.pipelines() as pipelines:
            for i, spec in enumerate(jobs):
                runner.run_job(types.SimpleNamespace(
                    spec=spec, job_id=f"job{i}", recovered=False,
                ), pipelines)
                (pipe,) = pipelines.values()
                device = pipe._cached_device
                seen.append((pipe, device.resident.hits,
                             len(device.resident), device.global_used))
            assert runner.stats()["resident"]["pipelines"] == 1
        assert {(n, used) for *_, n, used in seen} == {(1, seen[0][3])}
        assert seen[-1][0] is seen[-2][0]
        assert seen[-1][1] == seen[-2][1] + 1

    def test_serial_lane_runs_on_the_callers_thread(
        self, small_dataset, monkeypatch
    ):
        """A resident pipeline's device belongs to the thread that owns
        the caller's dict, so the serial lane must run where ``execute``
        was called: no lane thread, one dict entry however many jobs, and
        the repeat job's tables are a hit."""
        from repro.core.pipeline import GsnpPipeline

        seen = []
        run = GsnpPipeline.run

        def spying_run(self, *args, **kwargs):
            seen.append((threading.get_ident(), threading.active_count()))
            return run(self, *args, **kwargs)

        monkeypatch.setattr(GsnpPipeline, "run", spying_run)
        spec = JobSpec(engine="gsnp", window=512, workers=2)
        n_threads = threading.active_count()
        pipelines = {}
        execute(small_dataset, spec=spec, resident=pipelines)
        (pipe,) = pipelines.values()
        tables = pipe._cached_device.resident
        hits0 = tables.hits
        try:
            execute(small_dataset, spec=spec, resident=pipelines)
        finally:
            pipe.release_cache()
        assert set(seen) == {(threading.get_ident(), n_threads)}
        assert list(pipelines.values()) == [pipe]
        assert tables.hits > hits0


class TestAdmission:
    def test_tenant_quota_rejects_at_submit(
        self, serve_inputs, server_factory
    ):
        server, client = server_factory(workers=1, tenant_quota=1)
        stall = FaultPlan((FaultSpec(
            site="exec.shard.slow", kind="slow", key=0, times=1, arg=0.75,
        ),))
        out1 = serve_inputs["root"] / "q1.cns"
        r1 = client.submit(
            _spec(serve_inputs, output=str(out1), faults=stall),
            tenant="alpha", wait=False,
        )
        assert r1.status == "accepted"
        over = client.submit(_spec(serve_inputs), tenant="alpha", wait=False)
        assert over.status == "rejected" and over.code == "quota"
        other = client.submit(_spec(serve_inputs), tenant="beta")
        assert other.status == "done"
        done = client.wait(r1.job_id)
        assert done.status == "done"
        assert out1.read_bytes() == serve_inputs["ref_bytes"]
        assert client.stats()["scheduler"]["rejected"] == 1
        # A draining shutdown says goodbye with the final counters, and
        # closing the daemon removes its socket.
        bye = client.shutdown(drain=True)
        assert bye["event"] == "bye"
        sched = bye["stats"]["scheduler"]
        assert (sched["completed"], sched["rejected"]) == (2, 1)
        server.close()
        assert not Path(server.config.socket_path).exists()

    def test_scheduler_keeps_the_newest_finished_jobs(self):
        """The finished-job table is bounded: past the bound the oldest
        finished jobs are forgotten, by finish time, and live ones stay."""
        from repro.serve.scheduler import FINISHED_JOBS_KEPT, Job, JobScheduler

        n = FINISHED_JOBS_KEPT + 5
        sched = JobScheduler(max_queued=n + 1)
        for i in range(n + 1):
            sched.submit(Job(f"j{i}", JobSpec()))
        claimed = [sched.next_job() for _ in range(n + 1)]
        live = claimed.pop()
        # Finish newest-submitted first: j0 finishes last.
        for k, job in enumerate(reversed(claimed)):
            if k % 2:
                sched.mark_failed(job, "boom")
            else:
                sched.mark_done(job, "ok")
        kept = {f"j{i}" for i in range(FINISHED_JOBS_KEPT)} | {live.job_id}
        assert set(sched.jobs) == kept
        assert sched.get(f"j{n - 1}") is None
        assert sched.get("j0").state.value in ("done", "failed")
        stats = sched.stats()
        assert stats["completed"] + stats["failed"] == n
        assert sum(stats["by_state"].values()) == FINISHED_JOBS_KEPT + 1

    def test_invalid_specs_rejected_with_code(
        self, serve_inputs, server_factory
    ):
        server, client = server_factory()
        missing = client.submit(JobSpec())
        assert missing.status == "rejected" and missing.code == "invalid"
        journaled = client.submit(_spec(serve_inputs, journal="/tmp/x"))
        assert journaled.status == "rejected"
        assert journaled.code == "invalid"
        assert "daemon" in journaled.error

    def test_out_of_range_fields_rejected_at_admission(
        self, serve_inputs, server_factory
    ):
        server, client = server_factory()
        # Fields validate() rejects never reach a worker ...
        zero = client.submit(replace(_spec(serve_inputs), window=0))
        assert zero.status == "rejected" and zero.code == "invalid"
        # ... and neither does a payload JobSpec cannot even hold.
        raw = {**_spec(serve_inputs).to_wire(), "samples": 5}
        bad = client.submit(types.SimpleNamespace(to_wire=lambda: raw))
        assert bad.status == "rejected" and bad.code == "invalid"
        assert "samples" in bad.error


class TestCrashRecovery:
    def _daemon_argv(self, sock, state):
        return [
            sys.executable, "-m", "repro.cli", "serve", "--socket", str(sock),
            "--state-dir", str(state), "--workers", "1",
        ]

    def _env(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_kill_mid_job_restart_resumes_bitwise(self, serve_inputs):
        root = Path(tempfile.mkdtemp(prefix="gsnp-kill-"))
        sock, state = root / "s.sock", root / "state"
        out = root / "recovered.cns"
        proc = subprocess.Popen(
            self._daemon_argv(sock, state), env=self._env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            assert wait_for_server(str(sock), timeout=30.0)
            client = ServeClient(str(sock))
            # Stall shard 1 long enough to guarantee the kill lands
            # mid-job, after shard 0 has committed to the journal.
            stall = FaultPlan((FaultSpec(
                site="exec.shard.slow", kind="slow", key=1, times=1, arg=3.0,
            ),))
            # One window per shard: the job's three windows would
            # otherwise be one journaled shard.
            r = client.submit(
                _spec(serve_inputs, output=str(out), faults=stall,
                      shard_size=WINDOW),
                wait=False,
            )
            assert r.status == "accepted"
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if list(state.glob("journal/**/shard-*.pkl")):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("no shard committed before the kill")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            assert not out.exists()  # output is atomic: all or nothing

            proc = subprocess.Popen(
                self._daemon_argv(sock, state), env=self._env(),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            assert wait_for_server(str(sock), timeout=30.0)
            client = ServeClient(str(sock))
            stats = client.stats()
            assert r.job_id in stats["recovered_jobs"]
            done = client.wait(r.job_id)
            assert done.status == "done", done.error
            assert done.events[-1]["recovered"] is True
            assert out.read_bytes() == serve_inputs["ref_bytes"]
            # The calibration store survived the kill: the resumed run
            # skipped the input pass via a disk hit.
            cal = client.stats()["runner"]["calibration"]
            assert cal["hits_disk"] >= 1
            client.shutdown(drain=True)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            shutil.rmtree(root, ignore_errors=True)


class TestServeStats:
    def test_ping_and_stats_shape(self, serve_inputs, server_factory):
        server, client = server_factory()
        pong = client.ping()
        assert pong["event"] == "pong" and pong["accepting"] is True
        stats = client.stats()
        for key in ("scheduler", "runner", "resident", "devices",
                    "recovered_jobs"):
            assert key in stats
        assert stats["scheduler"]["submitted"] == 0
        assert stats["resident"] == {
            "pipelines": 0, "table_hits": 0, "table_misses": 0}
        assert stats["devices"] == {
            "jobs": 0, "shards": 0, "steals": 0, "last": None}

    def test_pool_job_tallies_in_its_servers_stats(
        self, serve_inputs, server_factory
    ):
        """A served device-pool job adds to its own server's ``devices``
        tallies; a plain job does not."""
        server, client = server_factory()
        assert client.submit(_spec(serve_inputs)).status == "done"
        assert client.stats()["devices"]["jobs"] == 0
        r = client.submit(_spec(serve_inputs, devices=2, cpu_steal=True))
        assert r.status == "done"
        assert r.output == serve_inputs["ref_bytes"]
        devices = client.stats()["devices"]
        assert devices["jobs"] == 1 and devices["shards"] >= 2
        assert devices["last"]["devices"] == 2
        assert devices["last"]["cpu_steal"] is True
        assert [row["device"] for row in devices["last"]["per_device"]] \
            == [0, 1]



def _raw_request(socket_path, payload: bytes) -> list:
    """Send ``payload`` as one request and half-close; every event line
    the daemon wrote before it closed the connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(str(socket_path))
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            sock.sendall(payload)  # an oversize line is cut off mid-send
            sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(1 << 16):
            data += chunk
    return [json.loads(line) for line in data.splitlines()]


def _submit(inputs, spec=(), **message) -> bytes:
    wire = {**_spec(inputs).to_wire(), **dict(spec)}
    return json.dumps({"op": "submit", "spec": wire, **message}).encode() \
        + b"\n"


#: request -> the one event it must get back.
HOSTILE = {
    "faults-not-a-plan": (lambda i: _submit(i, {"faults": "x"}), "rejected"),
    "engine-not-a-name": (
        lambda i: _submit(i, {"engine": ["gsnp"]}), "rejected"),
    "priority-not-an-int": (
        lambda i: _submit(i, priority="high"), "rejected"),
    "fasta-not-a-path": (lambda i: _submit(i, {"fasta": 5}), "rejected"),
    "wrong-wire-version": (
        lambda i: _submit(i, {"version": 99}), "rejected"),
    "not-an-object": (lambda i: b"[1, 2]\n", "error"),
    "invalid-json": (lambda i: b'{"op": "sub\n', "error"),
    "truncated": (lambda i: b'{"op": "ping"}', "error"),
    "nested-too-deep": (lambda i: b"[" * 50_000 + b"]" * 50_000 + b"\n",
                        "error"),
    "oversize": (lambda i: b" " * MAX_MESSAGE_BYTES + b"{}\n", "error"),
    "unknown-op": (lambda i: b'{"op": "reboot"}\n', "error"),
}


class TestHostileRequests:
    """Every malformed request gets exactly one well-formed ``rejected``
    or ``error`` event, and the daemon keeps answering."""

    @pytest.mark.parametrize("name", list(HOSTILE))
    def test_one_well_formed_reply(self, name, serve_inputs, server_factory):
        request, event = HOSTILE[name]
        server, client = server_factory()
        events = _raw_request(client.socket_path, request(serve_inputs))
        assert [e["event"] for e in events] == [event] and events[0]["error"]
        assert events[0].get("code", "invalid") == "invalid"
        assert client.ping()["event"] == "pong"
        assert client.stats()["scheduler"]["submitted"] == 0

    def test_disconnect_mid_stream(self, serve_inputs, server_factory):
        server, client = server_factory()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(client.socket_path)
            sock.sendall(_submit(serve_inputs))
            accepted = json.loads(sock.makefile("rb").readline())
        assert client.ping()["event"] == "pong"
        done = client.wait(accepted["job_id"])  # it ran on regardless
        assert done.output == serve_inputs["ref_bytes"]


def test_unreadable_ledger_records_stay_on_disk_unrun(serve_inputs, tmp_path,
                                                     caplog):
    """A torn record, a bit flip that still parses as JSON, a field of the
    wrong type, an unsealed plain-JSON record: none is run, none stops the
    daemon, all stay on disk, and each is logged by name with a reason."""
    server = GsnpServer(ServeConfig(
        socket_path=str(tmp_path / "s.sock"), state_dir=str(tmp_path / "st"),
    ))
    good = _spec(serve_inputs, output=str(tmp_path / "o.cns")).to_wire()
    for job_id, spec in (("good", good), ("torn", good), ("flip", good),
                         ("type", {**good, "faults": "x"})):
        server.ledger.record(job_id, {"spec": spec, "tenant": "t"})
    jobs = server.ledger.dir
    (jobs / "torn.json").write_bytes((jobs / "torn.json").read_bytes()[:-9])
    raw = (jobs / "flip.json").read_bytes()
    assert b'"window": 400' in raw
    (jobs / "flip.json").write_bytes(
        raw.replace(b'"window": 400', b'"window": 408'))
    (jobs / "plain.json").write_text(json.dumps(
        {"job_id": "plain", "state": "pending", "spec": good}))
    records = {p: p.read_bytes() for p in jobs.iterdir()}
    with caplog.at_level("WARNING"):
        assert server.recover() == ["good"]
    assert {p: p.read_bytes() for p in jobs.iterdir()} == records
    refused = [r.getMessage() for r in caplog.records
               if "left on disk, not recovered" in r.getMessage()]
    for name, reason in (("torn.json", "digest mismatch"),
                         ("flip.json", "digest mismatch"),
                         ("plain.json", "digest mismatch"),
                         ("'type'", "faults")):
        assert any(name in m and reason in m for m in refused), (name, refused)
    assert len(refused) == 4
    server.ledger.mark_done("good")
    assert server.ledger.get("good")["spec"]["window"] == 400
    assert [e["job_id"] for e in server.ledger.pending()] == ["type"]


def test_pending_record_naming_megabatch_is_refused(serve_inputs, tmp_path,
                                                    caplog):
    """Upgrade path: a pending ledger record written when ``megabatch`` was
    a JobSpec field is refused as an unknown field — logged, left on disk,
    not run — like any other unreadable record."""
    server = GsnpServer(ServeConfig(
        socket_path=str(tmp_path / "s.sock"), state_dir=str(tmp_path / "st"),
    ))
    old = {**_spec(serve_inputs, output=str(tmp_path / "o.cns")).to_wire(),
           "megabatch": 16}
    server.ledger.record("old", {"spec": old, "tenant": "t"})
    with caplog.at_level("WARNING"):
        assert server.recover() == []
    assert any("'old'" in r.getMessage() and "megabatch" in r.getMessage()
               for r in caplog.records)
    assert [e["job_id"] for e in server.ledger.pending()] == ["old"]
