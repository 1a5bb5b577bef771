"""Chaos layer: deterministic fault injection, checkpoint/resume, ladder.

The load-bearing invariant: a run under any supported fault schedule
either produces output *bitwise identical* to a fault-free run, or fails
with a typed :class:`~repro.errors.GsnpError` — never a partial or
corrupt result file.
"""

import pickle
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import JobSpec
from repro.errors import (
    AllocationError,
    FormatError,
    GsnpError,
    InjectedFault,
    ShardError,
)
from repro.bench.events import RunProfile
from repro.exec import ShardResult, execute, plan_shards
from repro.faults import (
    SITES,
    DegradationWarning,
    FaultPlan,
    FaultSpec,
    ShardJournal,
    atomic_output,
    fault_plan,
    fault_point,
    install_plan,
    run_fingerprint,
)
from repro.faults.journal import JOURNAL_VERSION, seal, unseal
from repro.serve.runner import write_job_output

WINDOW = 512


def _run(dataset, output, engine="gsnp_cpu", *, max_retries=2,
         journal_dir=None, **spec_kwargs):
    """Run of 1024-site shards, on the serial lane unless ``workers`` says
    otherwise (deterministic, no worker processes); the
    ``gpusim.device.alloc`` site needs ``engine="gsnp"``.  The file is the
    merged compressed blob, so byte checks cover it."""
    spec = JobSpec(
        engine=engine, window=WINDOW, shard_size=1024, journal=journal_dir,
        output=str(output), compressed=True, **spec_kwargs,
    )
    result = execute(dataset, spec=spec, max_retries=max_retries)
    write_job_output(result, spec)
    return result


@pytest.fixture(scope="module")
def baseline(small_dataset, tmp_path_factory):
    """Fault-free sharded reference run: (result, output bytes)."""
    out = tmp_path_factory.mktemp("base") / "base.out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradationWarning)
        res = _run(small_dataset, out)
    return res, out.read_bytes()


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="not.a.site")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="exec.shard.error", kind="explode")

    def test_fault_point_rejects_unregistered_site(self):
        with pytest.raises(ValueError, match="unregistered"):
            fault_point("some.other.site")

    def test_no_plan_is_noop(self):
        install_plan(None)
        assert fault_point("exec.shard.error", key=0, value=b"x") == b"x"

    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(7, n_shards=4)
        b = FaultPlan.generate(7, n_shards=4)
        assert a.specs == b.specs
        assert a.specs != FaultPlan.generate(8, n_shards=4).specs

    def test_fires_exactly_times_then_stops(self):
        plan = FaultPlan([FaultSpec(site="gpusim.device.alloc", kind="alloc",
                                    times=2)])
        with fault_plan(plan):
            for _ in range(2):
                with pytest.raises(AllocationError):
                    fault_point("gpusim.device.alloc", key="buf")
            fault_point("gpusim.device.alloc", key="buf")  # third hit: clean
        assert len(plan.fired) == 2

    def test_exec_sites_fire_by_attempt_not_hit_count(self):
        plan = FaultPlan([FaultSpec(site="exec.shard.error", key=3, times=2)])
        with fault_plan(plan):
            # Attempt 0 and 1 fire no matter how often they're polled...
            with plan.scope(shard=3, attempt=0):
                with pytest.raises(InjectedFault):
                    fault_point("exec.shard.error", key=3)
                with pytest.raises(InjectedFault):
                    fault_point("exec.shard.error", key=3)
            # ...and attempt 2 is past the schedule.
            with plan.scope(shard=3, attempt=2):
                fault_point("exec.shard.error", key=3)

    def test_truncate_transforms_value(self):
        plan = FaultPlan([FaultSpec(site="formats.soap.record",
                                    kind="truncate", arg=0.5)])
        with fault_plan(plan):
            assert fault_point(
                "formats.soap.record", key=1, value=b"abcdefgh"
            ) == b"abcd"
            # One-shot: the next record passes through untouched.
            assert fault_point(
                "formats.soap.record", key=2, value=b"abcdefgh"
            ) == b"abcdefgh"

    def test_plan_pickles_across_process_boundary(self):
        plan = FaultPlan.generate(3, n_shards=4)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs == plan.specs
        assert clone.parent_pid == plan.parent_pid
        with clone.scope(shard=1):
            assert clone.ambient == {"shard": 1}

    def test_degraded_scope_suppresses_alloc_faults(self):
        plan = FaultPlan([FaultSpec(site="gpusim.device.alloc", kind="alloc",
                                    times=5)])
        with fault_plan(plan):
            with pytest.raises(AllocationError):
                fault_point("gpusim.device.alloc", key="buf")
            with plan.scope(degraded=True):
                fault_point("gpusim.device.alloc", key="buf")

    def test_registry_documents_every_site(self):
        for site, doc in SITES.items():
            assert doc


class TestFaultedExecutionParity:
    """Faulted runs are absorbed and stay bitwise identical."""

    def test_transient_shard_errors(self, small_dataset, baseline, tmp_path):
        base_res, base_bytes = baseline
        plan = FaultPlan([
            FaultSpec(site="exec.shard.error", key=0, times=2),
            FaultSpec(site="exec.shard.error", key=2, times=1),
        ])
        out = tmp_path / "chaos.out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            res = _run(small_dataset, out, faults=plan)
        assert out.read_bytes() == base_bytes
        assert res.table.equals(base_res.table)
        assert res.extras["exec"]["retries"] == 3

    def test_alloc_fault_takes_degraded_rung(self, small_dataset, tmp_path):
        # The device site needs the simulated-GPU engine; compare against
        # its own fault-free run.
        base_out = tmp_path / "alloc-base.out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            _run(small_dataset, base_out, engine="gsnp")
        plan = FaultPlan([
            FaultSpec(site="gpusim.device.alloc", kind="alloc", key=1),
        ])
        out = tmp_path / "alloc.out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegradationWarning)
            _run(small_dataset, out, engine="gsnp", faults=plan)
        rungs = [w.message.rung for w in caught
                 if isinstance(w.message, DegradationWarning)]
        assert "device-degraded" in rungs
        assert out.read_bytes() == base_out.read_bytes()

    def test_degraded_rung_leaves_simulator_state_alone(
        self, small_dataset, tmp_path
    ):
        """The rung only rebuilds the lane's pipeline: bytes and per-phase
        counters equal the fault-free ``fusion=False`` run, and the shared
        transaction memo survives.  Serve worker threads are serial lanes
        of one process, so a rung that toggled process-global simulator
        state from inside a lane could race another thread's rung."""
        from repro.gpusim import memory

        def counters(res):
            return {
                name: (rec.gpu.as_dict(), vars(rec.cpu), vars(rec.disk),
                       rec.transfer_bytes)
                for name, rec in res.profile.records.items()
            }

        base_out = tmp_path / "base.out"
        base = _run(small_dataset, base_out, engine="gsnp", fusion=False)
        last = len(plan_shards(small_dataset.n_sites, WINDOW, 1024, 2)) - 1
        plan = FaultPlan([
            FaultSpec(site="gpusim.device.alloc", kind="alloc", key=last),
        ])
        out = tmp_path / "degraded.out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegradationWarning)
            res = _run(
                small_dataset, out, engine="gsnp", fusion=False, faults=plan,
            )
        rung = [w.message for w in caught
                if isinstance(w.message, DegradationWarning)]
        assert [w.rung for w in rung] == ["device-degraded"]
        assert "fast paths" not in str(rung[0])
        assert out.read_bytes() == base_out.read_bytes()
        assert counters(res) == counters(base)
        assert memory._TX_CACHE

    def test_worker_crash_in_process_pool(
        self, small_dataset, baseline, tmp_path
    ):
        _, base_bytes = baseline
        plan = FaultPlan([
            FaultSpec(site="exec.worker.crash", kind="crash", key=1),
        ])
        out = tmp_path / "crash.out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            res = _run(
                small_dataset, out, faults=plan, workers=2,
            )
        assert out.read_bytes() == base_bytes
        assert res.extras["exec"]["retries"] == 1

    def test_dead_worker_charges_only_its_own_shard(self, tmp_path):
        """A worker process is a lane of its own: its death costs the one
        shard it held a retry, never the shards in flight on other lanes
        (a shared pool broke every pending future and charged each one)."""
        from repro.seqsim.datasets import DatasetSpec, generate_dataset

        ds = generate_dataset(DatasetSpec(
            name="chrCrash", n_sites=8000, depth=6.0, coverage=0.9, seed=101,
        ))
        plan = FaultPlan([
            FaultSpec(site="exec.worker.crash", kind="crash", key=0),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            res = _run(
                ds, tmp_path / "crash.out", faults=plan, workers=2,
            )
        attempts = {s["index"]: s["attempts"] for s in res.extras["shards"]}
        assert attempts == {0: 2, **{i: 1 for i in range(1, 8)}}
        assert res.extras["exec"]["retries"] == 1

    def test_exhausted_budget_chains_cause(self, small_dataset, tmp_path):
        plan = FaultPlan([FaultSpec(site="exec.shard.error", key=1,
                                    times=99)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with pytest.raises(ShardError) as err:
                _run(small_dataset, tmp_path / "dead.out", faults=plan,
                     max_retries=1)
        assert err.value.shard_index == 1
        assert isinstance(err.value.__cause__, InjectedFault)
        assert not (tmp_path / "dead.out").exists()

    def test_shard_deadline_recovers_stalled_shard(
        self, small_dataset, baseline, tmp_path
    ):
        _, base_bytes = baseline
        plan = FaultPlan([
            FaultSpec(site="exec.shard.slow", kind="slow", key=0, times=1,
                      arg=30.0),
        ])
        out = tmp_path / "slow.out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            res = _run(
                small_dataset, out, faults=plan, workers=2,
                shard_timeout=2.0,
            )
        assert out.read_bytes() == base_bytes
        assert res.extras["exec"]["retries"] >= 1


class TestSerialJobFaults:
    """A serial detector job runs on the serial lane like any other job,
    so its ``faults`` plan is installed and its rungs are taken."""

    @staticmethod
    def _detect(dataset, plan, **fields):
        from repro.core.detector import GsnpDetector

        detector = GsnpDetector(
            spec=JobSpec(window=1000, faults=plan, **fields)
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegradationWarning)
            res = detector.run(dataset)
        return res, [w.message.rung for w in caught
                     if isinstance(w.message, DegradationWarning)]

    def test_alloc_fault_takes_one_degraded_rung(self, small_dataset):
        from repro.api import create_pipeline

        oracle = create_pipeline(spec=JobSpec(window=1000)).run(small_dataset)
        plan = FaultPlan([FaultSpec(site="gpusim.device.alloc", kind="alloc")])
        res, rungs = self._detect(small_dataset, plan)
        assert rungs == ["device-degraded"]
        assert res.compressed_output == oracle.compressed_output

    def test_sanitized_lane_drops_the_device_that_failed(
        self, small_dataset
    ):
        """The failed attempt strands allocations on the sanitizing lane
        device; the lane goes on with a fresh one, so the strict teardown
        at scheduler close stays clean."""
        from repro.api import create_pipeline

        oracle = create_pipeline(spec=JobSpec(window=1000)).run(small_dataset)
        plan = FaultPlan([FaultSpec(site="gpusim.device.alloc", kind="alloc",
                                    after=1)])
        res, rungs = self._detect(small_dataset, plan, sanitize=True,
                                  shard_size=2000)
        assert rungs == ["device-degraded"]
        assert res.compressed_output == oracle.compressed_output

    def test_failing_shard_raises_shard_error(self, small_dataset):
        plan = FaultPlan([FaultSpec(site="exec.shard.error", times=99)])
        with pytest.raises(ShardError) as err:
            self._detect(small_dataset, plan)
        assert isinstance(err.value.__cause__, InjectedFault)


class TestCheckpointResume:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_resume_after_mid_run_failure(
        self, workers, small_dataset, baseline, tmp_path
    ):
        _, base_bytes = baseline
        shards = plan_shards(small_dataset.n_sites, WINDOW, 1024, workers)
        poison = FaultPlan([
            FaultSpec(site="exec.shard.error", key=len(shards) - 1,
                      times=99),
        ])
        out = tmp_path / "resume.out"
        jdir = tmp_path / "journal"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with pytest.raises(ShardError):
                _run(small_dataset, out, faults=poison, workers=workers,
                     journal_dir=str(jdir), max_retries=0)
            assert not out.exists()  # crash-safe: no partial file
            committed = len(list(jdir.rglob("shard-*.pkl")))
            assert committed > 0
            res = _run(small_dataset, out, workers=workers,
                       journal_dir=str(jdir), resume=True)
        assert res.extras["exec"]["resumed"] == committed
        assert out.read_bytes() == base_bytes

    def test_resume_without_journal_recomputes(
        self, small_dataset, baseline, tmp_path
    ):
        _, base_bytes = baseline
        out = tmp_path / "cold.out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            res = _run(small_dataset, out,
                       journal_dir=str(tmp_path / "j"), resume=True)
        assert res.extras["exec"]["resumed"] == 0
        assert out.read_bytes() == base_bytes

    def test_torn_journal_entry_is_a_miss(self, tmp_path):
        """A torn entry, and a sealed entry carrying another journal
        version (a daemon upgraded mid-job resumes from such entries),
        both re-execute rather than reach the merge."""
        journal = ShardJournal(tmp_path / "j", "fp00")
        shards = plan_shards(2048, WINDOW, 1024, 1)
        path = journal.commit(ShardResult(
            shard=shards[0], samples=[], profile=RunProfile(pipeline="gsnp"),
        ))
        assert list(journal.load(shards)) == [0]
        entry = pickle.loads(unseal(path.read_bytes()))
        entry["version"] = JOURNAL_VERSION - 1
        other_version = seal(pickle.dumps(entry))
        for raw in (b"torn garbage, no digest header", other_version):
            path.write_bytes(raw)
            assert journal.load(shards) == {}

    def test_fingerprint_sensitivity(self, small_dataset):
        from types import SimpleNamespace

        import numpy as np

        cal = SimpleNamespace(
            pm_flat=np.arange(8, dtype=np.float64),
            penalty=np.arange(4, dtype=np.float64),
            total_reads=100,
        )
        shards = plan_shards(small_dataset.n_sites, WINDOW, 1024, 2)
        bounds = [(s.start, s.end) for s in shards]
        a = run_fingerprint("gsnp_cpu", WINDOW, "opt", 4096, bounds, cal)
        b = run_fingerprint("gsnp_cpu", WINDOW, "opt", 4096, bounds[:-1],
                            cal)
        c = run_fingerprint("gsnp", WINDOW, "opt", 4096, bounds, cal)
        assert len({a, b, c}) == 3


class TestAtomicOutput:
    def test_clean_exit_commits(self, tmp_path):
        p = tmp_path / "out.bin"
        with atomic_output(p) as f:
            f.write(b"payload")
        assert p.read_bytes() == b"payload"
        assert not list(tmp_path.glob("*.part"))

    def test_error_leaves_no_file(self, tmp_path):
        p = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with atomic_output(p) as f:
                f.write(b"half a result")
                raise RuntimeError("killed mid-write")
        assert not p.exists()
        assert not list(tmp_path.glob("*.part"))


class TestDegradationLadder:
    def test_pool_fallback_names_the_cause(
        self, monkeypatch, small_dataset, baseline, tmp_path
    ):
        import repro.exec.executor as executor

        def broken(self, lane):
            raise OSError("no semaphores on this platform")

        monkeypatch.setattr(executor._Scheduler, "_start_worker", broken)
        _, base_bytes = baseline
        out = tmp_path / "fallback.out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegradationWarning)
            res = _run(small_dataset, out, workers=4)
        assert res.extras["exec"]["pool"] == "serial"
        assert out.read_bytes() == base_bytes
        msgs = [w.message for w in caught
                if isinstance(w.message, DegradationWarning)]
        assert len(msgs) == 1
        assert msgs[0].rung == "pool-serial-fallback"
        assert "no semaphores" in str(msgs[0])

    def test_value_error_still_propagates(
        self, monkeypatch, small_dataset, tmp_path
    ):
        # Only OSError/ImportError mean "no multiprocessing here";
        # programming errors must not be eaten by the fallback.
        import repro.exec.executor as executor

        def broken(self, lane):
            raise ValueError("bad workers count")

        monkeypatch.setattr(executor._Scheduler, "_start_worker", broken)
        with pytest.raises(ValueError):
            _run(small_dataset, tmp_path / "never.out", workers=4)

    @pytest.mark.parametrize("lanes", [
        {}, {"engine": "gsnp", "devices": 2, "workers": 2},
    ])
    def test_shard_timeout_ignored_on_in_process_lanes(
        self, lanes, small_dataset, tmp_path, caplog
    ):
        """Only a worker process can be preempted; the serial lane and
        device-pool lanes say once that the deadline does nothing.  Pool
        lanes are stepped on the calling thread, so they also say once
        that ``workers`` (2 here) buys no concurrency."""
        with caplog.at_level("INFO", logger="repro.faults"):
            _run(small_dataset, tmp_path / "t.out", shard_timeout=5.0,
                 **lanes)
        messages = [r.getMessage() for r in caplog.records]
        assert sum("shard_timeout=5.0 ignored" in m for m in messages) == 1
        assert sum("workers=2 ignored on pool lanes" in m
                   for m in messages) == ("devices" in lanes)

    def test_quarantine_collects_coordinates(self, tmp_path):
        from repro.align.records import AlignmentBatch
        from repro.formats.soap import read_soap, write_soap
        from repro.seqsim.datasets import DatasetSpec, generate_dataset

        ds = generate_dataset(DatasetSpec(
            name="chrQ", n_sites=600, depth=6.0, coverage=0.9, seed=11,
        ))
        soap = tmp_path / "q.soap"
        write_soap(soap, AlignmentBatch.from_read_set(ds.reads))
        lines = soap.read_bytes().splitlines(keepends=True)
        lines[1] = b"only\ttwo\n"
        soap.write_bytes(b"".join(lines))

        # Without a quarantine file the error carries coordinates...
        with pytest.raises(FormatError, match=rf"{soap}:2:"):
            read_soap(soap)
        # ...with one, the record is skipped and logged with them.
        qpath = tmp_path / "quarantine.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegradationWarning)
            batch = read_soap(soap, quarantine=qpath)
        assert batch.n_reads == len(lines) - 1
        assert f"{soap}:2:" in qpath.read_text()
        rungs = [w.message.rung for w in caught
                 if isinstance(w.message, DegradationWarning)]
        assert rungs == ["record-quarantine"]


class TestFaultScheduleProperty:
    """Any generated schedule: identical bytes or a typed GsnpError."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        extra_times=st.integers(min_value=0, max_value=5),
    )
    def test_complete_or_absent(
        self, seed, extra_times, small_dataset, baseline, tmp_path
    ):
        _, base_bytes = baseline
        n_shards = len(plan_shards(small_dataset.n_sites, WINDOW, 1024, 2))
        plan = FaultPlan.generate(
            seed, n_shards,
            sites=("exec.shard.error", "exec.worker.crash",
                   "gpusim.device.alloc"),
        )
        if extra_times:
            plan = plan.with_spec(FaultSpec(
                site="exec.shard.error", key=seed % n_shards,
                times=extra_times,
            ))
        out = tmp_path / f"prop-{seed}-{extra_times}.out"
        if out.exists():
            out.unlink()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradationWarning)
                _run(small_dataset, out, faults=plan)
        except GsnpError:
            # Typed failure: crash-safety says no partial file either.
            assert not out.exists()
        else:
            assert out.read_bytes() == base_bytes
