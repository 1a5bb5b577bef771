"""Chaos layer: deterministic fault injection, checkpoint/resume, ladder.

The load-bearing invariant: a run under any supported fault schedule
either produces output *bitwise identical* to a fault-free run, or fails
with a typed :class:`~repro.errors.GsnpError` — never a partial or
corrupt result file.
"""

import pickle
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
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
from repro.exec import executor as executor_mod
from repro.faults import (
    SITES,
    DegradationWarning,
    FaultPlan,
    FaultSpec,
    ShardJournal,
    atomic_output,
    fault_plan,
    fault_point,
    scope,
)
from repro.faults.journal import JOURNAL_VERSION, JournalError, seal, unseal
from repro.seqsim.datasets import KnownSnpPrior
from repro.seqsim.reference import Reference
from repro.soapsnp.model import CallingParams
from repro.serve.runner import write_job_output

WINDOW = 512


def _run(dataset, output, engine="gsnp_cpu", *, journal_dir=None,
         params=None, shard_size=1024, **spec_kwargs):
    """Run of ``shard_size``-site shards, on the serial lane unless
    ``workers`` says otherwise (deterministic, no worker processes); the
    ``gpusim.device.alloc`` site needs ``engine="gsnp"``.  The file is the
    merged compressed blob, so byte checks cover it."""
    spec = JobSpec(
        engine=engine, window=WINDOW, shard_size=shard_size,
        journal=journal_dir, output=str(output), compressed=True,
        **spec_kwargs,
    )
    result = execute(dataset, spec=spec, params=params)
    write_job_output(result, spec)
    return result


@pytest.fixture
def no_retries(monkeypatch):
    """A retry budget of 0: a shard's first failure fails the job."""
    monkeypatch.setattr(executor_mod, "MAX_RETRIES", 0)


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
        with fault_plan(None):
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
            with scope(shard=3, attempt=0):
                with pytest.raises(InjectedFault):
                    fault_point("exec.shard.error", key=3)
                with pytest.raises(InjectedFault):
                    fault_point("exec.shard.error", key=3)
            # ...and attempt 2 is past the schedule.
            with scope(shard=3, attempt=2):
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
        plan = FaultPlan([FaultSpec(site="exec.shard.error", key=1)])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs == plan.specs
        assert clone.parent_pid == plan.parent_pid
        with fault_plan(clone), scope(shard=1, attempt=0):
            with pytest.raises(InjectedFault):
                fault_point("exec.shard.error", key=None)
        assert clone.fired == [("exec.shard.error", None, 0, "error")]
        assert plan.fired == []

    def test_degraded_scope_suppresses_alloc_faults(self):
        plan = FaultPlan([FaultSpec(site="gpusim.device.alloc", kind="alloc",
                                    times=5)])
        with fault_plan(plan):
            with pytest.raises(AllocationError):
                fault_point("gpusim.device.alloc", key="buf")
            with scope(degraded=True):
                fault_point("gpusim.device.alloc", key="buf")

    def test_registry_documents_every_site(self):
        for site, doc in SITES.items():
            assert doc


def _on_thread(name, fn):
    """``fn()`` on a fresh thread called ``name``, joined: its return
    value, or its exception re-raised here."""
    out = {}

    def body():
        try:
            out["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            out["error"] = exc

    thread = threading.Thread(target=body, name=name, daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), f"{name} did not finish"
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestConcurrentJobs:
    """A plan belongs to its job: a job running beside it on another
    thread neither stalls on it nor ticks its clock."""

    @staticmethod
    def _plan(alloc):
        specs = [FaultSpec(site="exec.shard.slow", kind="slow", arg=1.0)]
        if alloc:
            specs.append(FaultSpec(site="gpusim.device.alloc", kind="alloc",
                                   after=3))
        return FaultPlan(specs)

    @pytest.mark.parametrize("alloc", [False, True],
                             ids=["stall", "alloc-clock"])
    def test_plan_stays_with_its_job(self, small_dataset, monkeypatch,
                                     alloc):
        """Job A's stall runs job B to completion on its own thread (a
        spy stands in for the sleep), so all of B overlaps A; A's fired
        faults and clock then equal A's run alone."""
        stalls, beside = [], []

        def stall(seconds):
            stalls.append(threading.current_thread().name)
            while beside:
                _on_thread("job-b", beside.pop())

        def job(plan):
            spec = JobSpec(engine="gsnp", window=WINDOW, faults=plan)
            return lambda: execute(small_dataset, spec=spec)

        monkeypatch.setattr(time, "sleep", stall)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            solo = self._plan(alloc)
            alone = _on_thread("job-a", job(solo))
            plan = self._plan(alloc)
            beside.append(job(None))
            together = _on_thread("job-a", job(plan))
        assert not beside
        assert len(solo.fired) == 1 + alloc
        assert (stalls, plan.fired, plan.clock.counts) == (
            ["job-a", "job-a"], solo.fired, solo.clock.counts)
        assert together.compressed_output == alone.compressed_output


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

    def test_mixed_schedule_on_process_lanes(self, small_dataset, tmp_path):
        """A worker crash, a device allocation failure and a shard error in
        one run on two worker processes: the crash and the error each cost
        their shard one retry, the alloc fault takes the degraded rung in
        the child (no retry), and the bytes are the fault-free run's."""
        base_out = tmp_path / "mixed-base.out"
        _run(small_dataset, base_out, engine="gsnp", workers=2)
        plan = FaultPlan([
            FaultSpec(site="exec.worker.crash", kind="crash", key=1),
            FaultSpec(site="gpusim.device.alloc", kind="alloc", key=2),
            FaultSpec(site="exec.shard.error", key=0),
        ])
        out = tmp_path / "mixed.out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            res = _run(small_dataset, out, engine="gsnp", workers=2,
                       faults=plan)
        assert out.read_bytes() == base_out.read_bytes()
        attempts = {s["index"]: s["attempts"] for s in res.extras["shards"]}
        assert attempts == {0: 2, 1: 2, 2: 1, 3: 1}
        assert res.extras["exec"]["retries"] == 2

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

    def test_exhausted_budget_chains_cause(
        self, small_dataset, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(executor_mod, "MAX_RETRIES", 1)
        plan = FaultPlan([FaultSpec(site="exec.shard.error", key=1,
                                    times=99)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with pytest.raises(ShardError) as err:
                _run(small_dataset, tmp_path / "dead.out", faults=plan)
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
        self, workers, small_dataset, baseline, tmp_path, no_retries
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
                     journal_dir=str(jdir))
            assert not out.exists()  # crash-safe: no partial file
            committed = len(list(jdir.rglob("shard-*.pkl")))
            assert committed > 0
            res = _run(small_dataset, out, workers=workers,
                       journal_dir=str(jdir), resume=True)
        assert res.extras["exec"]["resumed"] == committed
        assert out.read_bytes() == base_bytes

    def test_resume_under_another_prior_recomputes(
        self, small_dataset, baseline, tmp_path, no_retries
    ):
        """The prior changes calls but not the calibration, so a journal
        written without it must not be spliced into a run with it."""
        _, base_bytes = baseline
        no_prior = replace(small_dataset, prior=KnownSnpPrior(
            positions=np.empty(0, dtype=np.int64),
            rates=np.empty(0, dtype=np.float64),
        ))
        last = len(plan_shards(small_dataset.n_sites, WINDOW, 1024, 1)) - 1
        poison = FaultPlan([
            FaultSpec(site="exec.shard.error", key=last, times=99),
        ])
        out = tmp_path / "prior.out"
        jdir = tmp_path / "journal"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with pytest.raises(ShardError):
                _run(no_prior, out, faults=poison, journal_dir=str(jdir))
            assert len(list(jdir.rglob("shard-*.pkl"))) == last
            res = _run(small_dataset, out, journal_dir=str(jdir),
                       resume=True)
        assert res.extras["exec"]["resumed"] == 0
        assert out.read_bytes() == base_bytes

    @pytest.mark.parametrize("change", [
        "reference", "params", "engine", "shard_plan",
    ])
    def test_resume_under_another_input_recomputes(
        self, change, small_dataset, tmp_path, no_retries
    ):
        """A journal is spliced only into the run that wrote it.  The
        reference edit flips a base no read covers: the calibration stays
        the same, but that site's row carries the base."""
        n = small_dataset.n_sites
        other, run_kw = small_dataset, {}
        if change == "reference":
            reads = small_dataset.reads
            edges = np.zeros(n + reads.read_len + 1, dtype=np.int64)
            np.add.at(edges, reads.pos, 1)
            np.add.at(edges, reads.pos + reads.read_len, -1)
            site = int(np.flatnonzero(np.cumsum(edges)[:n] == 0)[0])
            assert site < 1024  # inside the shard the kill commits first
            codes = small_dataset.reference.codes.copy()
            codes[site] = (codes[site] + 1) % 4
            other = replace(small_dataset, reference=Reference(
                small_dataset.reference.name, codes,
            ))
        else:
            run_kw = {
                "params": dict(params=CallingParams(
                    read_len=small_dataset.reads.read_len, novel_rate=2e-3,
                )),
                "engine": dict(engine="gsnp"),
                "shard_plan": dict(shard_size=2048),
            }[change]
        last = len(plan_shards(n, WINDOW, 1024, 1)) - 1
        poison = FaultPlan([
            FaultSpec(site="exec.shard.error", key=last, times=99),
        ])
        out, jdir = tmp_path / "other.out", tmp_path / "journal"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with pytest.raises(ShardError):
                _run(small_dataset, out, faults=poison, journal_dir=str(jdir))
            assert len(list(jdir.rglob("shard-*.pkl"))) == last
            res = _run(other, out, journal_dir=str(jdir), resume=True,
                       **run_kw)
            fresh = _run(other, tmp_path / "fresh.out", **run_kw)
        assert res.extras["exec"]["resumed"] == 0
        assert out.read_bytes() == (tmp_path / "fresh.out").read_bytes()
        assert res.table.equals(fresh.table)

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

    def test_entry_of_an_older_build_is_a_miss(self, tmp_path, stale_class):
        """An entry whose pickled classes this build no longer has (a
        renamed payload type, or its whole module gone) re-executes."""
        payload, gone = stale_class
        journal = ShardJournal(tmp_path / "j", "fp00")
        shards = plan_shards(2048, WINDOW, 1024, 1)
        journal.commit(ShardResult(
            shard=shards[0], samples=[payload()],
            profile=RunProfile(pipeline="gsnp"),
        ))
        assert list(journal.load(shards)) == [0]
        gone()
        assert journal.load(shards) == {}


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

    def test_failed_rename_leaves_no_part_file(self, tmp_path, monkeypatch):
        """A failure after the body (here the rename) cleans up too, and a
        journal commit, which writes through the same writer, says so as
        a ``JournalError``."""
        import repro.faults.journal as journal_mod

        def refuse(src, dst):
            raise OSError("disk pulled")

        monkeypatch.setattr(journal_mod.os, "replace", refuse)
        with pytest.raises(OSError):
            with atomic_output(tmp_path / "out.bin") as f:
                f.write(b"payload")
        journal = ShardJournal(tmp_path / "j", "fp00")
        shard = plan_shards(1024, WINDOW, 1024, 1)[0]
        with pytest.raises(JournalError, match="disk pulled"):
            journal.commit(ShardResult(
                shard=shard, samples=[], profile=RunProfile(pipeline="gsnp"),
            ))
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]


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
        that ``workers`` (2 here) buys no concurrency.  Nor does the
        deadline cut a serial job into shards: it stays one shard, with
        the launch chain of the same job without a deadline."""
        with caplog.at_level("INFO", logger="repro.faults"):
            _run(small_dataset, tmp_path / "t.out", shard_timeout=5.0,
                 **lanes)
        messages = [r.getMessage() for r in caplog.records]
        assert sum("shard_timeout=5.0 ignored" in m for m in messages) == 1
        assert sum("workers=2 ignored on pool lanes" in m
                   for m in messages) == ("devices" in lanes)
        if lanes:
            return

        def shards_and_launches(**fields):
            res = execute(small_dataset, spec=JobSpec(
                engine="gsnp", window=WINDOW, **fields,
            ))
            records = res.profile.records.values()
            launches = sum(r.gpu.launches for r in records)
            return res.extras["exec"]["n_shards"], launches

        untimed = shards_and_launches()
        assert untimed[0] == 1
        assert shards_and_launches(shard_timeout=5.0) == untimed

    def test_quarantine_collects_coordinates(self, tmp_path):
        from repro.formats.soap import read_soap, write_soap
        from repro.seqsim.datasets import DatasetSpec, generate_dataset

        ds = generate_dataset(DatasetSpec(
            name="chrQ", n_sites=600, depth=6.0, coverage=0.9, seed=11,
        ))
        soap = tmp_path / "q.soap"
        write_soap(soap, ds.reads)
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


    def test_truncated_record_fault_carries_coordinates(self, tmp_path):
        """A ``formats.soap.record`` truncation reaches the caller as a
        ``FormatError`` with the record's coordinates; the fault is
        transient, so re-reading under the spent plan parses clean."""
        from repro.core.detector import dataset_from_files
        from repro.formats.fasta import write_fasta
        from repro.formats.soap import write_soap
        from repro.seqsim.datasets import DatasetSpec, generate_dataset

        ds = generate_dataset(DatasetSpec(
            name="chrT", n_sites=600, depth=6.0, coverage=0.9, seed=11,
        ))
        fasta, soap = tmp_path / "t.fa", tmp_path / "t.soap"
        write_fasta(fasta, [ds.reference])
        write_soap(soap, ds.reads)
        plan = FaultPlan([FaultSpec(site="formats.soap.record",
                                    kind="truncate", key=3, arg=0.4)])
        with fault_plan(plan):
            with pytest.raises(FormatError) as err:
                dataset_from_files(fasta, soap)
            assert str(err.value).startswith(f"{soap}:3:")
            again = dataset_from_files(fasta, soap)
        assert again.reads.n_reads == ds.reads.n_reads


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
