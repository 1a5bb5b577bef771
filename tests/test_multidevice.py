"""Multi-device pool + heterogeneous work-stealing scheduler tests.

The contract under test: for any device count, any steal schedule, any
worker count, fusion on or off, sanitizer on or off, and any seeded
device failure, the merged output is bitwise identical to the serial
single-device run — the scheduler only ever changes *where* a shard
runs, never what it produces.
"""

import ast
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api import JobSpec, create_pipeline
from repro.errors import DeviceError, ShardError
from repro.exec import execute, plan_shards, pool_stats
from repro.faults.degrade import DegradationWarning
from repro.faults.plan import FaultPlan, FaultSpec
from repro.gpusim.costmodel import (
    LaneUsage,
    PoolCostModel,
    predict_lane_rates,
    predict_split,
)
from repro.gpusim.pool import DevicePool, HostLink, acquire_device
from repro.gpusim.spec import HostLinkSpec
from repro.seqsim.datasets import DatasetSpec, generate_dataset

WINDOW = 800


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(DatasetSpec(
        name="multidev", n_sites=12_000, depth=6.0, coverage=0.95, seed=11,
    ))


@pytest.fixture(scope="module")
def serial(dataset):
    """The single-device serial oracle every pool run must match."""
    return create_pipeline(
        spec=JobSpec(engine="gsnp", window=WINDOW)
    ).run(dataset)


def _run(dataset, **kw):
    return execute(dataset, spec=JobSpec(engine="gsnp", window=WINDOW, **kw))


def _assert_parity(res, serial):
    assert res.table.equals(serial.table)
    assert res.compressed_output == serial.compressed_output


def _schedule(hetero):
    """The per-lane block minus its one wall-clock field."""
    return [
        {k: v for k, v in lane.items() if k != "wall"}
        for lane in hetero["lanes"]
    ]


#: (lane kwargs, initial_split, steals, makespan_seconds) of three pools.
PINNED_ARMS = [
    ({"devices": 2}, [4, 4], 0, 0.015341549390785907),
    ({"devices": 2, "cpu_steal": True},
     [4, 4, 0], 2, 0.01573091491904762),
    ({"devices": 4, "cpu_steal": True, "workers": 2},
     [4, 4, 4, 3, 0], 2, 0.01825383661409214),
]

#: devices -> (initial_split, makespan_seconds) with ``shard_size=WINDOW``
#: (15 one-window shards): the modeled pool must scale from 2 to 4 devices.
PINNED_SCALING = {
    2: ([8, 7], 0.02622351425474255),
    4: ([4, 4, 4, 3], 0.019087827864498648),
}


class TestParityMatrix:
    """devices x workers x fusion x steal, all bitwise identical."""

    @pytest.mark.parametrize("devices,cpu_steal,fusion,workers", [
        (2, False, False, 1),
        (2, False, True, 1),
        (2, True, False, 1),
        (2, True, True, 3),
        (4, False, True, 1),
        (4, True, False, 2),
    ])
    def test_pool_matches_serial(
        self, dataset, serial, devices, cpu_steal, fusion, workers
    ):
        res = _run(
            dataset, devices=devices, cpu_steal=cpu_steal,
            fusion=fusion, workers=workers,
        )
        _assert_parity(res, serial)
        h = res.extras["exec"]["hetero"]
        assert h["devices"] == devices
        assert h["cpu_steal"] is cpu_steal
        assert sum(h["initial_split"]) == res.extras["exec"]["n_shards"]
        assert len(h["per_device"]) == devices

    @pytest.mark.parametrize("lanes,split,steals,makespan", PINNED_ARMS)
    def test_pool_schedule_is_pinned(
        self, dataset, lanes, split, steals, makespan
    ):
        """The cost-model deal, the modeled-clock step order and steal
        arbitration and the makespan they produce are part of the
        benchmark's exact ``modeled_s``: a change to the deal, the event
        order or its tie-break, the victim choice, the half-backlog grab
        or the steal inequality moves these literals.  The schedule is a
        function of the job alone, so repeated runs report the identical
        per-lane block."""
        runs = [
            _run(dataset, **lanes).extras["exec"]["hetero"] for _ in range(3)
        ]
        h = runs[0]
        assert h["initial_split"] == split
        assert h["steals"] == steals
        assert h["modeled"]["makespan_seconds"] == makespan
        assert all(_schedule(r) == _schedule(h) for r in runs[1:])

    def test_more_devices_shorten_the_modeled_makespan(self, dataset, serial):
        """Four devices finish the same one-window shards sooner than two
        on the modeled clock (the paper's Tables III/IV clock, which is
        deterministic, so the makespans are exact)."""
        makespan = {}
        for devices, (split, pinned) in PINNED_SCALING.items():
            res = _run(dataset, devices=devices, shard_size=WINDOW)
            _assert_parity(res, serial)
            h = res.extras["exec"]["hetero"]
            makespan[devices] = h["modeled"]["makespan_seconds"]
            assert h["initial_split"] == split
            assert makespan[devices] == pinned
        assert makespan[4] < makespan[2]

    def test_wall_speed_does_not_reach_the_schedule(
        self, dataset, monkeypatch
    ):
        """Slowing one lane's shards down in wall time changes neither
        the step order nor the steal arbiter's verdicts."""
        import repro.exec.executor as executor

        lanes, _, steals, makespan = PINNED_ARMS[1]
        fast = _run(dataset, **lanes).extras["exec"]["hetero"]
        run_shard = executor._run_shard

        def slow_gpu0(job, lane, shard, attempt):
            if lane.name == "gpu0":
                time.sleep(0.05)
            return run_shard(job, lane, shard, attempt)

        monkeypatch.setattr(executor, "_run_shard", slow_gpu0)
        slow = _run(dataset, **lanes).extras["exec"]["hetero"]
        assert _schedule(slow) == _schedule(fast)
        assert slow["steals"] == steals
        assert slow["modeled"]["makespan_seconds"] == makespan

    def test_sanitizer_on(self, dataset, serial):
        res = _run(dataset, devices=2, cpu_steal=True, sanitize=True)
        _assert_parity(res, serial)
        # A lane's wall is the sum of its steps on the calling thread.
        lanes = res.extras["exec"]["hetero"]["lanes"]
        assert all(l["wall"] > 0 for l in lanes if l["shards"])

    def test_cpu_lane_steals(self, dataset, serial):
        """The host lane starts with zero shards (the roofline predicts
        the modeled GPU far faster) so its first act is a steal."""
        res = _run(dataset, devices=2, cpu_steal=True)
        h = res.extras["exec"]["hetero"]
        assert h["initial_split"][-1] == 0
        assert h["steals"] >= 1
        _assert_parity(res, serial)

    def test_meta_accounting(self, dataset, serial):
        res = _run(dataset, devices=2, fusion=True)
        h = res.extras["exec"]["hetero"]
        assert h["pool_launches"] > 0
        assert h["link"]["h2d_bytes"] > 0
        assert h["link"]["serialized_seconds"] > 0
        assert h["modeled"]["makespan_seconds"] > 0
        assert len(h["lanes"]) == 2
        assert sum(l["shards"] for l in h["lanes"]) \
            == res.extras["exec"]["n_shards"]
        stats = pool_stats()
        assert stats["jobs"] >= 1
        assert stats["last"]["devices"] == 2


class TestDeviceFailure:
    """A lane dying mid-run degrades the ladder, never the bytes."""

    def test_one_device_dies(self, dataset, serial):
        self._check_one_device_dies(dataset, serial, after=0)

    @pytest.mark.parametrize("after,shard_size", [
        (2, None),
        (3, WINDOW),  # the dying lane was dealt the shorter deque: [8, 7, 0]
    ])
    def test_one_device_dies_mid_run(
        self, dataset, serial, after, shard_size
    ):
        self._check_one_device_dies(
            dataset, serial, after=after, shard_size=shard_size,
        )

    def _check_one_device_dies(self, dataset, serial, after, **kw):
        plan = FaultPlan((FaultSpec(
            site="gpusim.device.fail", key=1, times=1, kind="alloc",
            after=after,
        ),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _run(dataset, devices=2, cpu_steal=True, faults=plan, **kw)
        _assert_parity(res, serial)
        h = res.extras["exec"]["hetero"]
        dead = [l for l in h["lanes"] if l["dead"]]
        assert [l["lane"] for l in dead] == ["gpu1"]
        assert dead[0]["shards"] == after and dead[0]["wall"] > 0
        rungs = [
            w for w in caught if issubclass(w.category, DegradationWarning)
        ]
        assert any("device-failed" in str(w.message) for w in rungs)
        # Survivors absorbed the dead lane's deque; no fallback rung.
        assert not any("host-engine" in str(w.message) for w in rungs)
        survivors = [l for l in h["lanes"] if not l["dead"]]
        assert sum(l["shards"] for l in survivors) \
            == res.extras["exec"]["n_shards"] - after

    def test_dead_lane_is_raided_before_a_fuller_live_one(self, dataset):
        """Orphaned shards are always stealable: an idle lane takes a dead
        lane's even when a live lane holds more and raiding *that* would
        not help — otherwise it exits and the orphans wait for the
        coordinator's fallback though a scheduler lane survived."""
        from repro.exec.executor import _Job, _Scheduler

        job = _Job(
            dataset, JobSpec(engine="gsnp", window=WINDOW, devices=3),
            None, None, None,
        )
        shards = plan_shards(dataset.n_sites, WINDOW, None, 3)
        sched = _Scheduler(
            job, shards, None, resident=False, max_retries=0,
            backoff_base=0.0,
        )
        try:
            thief, live, dead = sched.lanes
            live.deque.extend((s, 0) for s in shards[:3])
            live.predicted_cost = 1.0
            dead.deque.append((shards[3], 0))
            dead.dead = True
            # An observed thief far ahead in modeled time.
            thief.shards_run, thief.modeled_seconds = 1, 10.0
            assert not sched._steal_helps(thief, live)
            assert sched._next_task(thief) == (shards[3], 0)
            assert sched._next_task(thief) is None
            assert len(live.deque) == 3
        finally:
            sched.close()

    def test_error_kind_also_retires(self, dataset, serial):
        plan = FaultPlan((FaultSpec(
            site="gpusim.device.fail", key=0, times=1, kind="error",
        ),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            res = _run(dataset, devices=2, faults=plan)
        _assert_parity(res, serial)
        assert [
            l["lane"]
            for l in res.extras["exec"]["hetero"]["lanes"] if l["dead"]
        ] == ["gpu0"]

    def test_all_devices_die_falls_back_to_host(self, dataset, serial):
        plan = FaultPlan(tuple(
            FaultSpec(site="gpusim.device.fail", key=k, times=1, kind="alloc")
            for k in (0, 1)
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _run(dataset, devices=2, faults=plan)
        _assert_parity(res, serial)
        h = res.extras["exec"]["hetero"]
        assert all(l["dead"] for l in h["lanes"] if l["kind"] == "gpu")
        # The coordinator's fallback host lane ran every leftover shard.
        fallback = [l for l in h["lanes"] if l["kind"] == "cpu"]
        assert sum(l["shards"] for l in fallback) \
            == res.extras["exec"]["n_shards"]
        assert any(
            "host-engine" in str(w.message) for w in caught
            if issubclass(w.category, DegradationWarning)
        )

    def test_shard_retry_rung_still_merges(self, dataset, serial):
        plan = FaultPlan((FaultSpec(
            site="exec.shard.error", key=2, times=1,
        ),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _run(dataset, devices=2, faults=plan)
        _assert_parity(res, serial)
        assert any(
            "shard-retry" in str(w.message) for w in caught
            if issubclass(w.category, DegradationWarning)
        )
        assert res.extras["exec"]["retries"] == 1
        # The retried shard stayed on a pool lane (no lane died).
        retried = [r for r in res.extras["shards"] if r["attempts"] == 2]
        assert [r["index"] for r in retried] == [2]
        assert retried[0]["pid"] in (0, 1)

    def test_journal_resume_on_pool(self, dataset, serial, tmp_path):
        spec = JobSpec(
            engine="gsnp", window=WINDOW, devices=2, cpu_steal=True,
            journal=str(tmp_path / "journal"),
        )
        poison = FaultPlan((FaultSpec(
            site="exec.shard.error", key=7, times=99,
        ),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with pytest.raises(ShardError):
                execute(
                    dataset, spec=replace(spec, faults=poison),
                    max_retries=0,
                )
        committed = len(list((tmp_path / "journal").rglob("shard-*.pkl")))
        res = execute(dataset, spec=replace(spec, resume=True))
        assert 0 < committed < res.extras["exec"]["n_shards"]
        assert res.extras["exec"]["resumed"] == committed
        _assert_parity(res, serial)


class TestResidencyKeying:
    """Two pool devices must never alias one table upload."""

    def _tables(self):
        pm = np.linspace(0.01, 1.0, 64 * 256 * 16)
        penalty = np.arange(256, dtype=np.int64)
        return pm, penalty

    def test_per_device_upload_and_key(self):
        from repro.core.likelihood import GsnpTables

        pool = DevicePool(2)
        pm, penalty = self._tables()
        d0, d1 = pool.device(0), pool.device(1)
        t0 = GsnpTables.load(d0, pm, penalty)
        t1 = GsnpTables.load(d1, pm, penalty)
        # Distinct uploads: each device moved its own copy over the link.
        assert d0.transfers.h2d_bytes > 0
        assert d1.transfers.h2d_bytes > 0
        assert t0.pm_dev is not t1.pm_dev
        # Same-device reload is a residency hit, cross-device never is.
        before = d0.transfers.h2d_bytes
        again = GsnpTables.load(d0, pm, penalty)
        assert again is t0
        assert d0.transfers.h2d_bytes == before
        # The resident keys embed the owning device's identity.
        summary = pool.resident_summary()
        for key, holders in summary.items():
            assert len(holders) == 1, (
                f"resident key {key!r} shared by devices {holders}"
            )
        pool.release()

    def test_acquire_device_standalone(self):
        dev = acquire_device(sanitize=True)
        assert dev.sanitizer is not None
        dev.sanitize_teardown(strict=True)

    def test_devices_are_constructed_only_by_the_pool(self):
        """Every simulated device in the package comes from the pool
        layer (``DevicePool`` / ``acquire_device``), so none escapes the
        shared-link accounting or the device-keyed residency."""
        root = Path(__file__).parents[1] / "src" / "repro"
        sites = set()
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if isinstance(node, ast.Call) and name == "Device":
                    sites.add(path.relative_to(root).as_posix())
        assert sites == {"gpusim/pool.py"}


class TestCostModel:
    def test_predict_split_sums_and_orders(self):
        counts = predict_split(10, 4, False, 100.0, 1.0)
        assert sum(counts) == 10 and len(counts) == 4
        assert max(counts) - min(counts) <= 1
        counts = predict_split(9, 2, True, 100.0, 1.0)
        assert len(counts) == 3 and sum(counts) == 9
        # The slow CPU lane seeds empty; remainders go to GPU lanes.
        assert counts[-1] == 0

    def test_predict_split_validates(self):
        with pytest.raises(ValueError):
            predict_split(-1, 2, False, 1.0, 1.0)
        with pytest.raises(ValueError):
            predict_split(4, 0, False, 1.0, 1.0)
        with pytest.raises(ValueError):
            predict_split(4, 2, False, 0.0, 1.0)

    def test_predict_lane_rates_gpu_faster(self):
        gpu, cpu = predict_lane_rates(10_000, 10_000 * 10)
        assert gpu > cpu > 0

    def test_host_link_serializes(self):
        spec = HostLinkSpec(bandwidth=1e9, per_transfer_overhead=1e-6)
        link = HostLink(spec)
        link.charge(0, 500_000_000, "h2d")
        link.charge(1, 500_000_000, "d2h")
        link.note_launch(0)
        total = link.total()
        assert total.total_bytes == 1_000_000_000
        assert total.total_count == 2
        assert total.launches == 1
        assert link.serialized_seconds() == pytest.approx(1.0 + 2e-6)
        with pytest.raises(DeviceError):
            link.charge(0, 1, "sideways")

    def test_pool_makespan(self):
        model = PoolCostModel(HostLinkSpec(
            bandwidth=1e9, per_transfer_overhead=0.0,
        ))
        lanes = [
            LaneUsage(compute_seconds=2.0, transfer_bytes=10**9,
                      transfer_count=1),
            LaneUsage(compute_seconds=3.0, transfer_bytes=10**9,
                      transfer_count=1),
        ]
        # max(compute) + serialized link of both lanes' bytes.
        assert model.makespan(lanes) == pytest.approx(3.0 + 2.0)
        assert model.makespan([]) == 0.0


class TestSpecValidation:
    def test_devices_require_gsnp_engine(self, dataset):
        with pytest.raises(ValueError):
            JobSpec(engine="soapsnp", devices=2).validate()
        with pytest.raises(ValueError):
            JobSpec(engine="gsnp_cpu", cpu_steal=True).validate()
