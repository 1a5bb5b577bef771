"""Heterogeneous multi-device scheduling with deque-based work stealing.

SOAP3-dp splits one short-read workload across several GPUs *and* the host
CPU at once; this module is that scheduler for the simulated pool.  A job
with ``devices > 1`` or ``cpu_steal`` runs here instead of the process
pool: window-aligned shards (the same plan the sharded executor uses) are
dealt onto per-lane deques — one lane per pool device, plus an optional
``gsnp_cpu`` host-engine lane — and each lane drains its own deque from
the front while idle lanes steal from the *back* of the fullest deque
(the classic owner-pops-head / thief-pops-tail discipline).  The initial
deal comes from the roofline cost model
(:func:`~repro.gpusim.costmodel.predict_split`): lanes receive shards in
proportion to their predicted rates, and stealing corrects whatever the
prediction got wrong, so a slow device or the CPU path picks up straggler
windows instead of gating the run.

Correctness is schedule-independent: every lane produces the same bytes
for a given shard (the three engines are bitwise-identical by
construction), results are keyed by shard index, and the final merge is
the executor's ordered :func:`~repro.exec.merge.merge_shard_results` —
never completion order.  The output is bitwise identical to a serial run
for any device count, any steal schedule, with fusion/prefetch/residency/
sanitizer on or off.

Failure handling extends the degradation ladder with the ``device-failed``
rung: a lane whose device dies (a real ``AllocationError`` or the seeded
``gpusim.device.fail`` chaos site) announces itself, pushes its in-hand
shard back on its deque and retires — surviving lanes steal the orphaned
work.  If *every* lane dies, the coordinator finishes the leftovers on a
fresh host-engine pipeline, so the job completes with identical bytes as
long as any compute resource remains.

Modeled time: lanes compute concurrently but share one PCIe/host link, so
the pool makespan is ``max(lane compute) + serialized link time``
(:class:`~repro.gpusim.costmodel.PoolCostModel`) — the number
``gsnp-bench``'s multi-device arm reports against the paper's
cluster-scale tables.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

from ..api import JobSpec, create_pipeline
from ..errors import AllocationError, ShardError
from ..faults.degrade import degrade
from ..faults.plan import fault_point, scope as fault_scope
from ..gpusim.costmodel import (
    GpuCostModel,
    LaneUsage,
    PoolCostModel,
    predict_lane_rates,
    predict_split,
)
from ..gpusim.device import Device
from ..gpusim.pool import DevicePool
from .shard import Shard, ShardResult

#: Lane id of the host-engine (gsnp_cpu) steal lane.
CPU_LANE = -1


@dataclass
class _Lane:
    """One scheduler lane: a device (or the host engine) plus its deque."""

    lane_id: int  # device_id, or CPU_LANE for the host lane
    kind: str  # "gpu" | "cpu"
    device: Optional[Device] = None
    deque: "deque[tuple[Shard, int]]" = field(default_factory=deque)
    pipeline: object = None
    dead: bool = False
    #: Roofline-predicted modeled seconds per shard, set at deal time;
    #: the steal arbiter's stand-in until the lane has observed costs.
    predicted_cost: float = 0.0
    #: Shards this lane completed / stole from other lanes.
    shards_run: int = 0
    steals: int = 0
    #: Modeled seconds of the shards this lane ran (incl. transfer time).
    modeled_seconds: float = 0.0
    #: Host<->device bytes this lane's shards moved.
    transfer_bytes: int = 0
    wall: float = 0.0

    @property
    def name(self) -> str:
        return "cpu" if self.kind == "cpu" else f"gpu{self.lane_id}"


def _shard_model(profile) -> tuple[float, int]:
    """(modeled seconds, transfer bytes) of one shard's profile."""
    total = profile.total_modeled()
    xfer = sum(r.transfer_bytes for r in profile.records.values())
    return total, xfer


class _HeteroRun:
    """State of one heterogeneous execution (lanes, lock, results)."""

    def __init__(
        self,
        dataset,
        spec: JobSpec,
        params,
        calibration,
        shards: list[Shard],
        config,
        journal,
        sample_reads=None,
    ) -> None:
        self.dataset = dataset
        self.spec = spec
        self.params = params
        self.calibration = calibration
        self.shards = shards
        self.config = config
        self.journal = journal
        #: Cohort mode: full per-sample alignment batches (sample 0
        #: first); every lane windows all S samples for its shard range.
        self.sample_reads = sample_reads
        self.lock = threading.Lock()
        self.results: dict[int, ShardResult] = {}
        self.error: Optional[BaseException] = None
        self.pool = DevicePool(spec.devices, sanitize=spec.sanitize)
        self.lanes: list[_Lane] = [
            _Lane(lane_id=dev.device_id, kind="gpu", device=dev)
            for dev in self.pool
        ]
        if spec.cpu_steal:
            self.lanes.append(_Lane(lane_id=CPU_LANE, kind="cpu"))
        # Lane concurrency: by default every lane runs at once; an explicit
        # --workers N caps the number of simultaneously busy lanes (the
        # deques and steal policy are unchanged, so output is identical).
        busy = (
            len(self.lanes)
            if spec.workers <= 1
            else min(spec.workers, len(self.lanes))
        )
        self.busy_sem = threading.BoundedSemaphore(busy)
        self._cpu_calibration = None

    # -- initial deal ----------------------------------------------------

    def deal(self) -> list[int]:
        """Seed the lane deques from the cost model's predicted split."""
        reads = self.dataset.reads
        gpu_rate, cpu_rate = predict_lane_rates(
            self.dataset.n_sites,
            self.calibration.total_reads * (reads.read_len or 100),
        )
        counts = predict_split(
            len(self.shards),
            self.spec.devices,
            self.spec.cpu_steal,
            gpu_rate,
            cpu_rate,
        )
        avg_sites = (
            sum(s.n_sites for s in self.shards) / len(self.shards)
            if self.shards
            else 0.0
        )
        for lane in self.lanes:
            rate = cpu_rate if lane.kind == "cpu" else gpu_rate
            lane.predicted_cost = avg_sites / rate
        # Interleaved deal: lane quotas are consumed round-robin over the
        # shard list so every lane's deque spans the genome (ragged read
        # depth then averages out within each lane).
        remaining = list(counts)
        lane_idx = 0
        for shard in self.shards:
            while remaining[lane_idx] == 0:
                lane_idx = (lane_idx + 1) % len(self.lanes)
            self.lanes[lane_idx].deque.append((shard, 0))
            remaining[lane_idx] -= 1
            lane_idx = (lane_idx + 1) % len(self.lanes)
        return counts

    # -- lane pipelines --------------------------------------------------

    def _lane_spec(self, lane: _Lane) -> JobSpec:
        # Each lane is a plain serial single-device pipeline; the pool
        # shape lives in the scheduler, not in the lane's spec.
        base = replace(self.spec, devices=1, cpu_steal=False)
        if lane.kind == "cpu":
            # The host steal lane is the sparse CPU engine; fusion is a
            # device-side concept and stays off there.
            return replace(base, engine="gsnp_cpu", fusion=False)
        return base

    def _lane_calibration(self, lane: _Lane):
        if lane.kind == "gpu":
            return self.calibration
        # The shared calibration was produced by the GPU engine, which
        # leaves the expanded host tables unbuilt; the CPU lane expands
        # them once (memoized by pm_flat fingerprint) and reuses the rest.
        if self._cpu_calibration is None:
            from ..core.score_table import cached_new_p_matrix

            self._cpu_calibration = replace(
                self.calibration,
                new_p_flat=cached_new_p_matrix(self.calibration.pm_flat),
            )
        return self._cpu_calibration

    def _lane_pipeline(self, lane: _Lane):
        if lane.pipeline is None:
            lane.pipeline = create_pipeline(
                spec=self._lane_spec(lane),
                params=self.params,
                device=lane.device,
            )
        return lane.pipeline

    # -- the work-stealing loop ------------------------------------------

    def _steal_helps(self, thief: _Lane, victim: _Lane) -> bool:
        """Whether a steal improves the *modeled* finish time.

        Lanes race in Python wall time, which bears no relation to the
        modeled hardware speeds (a simulated kernel is slower to emulate
        than the sparse host loop is to run).  Stealing is therefore
        arbitrated on modeled lane clocks: the thief takes a shard only
        if it would finish it before the victim would have drained its
        own deque.  A thief that has not run a shard yet has no observed
        cost — its first steal is allowed whenever the victim has a
        backlog to spare, which bootstraps its cost estimate (and
        guarantees an idle CPU lane's first act is a steal).
        """
        if not thief.shards_run:
            return len(victim.deque) >= (2 if thief.kind == "cpu" else 1)
        thief_cost = thief.modeled_seconds / thief.shards_run
        # An unobserved victim's backlog is priced from the roofline
        # predictor, not the thief's own cost — a CPU thief pricing a GPU
        # deque at CPU rates would justify stealing the whole queue.
        victim_cost = (
            victim.modeled_seconds / victim.shards_run
            if victim.shards_run
            else victim.predicted_cost
        )
        return (
            thief.modeled_seconds + thief_cost
            <= victim.modeled_seconds + len(victim.deque) * victim_cost
        )

    def _next_task(self, lane: _Lane) -> Optional[tuple[Shard, int, bool]]:
        """Pop the lane's next shard, stealing when its deque is empty.

        Owner pops from the head of its own deque; a thief takes from the
        *tail* of the fullest other deque (including a dead lane's — that
        is how orphaned work drains).  A steal grabs *half the victim's
        backlog* (at least one shard), Cilk-style: the thief runs the
        first stolen shard now and queues the rest on its own deque, so
        an imbalance is corrected in O(log n) steals instead of one
        lock-contended steal per shard.  Tail order is preserved, which
        keeps the schedule deterministic for a given interleaving —
        output bytes are schedule-independent regardless.  Returns
        ``(shard, attempt, stolen)`` or ``None`` when every deque is
        empty or no steal would help.
        """
        with self.lock:
            if self.error is not None:
                return None
            if lane.deque and not lane.dead:
                shard, attempt = lane.deque.popleft()
                return shard, attempt, False
            victims = [
                other
                for other in self.lanes
                if other is not lane and other.deque
            ]
            if not victims or lane.dead:
                return None
            victim = max(victims, key=lambda o: (len(o.deque), -o.lane_id))
            if not self._steal_helps(lane, victim) and not victim.dead:
                return None
            grab = max(1, len(victim.deque) // 2)
            taken = [victim.deque.pop() for _ in range(grab)]
            lane.steals += grab
            # ``taken`` came off the tail newest-first; re-queue the
            # surplus on the thief preserving the victim's order.
            shard, attempt = taken[-1]
            for entry in reversed(taken[:-1]):
                lane.deque.append(entry)
            return shard, attempt, True

    def _run_one(self, lane: _Lane, shard: Shard, attempt: int) -> ShardResult:
        pipeline = self._lane_pipeline(lane)
        with fault_scope(shard=shard.index, attempt=attempt):
            if lane.kind == "gpu":
                # Chaos site: a scheduled plan kills this device outright;
                # the lane retires and the other lanes steal its work.
                fault_point("gpusim.device.fail", key=lane.lane_id)
            fault_point("exec.shard.error", key=shard.index)
            fault_point("exec.shard.slow", key=shard.index)
            t0 = time.perf_counter()
            if self.sample_reads is not None:
                result = pipeline.run_cohort(
                    self.dataset,
                    self.sample_reads,
                    site_range=(shard.start, shard.end),
                    calibration=self._lane_calibration(lane),
                )
            else:
                result = pipeline.run(
                    self.dataset,
                    site_range=(shard.start, shard.end),
                    calibration=self._lane_calibration(lane),
                )
            wall = time.perf_counter() - t0
        return ShardResult.from_run(
            shard, result, wall=wall, attempts=attempt + 1, pid=lane.lane_id
        )

    def _record(self, lane: _Lane, sr: ShardResult) -> None:
        modeled, xfer = _shard_model(sr.profile)
        with self.lock:
            self.results[sr.shard.index] = sr
            lane.shards_run += 1
            lane.modeled_seconds += modeled
            lane.transfer_bytes += xfer
            if self.journal is not None:
                self.journal.commit(sr)

    def _retire(self, lane: _Lane, shard: Shard, attempt: int,
                exc: BaseException) -> None:
        """The device-failed rung: give the shard back and kill the lane."""
        with self.lock:
            lane.deque.appendleft((shard, attempt))
            lane.dead = True
            survivors = [
                o.name for o in self.lanes if not o.dead and o is not lane
            ]
        degrade(
            "device-failed",
            action="retiring lane %s; %s steal its remaining shards"
            % (lane.name, "/".join(survivors) or "the coordinator fallback"),
            reason=repr(exc),
            lane=lane.name,
            shard=shard.index,
        )

    def _lane_main(self, lane: _Lane) -> None:
        t0 = time.perf_counter()
        try:
            while True:
                task = self._next_task(lane)
                if task is None:
                    return
                shard, attempt, _stolen = task
                try:
                    with self.busy_sem:
                        sr = self._run_one(lane, shard, attempt)
                except AllocationError as exc:
                    # A pool device that cannot even allocate is treated
                    # as failed hardware, not a footprint to shrink: the
                    # multi-device rung is redistribution, and the shard
                    # reruns identically on a surviving lane.
                    self._retire(lane, shard, attempt, exc)
                    return
                except BaseException as exc:
                    if lane.kind == "gpu" and _is_device_death(exc):
                        self._retire(lane, shard, attempt, exc)
                        return
                    if attempt >= self.config.max_retries:
                        with self.lock:
                            if self.error is None:
                                self.error = ShardError(
                                    f"{shard} failed after {attempt + 1} "
                                    f"attempts on lane {lane.name}; last "
                                    f"error: {exc!r}",
                                    shard_index=shard.index,
                                    site_range=(shard.start, shard.end),
                                    attempts=attempt + 1,
                                )
                                self.error.__cause__ = exc
                        return
                    delay = self.config.backoff_base * (2 ** attempt)
                    degrade(
                        "shard-retry",
                        action=f"re-queueing on lane {lane.name} in "
                        f"{delay:.3f}s (attempt {attempt + 2}/"
                        f"{self.config.max_retries + 1})",
                        reason=repr(exc),
                        shard=shard.index,
                    )
                    time.sleep(delay)
                    with self.lock:
                        lane.deque.appendleft((shard, attempt + 1))
                    continue
                self._record(lane, sr)
        finally:
            lane.wall = time.perf_counter() - t0

    # -- coordinator -----------------------------------------------------

    def _fallback_leftovers(self) -> None:
        """Run shards no lane completed on a fresh host-engine pipeline."""
        missing = [s for s in self.shards if s.index not in self.results]
        if not missing:
            return
        degrade(
            "device-failed",
            action=f"running {len(missing)} leftover shard(s) on a fresh "
            "host-engine pipeline",
            reason="no surviving scheduler lane",
            shards=[s.index for s in missing],
        )
        lane = _Lane(lane_id=CPU_LANE, kind="cpu")
        for shard in missing:
            sr = self._run_one(lane, shard, 0)
            self._record(lane, sr)
        self.lanes.append(lane)

    def lane_usages(self) -> list[LaneUsage]:
        """Per-lane modeled usage with transfers separated onto the link."""
        gpu_model = GpuCostModel(self.pool.spec)
        usages = []
        for lane in self.lanes:
            compute = lane.modeled_seconds - gpu_model.transfer_time(
                lane.transfer_bytes
            )
            usages.append(
                LaneUsage(
                    compute_seconds=max(compute, 0.0),
                    transfer_bytes=lane.transfer_bytes,
                    transfer_count=(
                        lane.device.transfers.h2d_count
                        + lane.device.transfers.d2h_count
                        if lane.device is not None
                        else 0
                    ),
                )
            )
        return usages

    def meta(self, counts: list[int]) -> dict:
        pool_model = PoolCostModel(self.pool.link.spec)
        usages = self.lane_usages()
        link_total = self.pool.link.total()
        lanes_meta = []
        for lane, usage in zip(self.lanes, usages):
            lanes_meta.append(
                {
                    "lane": lane.name,
                    "kind": lane.kind,
                    "shards": lane.shards_run,
                    "steals": lane.steals,
                    "dead": lane.dead,
                    "modeled_seconds": lane.modeled_seconds,
                    "compute_seconds": usage.compute_seconds,
                    "transfer_bytes": lane.transfer_bytes,
                    "wall": lane.wall,
                }
            )
        return {
            "devices": self.spec.devices,
            "cpu_steal": self.spec.cpu_steal,
            "initial_split": list(counts),
            "steals": sum(l.steals for l in self.lanes),
            "lanes": lanes_meta,
            "per_device": self.pool.per_device_stats(),
            "link": {
                "h2d_bytes": link_total.h2d_bytes,
                "d2h_bytes": link_total.d2h_bytes,
                "h2d_count": link_total.h2d_count,
                "d2h_count": link_total.d2h_count,
                "launches": link_total.launches,
                "serialized_seconds": self.pool.link.serialized_seconds(),
            },
            "pool_launches": self.pool.total_counters().launches,
            "modeled": {
                "makespan_seconds": pool_model.makespan(usages),
                "link_seconds": pool_model.link_seconds(usages),
                "compute_seconds_max": max(
                    (u.compute_seconds for u in usages), default=0.0
                ),
            },
        }

    def close(self) -> None:
        """Release lane pipelines and pool residency; leak-check sanitized
        devices that survived the run."""
        for lane in self.lanes:
            release = getattr(lane.pipeline, "release_cache", None)
            if release is not None:
                release()
        for dev in self.pool:
            if dev.sanitizer is not None and not any(
                lane.dead for lane in self.lanes
                if lane.device is dev
            ):
                dev.resident.clear()
                dev.sanitize_teardown(strict=True)
        self.pool.release()


def _is_device_death(exc: BaseException) -> bool:
    """Whether an exception marks the lane's device as failed hardware."""
    from ..errors import InjectedFault

    if isinstance(exc, AllocationError):
        return True
    return (
        isinstance(exc, InjectedFault)
        and getattr(exc, "site", "") == "gpusim.device.fail"
    )


def run_hetero(
    dataset,
    spec: JobSpec,
    params,
    calibration,
    shards: list[Shard],
    config,
    journal=None,
    sample_reads=None,
) -> tuple[list[ShardResult], dict]:
    """Execute ``shards`` across the device pool + optional CPU lane.

    Returns the completed :class:`ShardResult` list (unordered — the
    caller's merge restores genomic order) and the scheduler metadata dict
    (per-lane stats, steal counts, link traffic, modeled makespan).
    Raises :class:`~repro.errors.ShardError` if any shard exhausts its
    retry budget on every lane that tried it.
    """
    run = _HeteroRun(dataset, spec, params, calibration, shards, config,
                     journal, sample_reads=sample_reads)
    try:
        counts = run.deal()
        threads = [
            threading.Thread(
                target=run._lane_main, args=(lane,),
                name=f"gsnp-lane-{lane.name}", daemon=True,
            )
            for lane in run.lanes
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if run.error is not None:
            raise run.error
        run._fallback_leftovers()
        meta = run.meta(counts)
        _note_job(meta)
        return list(run.results.values()), meta
    finally:
        run.close()


# -- cumulative pool stats (the serve daemon's /stats "devices" section) ---

_STATS_LOCK = threading.Lock()
_POOL_STATS: dict = {"jobs": 0, "shards": 0, "steals": 0, "last": None}


def _note_job(meta: dict) -> None:
    with _STATS_LOCK:
        _POOL_STATS["jobs"] += 1
        _POOL_STATS["shards"] += sum(l["shards"] for l in meta["lanes"])
        _POOL_STATS["steals"] += meta["steals"]
        _POOL_STATS["last"] = {
            "devices": meta["devices"],
            "cpu_steal": meta["cpu_steal"],
            "steals": meta["steals"],
            "per_device": meta["per_device"],
            "modeled": meta["modeled"],
        }


def pool_stats() -> dict:
    """Cumulative multi-device scheduler stats (plus the last job's
    per-device breakdown), for ``gsnp-serve`` ``/stats``."""
    with _STATS_LOCK:
        return {
            "jobs": _POOL_STATS["jobs"],
            "shards": _POOL_STATS["shards"],
            "steals": _POOL_STATS["steals"],
            "last": _POOL_STATS["last"],
        }


__all__ = ["CPU_LANE", "pool_stats", "run_hetero"]
