"""Sharded execution: one lane scheduler over window-aligned shards.

The execution model mirrors SNAP/SOAP3-dp-style genome sharding: the
parent runs the one-time ``cal_p_matrix`` pass, splits the site range into
window-aligned shards (:mod:`repro.exec.shard`), deals them onto per-lane
deques, and merges the completed shards back in genomic order
(:mod:`repro.exec.merge`).  SOAP3-dp drives several GPUs *and* the host
CPU from one dispatcher; here every execution shape is a set of **lanes**
of one deque scheduler.  A lane is something that owns a pipeline plus a
deque:

* a **pool lane** — one per modeled device (``device_id`` 0..N-1, each
  from :func:`~repro.gpusim.pool.acquire_device`), plus the optional
  ``gsnp_cpu`` host-engine lane (``devices > 1`` or ``cpu_steal``),
  stepped one shard at a time on the calling thread in modeled-clock
  order: a discrete-event simulation, no lane threads;
* a **process lane** — a worker process of its own (``workers > 1``): the
  lane's thread ships ``(shard, attempt)`` down a pipe to *its* child and
  waits, so a dying or overrunning worker costs exactly the shard it held;
* the **serial lane** — ``workers == 1``, a ``resident`` dict, or the
  ``pool-serial-fallback`` rung: exactly one lane, run on the calling
  thread (no thread is spawned, so the caller's resident pipelines stay
  on the thread that owns them).  Like a pool lane it owns its device: a
  sanitizing one when ``spec.sanitize``.

``GsnpDetector.run``, ``gsnp call`` and ``gsnp serve`` come here for
every job, so the shard plan has one rule (:func:`execute`): a serial job
is one shard, and a journaled one is cut every ``MEGABATCH_WINDOWS``
windows so it can checkpoint between shards.  Either way fused
megabatches are cut exactly where a whole-job run cuts them, so launches
and per-phase records equal the whole-job run's.  A shard deadline does
not cut a serial job: the serial lane cannot preempt a shard.

Each lane drains its own deque from the front while idle lanes steal from
the *back* of a dead lane's deque, else the fullest (the classic
owner-pops-head / thief-pops-tail discipline).  Two policies differ by
what the scheduler can observe, not by a second code path.  Pool lanes
have a modeled clock: their initial deal comes from the roofline cost model
(:func:`~repro.gpusim.costmodel.predict_split` — lanes receive shards in
proportion to their predicted rates, and stealing corrects whatever the
prediction got wrong, so a slow device or the CPU path picks up straggler
windows instead of gating the run), and both the step order and the
steals are arbitrated on modeled lane clocks — the schedule is a pure
function of the job.  Lanes without a device clock are dealt evenly and
steal whenever a victim has backlog.

Jobs are described by a :class:`~repro.api.JobSpec` —
``execute(dataset, spec=spec)`` is the only spelling, and the scheduler
reads the spec's fields directly.

Long-lived callers (the ``gsnp-serve`` daemon's
:class:`~repro.serve.runner.ResidentRunner`) pass a ``resident`` dict of
their own and an optional precomputed ``calibration``: the serial lane's
pipeline is then kept in that dict across ``execute`` calls, so a
repeated job over the same dataset skips both the calibration pass and the
device score-table upload.  The caller owns the dict, its counters and
the release of its pipelines; nothing here outlives the call.

A job's ``spec.faults`` plan is active for exactly that job
(:func:`~repro.faults.plan.fault_plan`, a context variable): a concurrent
job on another thread runs without it, and a process lane's child enters
its own copy.

Failure handling (exercised deliberately by :mod:`repro.faults`):

* a failing shard is re-queued at the head of its lane's deque after a
  deterministic, jitter-free exponential backoff
  (``BACKOFF_BASE * 2**attempt`` seconds) up to ``MAX_RETRIES`` times,
  then surfaced as :class:`~repro.errors.ShardError` chaining the last
  exception;
* with ``shard_timeout`` set (process lanes only), a shard that overruns
  its deadline has its lane's worker killed and is retried like any
  failure; a worker that dies outright is restarted the same way;
* an ``AllocationError`` on a lane without a device clock steps the lane
  down the ``device-degraded`` rung (a fresh ``fusion=False`` pipeline of
  its own, released after the shard) and re-runs the shard in place; a
  sanitizing lane device that failed the allocation is replaced by a
  fresh one, since the failed attempt stranded its allocations there;
* a pool lane whose device dies (a real ``AllocationError`` or the seeded
  ``gpusim.device.fail`` chaos site) takes the ``device-failed`` rung: it
  announces itself, pushes its in-hand shard back on its deque and retires
  — surviving lanes steal the orphaned work.  If *every* lane dies, the
  coordinator finishes the leftovers on a fresh host-engine pipeline, so
  the job completes with identical bytes as long as any compute resource
  remains;
* with ``journal`` set, every completed shard is checkpointed atomically
  (:class:`~repro.faults.journal.ShardJournal`); ``resume`` skips
  committed shards on a re-invocation after process death, with a
  bitwise-identical final merge.

Determinism: shard boundaries are window boundaries, every lane produces
the same bytes for a given shard (the three engines are bitwise-identical
by construction), results are keyed by shard index and the merge is
order-restoring — never completion order.  Calls, event counters and
compressed bytes are therefore bitwise identical to a serial run for all
three engines, at any worker or device count, under any steal schedule —
with or without injected faults, retries and resumes.

Modeled time: pool lanes compute concurrently but share one PCIe/host
link, so the pool makespan is ``max(lane compute) + serialized link time``
(:class:`~repro.gpusim.costmodel.PoolCostModel`), reported as
``hetero["modeled"]["makespan_seconds"]``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

from ..api import JobSpec, create_pipeline, effective_window, job_key
from ..errors import (
    AllocationError,
    InjectedFault,
    PipelineError,
    ShardError,
    ShardTimeout,
)
from ..faults.degrade import degrade, logger as fault_logger
from ..faults.journal import ShardJournal
from ..faults.plan import fault_plan, fault_point, scope as fault_scope
from ..gpusim.costmodel import (
    GpuCostModel,
    LaneUsage,
    PoolCostModel,
    predict_lane_rates,
    predict_split,
)
from ..gpusim.device import Device
from ..gpusim.launchplan import MEGABATCH_WINDOWS
from ..gpusim.pool import acquire_device
from .merge import merge_shard_results
from .shard import Shard, ShardResult, plan_shards

#: What the journal key and a resident pipeline's key leave out.
SHARD_KEY_EXCLUDES = ("paths", "run control", "byte-invariant")


def release_pipeline(pipeline) -> None:
    """Free a pipeline's device residency, if its engine keeps any."""
    release = getattr(pipeline, "release_cache", None)
    if release is not None:
        release()


#: Lane id of the host-engine (gsnp_cpu) steal lane.
CPU_LANE = -1

#: Times a failed shard is re-run before the job fails with ShardError.
MAX_RETRIES = 2
#: A shard's k-th retry waits ``BACKOFF_BASE * 2**(k-1)`` seconds
#: (deterministic, jitter-free).
BACKOFF_BASE = 0.02


@dataclass
class _Lane:
    """One scheduler lane: something that owns a pipeline, plus its deque."""

    lane_id: int  # device_id, CPU_LANE for the host lane, else an ordinal
    kind: str  # pool lanes "gpu" | "cpu"; else "process" | "serial"
    device: Optional[Device] = None
    deque: "deque[tuple[Shard, int]]" = field(default_factory=deque)
    #: Built on first use wherever the lane's shards run (the parent, or
    #: a process lane's child) and kept for every later shard.
    pipeline: object = None
    calibration: object = None
    #: The serial lane of a long-lived caller: the caller's pipeline dict,
    #: which keeps the pipeline instead of releasing it with the job.
    resident: Optional[dict] = None
    #: Process lanes: the lane's own child and the parent end of its pipe.
    proc: object = None
    conn: object = None
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
        if self.kind in ("cpu", "serial"):
            return self.kind
        return f"{self.kind}{self.lane_id}"

    @property
    def pooled(self) -> bool:
        """Whether the lane belongs to a device pool: its shards report
        the lane id as ``pid``, and a device that cannot allocate retires
        the lane instead of degrading it."""
        return self.kind in ("gpu", "cpu")


@dataclass(frozen=True)
class _Job:
    """What a lane needs to run any shard of the job; ships once to each
    process lane's child."""

    dataset: object
    spec: JobSpec
    params: object
    calibration: object
    #: Full per-sample alignment batches (sample 0 first; a solo job is
    #: a cohort of one); every lane windows all S samples for its shard
    #: range.
    sample_reads: list


def _lane_pipeline(job: _Job, lane: _Lane):
    """The lane's pipeline, built on first use and kept for its shards:
    the device score tables upload exactly once per lane."""
    if lane.pipeline is not None:
        return lane.pipeline
    spec = job.spec
    lane.calibration = job.calibration
    if lane.kind == "cpu":
        # The host steal lane is the sparse CPU engine; fusion is a
        # device-side concept and stays off there.  The shared calibration
        # was produced by the GPU engine, which leaves the expanded host
        # tables unbuilt; the CPU lane expands them once (memoized by the
        # calibration digest) and reuses the rest.
        from ..core.score_table import cached_new_p_matrix

        spec = replace(spec, engine="gsnp_cpu", fusion=False)
        cal = job.calibration
        lane.calibration = replace(
            cal, new_p_flat=cached_new_p_matrix(cal.pm_flat, cal.digest),
        )
    if lane.resident is not None:
        # Outlive this job: a later job with the same pipeline shape
        # reuses the device and its uploaded tables.
        key = job_key(spec, exclude=SHARD_KEY_EXCLUDES, params=job.params)
        lane.pipeline = lane.resident.get(key)
    if lane.pipeline is None:
        lane.pipeline = create_pipeline(
            spec=spec, params=job.params, device=lane.device
        )
        if lane.resident is not None:
            lane.resident[key] = lane.pipeline
    return lane.pipeline


def _invoke(job: _Job, pipeline, calibration, shard: Shard):
    where = dict(site_range=(shard.start, shard.end), calibration=calibration)
    if len(job.sample_reads) > 1:  # SOAPsnp has no cohort path
        return pipeline.run_cohort(job.dataset, job.sample_reads, **where)
    return pipeline.run(job.dataset, reads=job.sample_reads[0], **where)


def _run_shard(
    job: _Job, lane: _Lane, shard: Shard, attempt: int
) -> ShardResult:
    """Execute one shard on the lane's pipeline; the unit a lane retries.

    Runs wherever the lane's pipeline lives — the parent for pool and
    serial lanes, the lane's child for process lanes.
    """
    with fault_scope(shard=shard.index, attempt=attempt):
        fault_point("exec.worker.crash", key=shard.index)
        if lane.kind == "gpu":
            # Chaos site: a scheduled plan kills this device outright;
            # the lane retires and the other lanes steal its work.
            fault_point("gpusim.device.fail", key=lane.lane_id)
        fault_point("exec.shard.error", key=shard.index)
        fault_point("exec.shard.slow", key=shard.index)
        pipeline = _lane_pipeline(job, lane)
        t0 = time.perf_counter()
        try:
            result = _invoke(job, pipeline, lane.calibration, shard)
        except AllocationError as exc:
            if lane.pooled:
                # A pool device that cannot even allocate is treated as
                # failed hardware, not a footprint to shrink: the
                # multi-device rung is redistribution (``_retire``), and
                # the shard reruns identically on a surviving lane.
                raise
            # Degradation rung: the device could not satisfy the lane's
            # footprint.  Re-run the shard in place on a fresh per-window
            # pipeline (the smallest footprint), released straight after;
            # results are bitwise identical either way.  Lane-local: no
            # process-global state is touched.
            degrade(
                "device-degraded",
                action="re-running shard on a fresh fusion=False pipeline",
                reason=repr(exc),
                shard=shard.index,
                attempt=attempt,
            )
            if lane.resident is not None:
                lane.resident.pop(job_key(
                    job.spec, SHARD_KEY_EXCLUDES, params=job.params), None)
            lane.pipeline = None
            if lane.device is not None:
                # The failed attempt's allocations are stranded on the
                # sanitizing device; like a retired pool device it is
                # dropped unchecked, and the lane goes on with a fresh one.
                lane.device = acquire_device(sanitize=True)
            with fault_scope(degraded=True):
                degraded = create_pipeline(
                    spec=replace(job.spec, fusion=False), params=job.params,
                    device=lane.device,
                )
                try:
                    result = _invoke(job, degraded, job.calibration, shard)
                finally:
                    release_pipeline(degraded)
        wall = time.perf_counter() - t0
    return ShardResult.from_run(
        shard, result, wall=wall, attempts=attempt + 1,
        pid=lane.lane_id if lane.pooled else os.getpid(),
    )


def _worker_main(job: _Job, lane_id: int, conn, parent_end) -> None:
    """A process lane's child: run the shards its lane thread ships."""
    parent_end.close()  # inherited by fork; EOF must mean the parent left
    lane = _Lane(lane_id=lane_id, kind="process")
    with fault_plan(job.spec.faults), contextlib.suppress(EOFError):
        for task in iter(conn.recv, None):  # EOF: the parent left silently
            try:
                outcome = ("ok", _run_shard(job, lane, *task))
            except Exception as exc:  # noqa: BLE001 — forwarded to retry
                outcome = ("err", exc)
            conn.send(outcome)


def _is_device_death(exc: BaseException) -> bool:
    """Whether an exception marks the lane's device as failed hardware."""
    return isinstance(exc, AllocationError) or (
        isinstance(exc, InjectedFault) and exc.site == "gpusim.device.fail"
    )


class _Scheduler:
    """State of one sharded execution (lanes, lock, results)."""

    def __init__(
        self,
        job: _Job,
        shards: list[Shard],
        journal,
        *,
        resident: Optional[dict],
    ) -> None:
        self.job = job
        self.shards = shards
        self.journal = journal
        self.lock = threading.Lock()
        self.results: dict[int, ShardResult] = {}
        self.error: Optional[BaseException] = None
        spec = job.spec
        # Lane construction — the one place devices/cpu_steal/workers are
        # read; everything after it only sees lanes.
        if spec.uses_pool:
            self.lanes = [
                _Lane(lane_id=i, kind="gpu", device=acquire_device(
                    sanitize=spec.sanitize, device_id=i))
                for i in range(spec.devices)
            ]
            if spec.cpu_steal:
                self.lanes.append(_Lane(lane_id=CPU_LANE, kind="cpu"))
        elif resident is not None or spec.workers <= 1:
            # A resident pipeline's device must stay thread-confined, so
            # ``resident`` implies the serial lane.
            self.lanes = [_Lane(
                lane_id=0, kind="serial", resident=resident,
                device=acquire_device(sanitize=True) if spec.sanitize
                else None,
            )]
        else:
            self.lanes = [
                _Lane(lane_id=i, kind="process") for i in range(spec.workers)
            ]
            self._start_workers()
        if spec.shard_timeout is not None and self.lanes[0].kind != "process":
            fault_logger.info(
                "shard_timeout=%s ignored: in-process lanes run a shard "
                "on the calling thread and cannot preempt it",
                spec.shard_timeout,
            )
        if spec.uses_pool and spec.workers > 1:
            fault_logger.info(
                "workers=%s ignored on pool lanes: the shard plan counts "
                "the pool's %d lanes, stepped one at a time on the calling "
                "thread", spec.workers, len(self.lanes),
            )

    # -- process lanes ---------------------------------------------------

    def _start_workers(self) -> None:
        """Start every process lane's child here — on the coordinator
        thread, before any lane thread exists.

        Falling back from multiprocessing to the serial lane is the first
        rung of the degradation ladder and is never silent.  It fires only
        for the two ways a platform can lack working multiprocessing —
        ``OSError`` (no usable synchronization primitives / insufficient
        resources) and ``ImportError`` (no ``_multiprocessing``).
        Anything else (e.g. a ``ValueError`` from a bad ``workers`` count)
        is a programming error and propagates.
        """
        try:
            for lane in self.lanes:
                self._start_worker(lane)
        except (OSError, ImportError) as exc:
            self._stop_workers()
            degrade(
                "pool-serial-fallback",
                action=f"running {len(self.lanes)}-worker job in-process, "
                "serially",
                reason=f"multiprocessing unavailable: {exc!r}",
                workers=len(self.lanes),
            )
            self.lanes = [_Lane(lane_id=0, kind="serial")]
        except BaseException:
            self._stop_workers()
            raise

    def _start_worker(self, lane: _Lane) -> None:
        ctx = multiprocessing.get_context()
        parent_end, child_end = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(self.job, lane.lane_id, child_end, parent_end),
            name=f"gsnp-worker-{lane.lane_id}",
            daemon=True,
        )
        try:
            proc.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            # The child holds its own copy: EOF on the parent end must
            # mean the child is gone.
            child_end.close()
        lane.proc, lane.conn = proc, parent_end

    def _stop_worker(self, lane: _Lane, kill: bool = False) -> None:
        """Dismiss (or kill) the lane's child and **join** it, so its
        CPU/RSS is charged to the caller that used it rather than to
        whoever reaps it later."""
        if lane.proc is None:
            return
        if not kill:
            with contextlib.suppress(OSError):
                lane.conn.send(None)
            lane.proc.join(timeout=5.0)
        if kill or lane.proc.is_alive():
            lane.proc.kill()
            lane.proc.join(timeout=5.0)
        lane.conn.close()
        lane.proc = lane.conn = None

    def _stop_workers(self) -> None:
        for lane in self.lanes:
            self._stop_worker(lane)

    def _ship(self, lane: _Lane, shard: Shard, attempt: int) -> ShardResult:
        """Run one shard on the lane's own child and wait for it."""
        timeout = self.job.spec.shard_timeout
        if lane.proc is None:
            self._start_worker(lane)  # the previous child died or was killed
        try:
            lane.conn.send((shard, attempt))
            if not lane.conn.poll(timeout):
                # The overrunning shard is running arbitrary code and
                # cannot be cancelled cooperatively: kill its process —
                # this lane's only, so no other lane's in-flight shard is
                # disturbed.
                self._stop_worker(lane, kill=True)
                raise ShardTimeout(
                    f"{shard} exceeded its {timeout}s deadline "
                    f"(attempt {attempt + 1})",
                    shard_index=shard.index,
                    deadline=timeout,
                )
            kind, value = lane.conn.recv()
        except (EOFError, OSError) as exc:
            # The worker died outright; the lane's next shard restarts it.
            self._stop_worker(lane, kill=True)
            raise PipelineError(
                f"worker process died while executing {shard}"
            ) from exc
        if kind == "err":
            raise value
        return value

    # -- initial deal ----------------------------------------------------

    def deal(self) -> list[int]:
        """Seed the lane deques: from the cost model's predicted split on
        a device pool, evenly where no lane has a device clock."""
        # No device clock to predict from: equal unit rates, which
        # predict_split apportions as the even deal.
        gpu_rate = cpu_rate = 1.0
        if self.lanes[0].pooled:
            gpu_rate, cpu_rate = predict_lane_rates(
                self.job.dataset.n_sites,
                self.job.calibration.total_reads
                * (self.job.dataset.reads.read_len or 100),
            )
        host_lane = self.lanes[-1].kind == "cpu"
        counts = predict_split(
            len(self.shards), len(self.lanes) - host_lane, host_lane,
            gpu_rate, cpu_rate,
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

    # -- the work-stealing loop ------------------------------------------

    def _steal_helps(self, thief: _Lane, victim: _Lane) -> bool:
        """Whether a steal improves the *modeled* finish time.

        On a device pool stealing is arbitrated on modeled lane clocks:
        the thief takes a shard only if it would finish it before the
        victim would have drained its own deque.  A thief that has not
        run a shard yet has no observed cost — its first steal is allowed
        whenever the victim has a backlog to spare, which bootstraps its
        cost estimate (and guarantees an idle CPU lane's first act is a
        steal).

        Lanes with no device clock (worker processes) have nothing to
        model: wall time is the only clock, so an idle lane steals
        whenever a victim has backlog.
        """
        if not thief.pooled:
            return True
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

    def _next_task(self, lane: _Lane) -> Optional[tuple[Shard, int]]:
        """Pop the lane's next shard, stealing when its deque is empty.

        Owner pops from the head of its own deque; a thief takes from the
        *tail* of another deque — a dead lane's before any live one's
        (orphaned work is always stealable: nobody else will drain it),
        else the fullest.  A steal grabs *half the victim's backlog* (at
        least one shard), Cilk-style: the thief runs the first stolen
        shard now and queues the rest on its own deque, so an imbalance
        is corrected in O(log n) steals instead of one steal per shard.
        Tail order is preserved, which keeps the schedule deterministic
        for a given step order — output bytes are schedule-independent
        regardless.  Returns ``(shard, attempt)`` or ``None`` when every
        deque is empty or no steal would help.
        """
        with self.lock:
            if self.error is not None:
                return None
            if lane.deque and not lane.dead:
                return lane.deque.popleft()
            victims = [
                other
                for other in self.lanes
                if other is not lane and other.deque
            ]
            if not victims or lane.dead:
                return None
            victim = max(
                victims, key=lambda o: (o.dead, len(o.deque), -o.lane_id)
            )
            if not victim.dead and not self._steal_helps(lane, victim):
                return None
            grab = max(1, len(victim.deque) // 2)
            taken = [victim.deque.pop() for _ in range(grab)]
            lane.steals += grab
            # ``taken`` came off the tail newest-first; re-queue the
            # surplus on the thief preserving the victim's order.
            for entry in reversed(taken[:-1]):
                lane.deque.append(entry)
            return taken[-1]

    def _record(self, lane: _Lane, sr: ShardResult) -> None:
        profile = sr.profile
        xfer = sum(r.transfer_bytes for r in profile.records.values())
        with self.lock:
            self.results[sr.shard.index] = sr
            lane.shards_run += 1
            lane.modeled_seconds += profile.total_modeled()
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

    def _step(self, lane: _Lane) -> bool:
        """One step of a lane: take its next shard, run it, then record
        it, re-queue it (the one retry/backoff/``ShardError`` rung) or
        retire the lane.  Returns whether the lane is still schedulable."""
        t0 = time.perf_counter()
        try:
            task = self._next_task(lane)
            if task is None:
                return False
            shard, attempt = task
            try:
                if lane.kind == "process":
                    sr = self._ship(lane, shard, attempt)
                else:
                    sr = _run_shard(self.job, lane, shard, attempt)
            except Exception as exc:  # noqa: BLE001 — retried below
                if lane.pooled and _is_device_death(exc):
                    self._retire(lane, shard, attempt, exc)
                    return False
                if attempt >= MAX_RETRIES:
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
                    return False
                delay = BACKOFF_BASE * (2 ** attempt)
                degrade(
                    "shard-retry",
                    action=f"re-queueing on lane {lane.name} in "
                    f"{delay:.3f}s (attempt {attempt + 2}/"
                    f"{MAX_RETRIES + 1})",
                    reason=repr(exc),
                    shard=shard.index,
                )
                time.sleep(delay)
                with self.lock:
                    lane.deque.appendleft((shard, attempt + 1))
                return True
            self._record(lane, sr)
            return True
        except BaseException as exc:
            # Not a shard failure (e.g. the journal commit raised): stop
            # every lane; the coordinator re-raises it.
            with self.lock:
                if self.error is None:
                    self.error = exc
            return False
        finally:
            lane.wall += time.perf_counter() - t0

    def _run_lanes(self, lanes: list[_Lane]) -> None:
        """Step ``lanes`` on this thread until none is schedulable: the
        next step goes to the smallest modeled clock (the one
        ``_steal_helps`` arbitrates on), never to whichever lane the
        simulator emulated fastest.  Ties go to the earlier lane (devices
        by id, the host lane last), so every owner pops its own head
        before the host lane's bootstrap steal looks at the deques.
        """
        live = list(lanes)
        while live:
            lane = min(live, key=lambda l: l.modeled_seconds)
            if not self._step(lane):
                live.remove(lane)

    # -- coordinator -----------------------------------------------------

    def run(self) -> None:
        """Drain every deque: in-process lanes on the calling thread,
        process lanes (which block on their children) on one each."""
        if self.lanes[0].kind == "process":
            threads = [
                threading.Thread(
                    target=self._run_lanes, args=([lane],),
                    name=f"gsnp-lane-{lane.name}", daemon=True,
                )
                for lane in self.lanes
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        else:
            self._run_lanes(self.lanes)
        if self.error is not None:
            raise self.error
        self._fallback_leftovers()

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
            t0 = time.perf_counter()
            self._record(lane, _run_shard(self.job, lane, shard, 0))
            lane.wall += time.perf_counter() - t0
        self.lanes.append(lane)

    def lane_usages(self) -> list[LaneUsage]:
        """Per-lane modeled usage with transfers separated onto the link."""
        gpu_model = GpuCostModel()
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
        """Scheduler metadata; the ``hetero`` block (per-lane stats, steal
        counts, link traffic, modeled makespan) exists only for device
        pools — consumers switch their modeled-time formula on it — and
        is also what the serve daemon's runner tallies."""
        if not self.lanes[0].pooled:
            return {"pool": self.lanes[0].kind}
        pool_model = PoolCostModel()
        usages = self.lane_usages()
        devices = [lane.device for lane in self.lanes if lane.device]
        per_device = [
            {
                "device": dev.device_id,
                "launches": dev.counters.total().launches,
                "h2d_bytes": dev.transfers.h2d_bytes,
                "d2h_bytes": dev.transfers.d2h_bytes,
                "h2d_count": dev.transfers.h2d_count,
                "d2h_count": dev.transfers.d2h_count,
                "resident_entries": len(dev.resident),
                "resident_hits": dev.resident.hits,
                "resident_misses": dev.resident.misses,
            }
            for dev in devices
        ]
        lanes_meta = [
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
            for lane, usage in zip(self.lanes, usages)
        ]
        hetero = {
            "devices": self.job.spec.devices,
            "cpu_steal": self.job.spec.cpu_steal,
            "initial_split": list(counts),
            "steals": sum(l.steals for l in self.lanes),
            "lanes": lanes_meta,
            "per_device": per_device,
            # The devices' own transfer logs summed; the pool's one link
            # time is ``modeled.link_seconds``.
            "link": {
                key: sum(row[key] for row in per_device)
                for key in ("h2d_bytes", "d2h_bytes", "h2d_count", "d2h_count")
            },
            "pool_launches": sum(row["launches"] for row in per_device),
            "modeled": {
                "makespan_seconds": pool_model.makespan(usages),
                "link_seconds": pool_model.link_seconds(usages),
                "compute_seconds_max": max(
                    (u.compute_seconds for u in usages), default=0.0
                ),
            },
        }
        return {"pool": "hetero", "hetero": hetero}

    def device(self) -> Optional[Device]:
        """The device of a one-lane in-process run — what a pipeline run
        reports as ``extras["device"]`` — else ``None``."""
        if len(self.lanes) != 1 or self.lanes[0].kind != "serial":
            return None
        lane = self.lanes[0]
        return lane.device or getattr(lane.pipeline, "_cached_device", None)

    def close(self) -> None:
        """Join worker processes and release every non-resident lane
        pipeline (with it, a pool device's residency); leak-check every
        sanitized lane device that survived the run."""
        with self.lock:
            # Lane threads that outlived an interrupted coordinator stop
            # at their next shard instead of draining the job unattended.
            self.error = self.error or PipelineError("scheduler closed")
        self._stop_workers()
        for lane in self.lanes:
            if lane.resident is None:
                release_pipeline(lane.pipeline)
            dev = lane.device
            if dev is not None and dev.sanitizer is not None and not lane.dead:
                dev.resident.clear()
                dev.sanitize_teardown(strict=True)


def calibrate_job(dataset, spec: JobSpec, sample_reads: list, params=None):
    """The one-time ``cal_p_matrix`` input pass for one job, where its
    reads first meet its reference: every sample is checked against the
    reference first (a typed :class:`~repro.errors.FormatError`).

    A cohort calibrates over the pooled reads of all samples: one
    calibration digest, one resident score-table set per device.
    """
    from ..core.cohort import check_sample_reads, pooled_batch

    check_sample_reads(dataset.reference, sample_reads)
    pipeline = create_pipeline(spec=spec, params=params)
    return pipeline.calibrate(dataset, reads=pooled_batch(sample_reads))


def execute(
    dataset,
    *,
    spec: JobSpec,
    params=None,
    calibration=None,
    resident: Optional[dict] = None,
    sample_reads=None,
):
    """Run a calling job as window-aligned shards on the lane scheduler.

    ``spec`` carries every job-level knob; the retry budget and backoff
    are the module constants ``MAX_RETRIES`` and ``BACKOFF_BASE``, and a
    shard that exhausts the budget raises
    :class:`~repro.errors.ShardError`.  Nothing is written here: the
    caller renders result files from the returned result with
    :func:`repro.serve.runner.write_job_output`, so a job that raises
    leaves no output file.

    Returns a :class:`~repro.soapsnp.pipeline.CallResult` with tables,
    compressed output and merged event counters bitwise/exactly equal to
    the serial path; ``extras['shards']`` carries per-shard
    timing/throughput metrics and ``extras['exec']`` the scheduler
    configuration.

    Long-lived callers pass ``calibration=`` (a previously computed
    calibration for this dataset/engine/params, skipping the input pass)
    and ``resident=`` (a dict of their own that keeps the serial lane's
    pipeline, device and uploaded tables across calls; implies the serial
    lane, so the resident device stays on the caller's thread).  With
    ``resident=None`` the pipeline is released with the job.

    ``sample_reads`` is the job's list of full alignment batches (sample
    0 first) that every shard slices by its own site range via the window
    reader; by default the dataset's own reads, then one parse per
    ``spec.samples`` path, so a solo job is a cohort of one.  Every shard
    calls ``run_cohort`` over all S samples for its windows (``run`` for
    S = 1), so per-sample merged outputs are bitwise identical to S solo
    runs sharing the pooled calibration.
    """
    from ..core.cohort import load_sample_batches

    spec = spec.validate()
    eff_window = effective_window(spec.engine, spec.window)
    if sample_reads is None:
        sample_reads = load_sample_batches(dataset, spec)
    sample_reads = list(sample_reads)
    if not sample_reads:
        raise ValueError("sample_reads must name at least one sample")

    # Skipped entirely when the caller supplies a cached calibration for
    # this dataset/engine/params.
    if calibration is None:
        calibration = calibrate_job(dataset, spec, sample_reads, params)
    # The one shard-plan rule: shards are planned for the job's lanes —
    # a device pool's N devices plus the optional host lane (``workers``
    # does not reach a pool), else ``workers``.  A serial job is one
    # shard; a journaled one checkpoints every megabatch, so its shards
    # cut the fused chain where a whole-job run cuts it.
    lanes = (
        spec.devices + spec.cpu_steal if spec.uses_pool else spec.workers
    )
    shard_size = spec.shard_size
    if shard_size is None and lanes == 1:
        shard_size = (
            MEGABATCH_WINDOWS * eff_window if spec.journal
            else dataset.n_sites
        )
    shards = plan_shards(dataset.n_sites, eff_window, shard_size, lanes)

    # Crash-safe checkpointing: the journal is keyed by the job's content
    # address, so resume can never splice results of another run.
    journal = None
    committed: dict[int, ShardResult] = {}
    if spec.journal is not None:
        key = job_key(
            spec, exclude=SHARD_KEY_EXCLUDES,
            reference=dataset.reference.codes,
            reads=sample_reads,
            prior=dataset.prior, params=calibration.params,
            calibration=calibration.digest,
            shards=[(s.start, s.end) for s in shards],
        )
        journal = ShardJournal(spec.journal, key)
        if spec.resume:
            committed = journal.load(shards)
            if committed:
                fault_logger.info(
                    "resume: %d/%d shards already committed in %s; "
                    "skipping them",
                    len(committed), len(shards), journal.dir,
                )

    t0 = time.perf_counter()
    job = _Job(
        dataset,
        replace(spec, window=eff_window, variant=spec.resolved_variant()),
        params, calibration, sample_reads,
    )
    with fault_plan(spec.faults):
        run = _Scheduler(
            job, [s for s in shards if s.index not in committed], journal,
            resident=resident,
        )
        try:
            counts = run.deal()
            run.run()
            ran = list(run.results.values())
            sched_meta, device = run.meta(counts), run.device()
        finally:
            run.close()
    exec_meta = {
        "workers": spec.workers,
        "shard_size": shards[0].n_sites if shards else 0,
        "n_shards": len(shards),
        "fusion": spec.fusion,
        "retries": sum(sr.attempts - 1 for sr in ran),
        "resumed": len(committed),
        "shard_timeout": spec.shard_timeout,
        "samples": len(sample_reads),
        "wall": time.perf_counter() - t0,
        **sched_meta,
    }
    return merge_shard_results(
        list(committed.values()) + ran, calibration,
        exec_meta=exec_meta, device=device,
    )
