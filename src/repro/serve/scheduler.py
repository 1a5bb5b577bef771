"""Multi-tenant job scheduling: priority queue, admission, quotas.

The daemon admits work through one :class:`JobScheduler`.  Admission is
decided synchronously at submit time — a full backlog or an exhausted
per-tenant quota raises :class:`AdmissionError` immediately, so a client
is never left holding a job the daemon cannot take (bounded queues are
the service analogue of the executor's bounded in-flight window).

Admitted jobs wait in a priority queue (higher ``priority`` first, FIFO
within a priority level) until a daemon worker thread claims them with
:meth:`JobScheduler.next_job`.  Each :class:`Job` carries its own event
fan-out: any number of client connections can :meth:`Job.subscribe` and
receive ``started``/``output``/``done``/``error`` events; terminal events
replay to late subscribers, so attaching to a finished job still yields
its outcome — for the newest :data:`FINISHED_JOBS_KEPT` finished jobs.
Older ones are forgotten (a ``wait`` on one is an unknown job), because
an inline job's history holds its whole output.

States move strictly ``QUEUED -> RUNNING -> DONE | FAILED``; per-tenant
quota counts jobs in the two live states.
"""

from __future__ import annotations

import heapq
import queue
import threading
from enum import Enum
from typing import Optional

from ..api import JobSpec
from ..errors import GsnpError

#: Finished jobs the scheduler keeps, the newest by finish time.
FINISHED_JOBS_KEPT = 16


class JobState(str, Enum):
    """Lifecycle of a served job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class AdmissionError(GsnpError):
    """Raised when a submit fails admission control (quota/backlog)."""

    def __init__(self, message: str, code: str = "rejected") -> None:
        super().__init__(message)
        #: Machine-readable rejection class (``backlog`` or ``quota``).
        self.code = code


class Job:
    """One admitted calling job and its event fan-out."""

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        tenant: str = "default",
        priority: int = 0,
        inline: bool = False,
        recovered: bool = False,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.tenant = tenant
        self.priority = priority
        #: Stream the output bytes back over the socket (no output path).
        self.inline = inline
        #: Re-enqueued from the ledger after a daemon restart; the runner
        #: resumes from the job's shard journal.
        self.recovered = recovered
        self.state = JobState.QUEUED
        self.summary: Optional[str] = None
        self.error: Optional[str] = None
        self._lock = threading.Lock()
        self._watchers: list[queue.Queue] = []
        self._history: list[dict] = []

    def emit(self, event: dict) -> None:
        """Fan one event out to every subscriber (and the replay log)."""
        with self._lock:
            self._history.append(event)
            watchers = list(self._watchers)
        for q in watchers:
            q.put(event)

    def subscribe(self) -> "queue.Queue[dict]":
        """A queue receiving this job's events (history replays first)."""
        q: queue.Queue = queue.Queue()
        with self._lock:
            for event in self._history:
                q.put(event)
            self._watchers.append(q)
        return q

    def unsubscribe(self, q: "queue.Queue[dict]") -> None:
        """Detach one subscriber queue."""
        with self._lock:
            if q in self._watchers:
                self._watchers.remove(q)

    @property
    def live(self) -> bool:
        """Whether the job still occupies queue/quota capacity."""
        return self.state in (JobState.QUEUED, JobState.RUNNING)


class JobScheduler:
    """Priority queue with admission control and per-tenant quotas."""

    def __init__(
        self,
        max_queued: int = 16,
        tenant_quota: Optional[int] = None,
    ) -> None:
        #: Max live (queued + running) jobs across all tenants.
        self.max_queued = max_queued
        #: Max live jobs per tenant (``None`` = unlimited).
        self.tenant_quota = tenant_quota
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = 0
        self.jobs: dict[str, Job] = {}
        self.counters = {
            "submitted": 0, "rejected": 0, "completed": 0, "failed": 0,
        }

    def _live_counts(self) -> tuple[int, dict[str, int]]:
        total = 0
        by_tenant: dict[str, int] = {}
        for job in self.jobs.values():
            if job.live:
                total += 1
                by_tenant[job.tenant] = by_tenant.get(job.tenant, 0) + 1
        return total, by_tenant

    def submit(self, job: Job) -> None:
        """Admit a job or raise :class:`AdmissionError` (atomic check)."""
        with self._cond:
            total, by_tenant = self._live_counts()
            if total >= self.max_queued:
                self.counters["rejected"] += 1
                raise AdmissionError(
                    f"backlog full: {total}/{self.max_queued} jobs live",
                    code="backlog",
                )
            if (
                self.tenant_quota is not None
                and by_tenant.get(job.tenant, 0) >= self.tenant_quota
            ):
                self.counters["rejected"] += 1
                raise AdmissionError(
                    f"tenant {job.tenant!r} is at its quota of "
                    f"{self.tenant_quota} live job(s)",
                    code="quota",
                )
            self._seq += 1
            heapq.heappush(self._heap, (-job.priority, self._seq, job))
            self.jobs[job.job_id] = job
            self.counters["submitted"] += 1
            self._cond.notify()

    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Claim the highest-priority queued job (or ``None`` on timeout)."""
        with self._cond:
            if not self._heap:
                self._cond.wait(timeout)
            if not self._heap:
                return None
            _, _, job = heapq.heappop(self._heap)
            job.state = JobState.RUNNING
            return job

    def mark_done(self, job: Job, summary: str) -> None:
        """Record successful completion."""
        with self._cond:
            job.summary = summary
            self.counters["completed"] += 1
            self._finish(job, JobState.DONE)

    def mark_failed(self, job: Job, error: str) -> None:
        """Record failure (the job frees its queue/quota slot)."""
        with self._cond:
            job.error = error
            self.counters["failed"] += 1
            self._finish(job, JobState.FAILED)

    def _finish(self, job: Job, state: JobState) -> None:
        """Move ``job`` to ``state`` and to the end of the table, then
        forget all but the newest :data:`FINISHED_JOBS_KEPT` finished
        jobs (under ``_cond``)."""
        job.state = state
        self.jobs[job.job_id] = self.jobs.pop(job.job_id)
        finished = [i for i, j in self.jobs.items() if not j.live]
        for job_id in finished[:-FINISHED_JOBS_KEPT]:
            del self.jobs[job_id]
        self._cond.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is live; ``False`` on timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not any(j.live for j in self.jobs.values()),
                timeout=timeout,
            )

    def get(self, job_id: str) -> Optional[Job]:
        """Look a job up by id."""
        with self._cond:
            return self.jobs.get(job_id)

    def stats(self) -> dict:
        """Counters plus live queue depth, per state and per tenant."""
        with self._cond:
            total, by_tenant = self._live_counts()
            by_state: dict[str, int] = {}
            for job in self.jobs.values():
                key = job.state.value
                by_state[key] = by_state.get(key, 0) + 1
            return {
                **self.counters,
                "live": total,
                "by_tenant": by_tenant,
                "by_state": by_state,
                "max_queued": self.max_queued,
                "tenant_quota": self.tenant_quota,
            }


__all__ = [
    "AdmissionError",
    "Job",
    "JobScheduler",
    "JobState",
]
