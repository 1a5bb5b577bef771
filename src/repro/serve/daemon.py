"""The gsnp-serve daemon: a resident calling service on a Unix socket.

:class:`GsnpServer` ties the service layers together: the line-JSON
protocol (:mod:`repro.serve.protocol`) on a local Unix socket, the
multi-tenant scheduler (:mod:`repro.serve.scheduler`), the resident
runner with its cross-job caches (:mod:`repro.serve.runner`), and the
crash-recovery ledger (:class:`repro.faults.journal.JobLedger`).

Thread model: one acceptor thread owns the listening socket and spawns a
short-lived handler thread per connection; ``workers`` long-lived worker
threads claim jobs off the scheduler and run them in-process through the
serial executor (each thread keeps its own resident pipeline/device in a
dict the runner hands it — the simulated device is thread-confined by
design — and releases them when it exits).

Durability contract: a job with an output path is recorded in the ledger
*before* it is admitted and marked done only *after* its output bytes are
atomically in place.  A daemon killed at any instant therefore restarts
to a ledger whose pending records are exactly the unfinished jobs; it
re-enqueues them with ``resume`` pointing at their shard journals and
produces bitwise-identical output.  Inline jobs (results streamed back
over the socket) die with their client connection and are deliberately
not recovered.
"""

from __future__ import annotations

import contextlib
import logging
import os
import queue
import socket
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..api import JobSpec
from ..faults.journal import JobLedger
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_chunks,
    read_message,
    write_message,
)
from .runner import ResidentRunner
from .scheduler import AdmissionError, Job, JobScheduler

logger = logging.getLogger(__name__)

#: Worker/acceptor/stream poll interval in seconds.
POLL_SECONDS = 0.05


@dataclass(frozen=True)
class ServeConfig:
    """Everything a daemon instance needs to run."""

    #: Unix socket path the daemon listens on (keep it short: the OS caps
    #: socket paths at ~107 bytes).
    socket_path: str = "gsnp-serve.sock"
    #: State directory: job ledger, shard journals, calibration store.
    state_dir: str = "gsnp-serve-state"
    #: Worker threads executing jobs (each with resident device state).
    workers: int = 2
    #: Admission cap on live (queued + running) jobs across tenants.
    max_queued: int = 16
    #: Admission cap on live jobs per tenant (``None`` = unlimited).
    tenant_quota: Optional[int] = None
    #: Parsed-dataset and in-memory calibration LRU size in the runner.
    max_datasets: int = 4


class GsnpServer:
    """A resident multi-tenant SNP-calling service."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.scheduler = JobScheduler(
            max_queued=config.max_queued, tenant_quota=config.tenant_quota
        )
        self.runner = ResidentRunner(
            self.state_dir, max_datasets=config.max_datasets
        )
        self.ledger = JobLedger(self.state_dir / "jobs")
        self.recovered_jobs: list[str] = []
        self._stop = threading.Event()
        self._accepting = True
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._seq_lock = threading.Lock()
        self._seq = 0

    # -- lifecycle ---------------------------------------------------------

    def _next_job_id(self) -> str:
        with self._seq_lock:
            self._seq += 1
            return f"job-{self._seq:05d}-{uuid.uuid4().hex[:6]}"

    def recover(self) -> list[str]:
        """Re-enqueue every ledger-pending job (daemon-restart path).

        Returns the recovered job ids.  Recovered jobs resume from their
        shard journals, so already-committed shards are not re-executed
        and the merged output is bitwise identical to an uninterrupted
        run.
        """
        recovered = []
        for entry in self.ledger.pending():
            try:
                job = Job(
                    str(entry["job_id"]),
                    JobSpec.from_wire(entry["spec"]),
                    tenant=str(entry.get("tenant", "default")),
                    priority=int(entry.get("priority", 0)),
                    recovered=True,
                )
            except (KeyError, TypeError, ValueError) as exc:
                # Unreadable record: leave it pending on disk.
                logger.warning("ledger record %r left on disk, not "
                               "recovered: %r", entry.get("job_id"), exc)
                continue
            try:
                self.scheduler.submit(job)
            except AdmissionError:
                continue  # stays pending; the next restart retries
            recovered.append(job.job_id)
        self.recovered_jobs = recovered
        return recovered

    def start(self) -> None:
        """Recover pending jobs, bind the socket, spawn all threads."""
        self.recover()
        path = self.config.socket_path
        with contextlib.suppress(OSError):
            os.unlink(path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(path)
        except OSError as exc:
            listener.close()
            raise OSError(
                f"cannot bind unix socket {path!r} ({exc}); note the OS "
                "caps socket paths at ~107 bytes"
            ) from exc
        listener.listen(64)
        listener.settimeout(POLL_SECONDS)
        self._listener = listener
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"gsnp-serve-worker-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        t = threading.Thread(
            target=self._accept_loop, name="gsnp-serve-acceptor", daemon=True
        )
        t.start()
        self._threads.append(t)

    def serve_forever(self) -> None:
        """Run until :meth:`shutdown` (or a signal handler) stops us."""
        if self._listener is None:
            self.start()
        self._stop.wait()
        self.close()

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> bool:
        """Stop the daemon; with ``drain``, finish live jobs first."""
        self._accepting = False
        drained = True
        if drain:
            drained = self.scheduler.wait_idle(timeout=timeout)
        self._stop.set()
        return drained

    def close(self) -> None:
        """Release the socket and wait for service threads to exit (each
        worker releases its resident pipelines as it goes)."""
        self._stop.set()
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
            self._listener = None
        with contextlib.suppress(OSError):
            os.unlink(self.config.socket_path)
        for t in self._threads:
            t.join(timeout=2.0)
        self._threads = []

    # -- job execution -----------------------------------------------------

    def _worker_loop(self) -> None:
        with self.runner.pipelines() as pipelines:
            while not self._stop.is_set():
                job = self.scheduler.next_job(timeout=POLL_SECONDS)
                if job is None:
                    continue
                self._run_job(job, pipelines)

    def _run_job(self, job: Job, pipelines: dict) -> None:
        job.emit({"event": "started", "job_id": job.job_id})
        ledgered = job.spec.output is not None
        try:
            outcome = self.runner.run_job(job, pipelines)
        except Exception as exc:  # surface any failure to the client
            if ledgered:
                self.ledger.mark_failed(job.job_id)
            self.scheduler.mark_failed(job, repr(exc))
            job.emit({
                "event": "error", "job_id": job.job_id, "error": repr(exc),
            })
            return
        if ledgered:
            # Output bytes are atomically in place; only now is the job
            # allowed to disappear from the recovery set.
            self.ledger.mark_done(job.job_id)
        self.scheduler.mark_done(job, outcome.summary)
        if job.inline:
            for chunk in encode_chunks(outcome.blob):
                job.emit({**chunk, "job_id": job.job_id})
        job.emit({
            "event": "done",
            "job_id": job.job_id,
            "summary": outcome.summary,
            "wall": outcome.wall,
            "n_sites": outcome.n_sites,
            "recovered": job.recovered,
        })

    # -- connection handling -----------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            t = threading.Thread(
                target=self._handle_conn, args=(conn,), daemon=True
            )
            t.start()

    def _handle_conn(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            message = read_message(rfile)
            if message is None:
                return
            op = message.get("op")
            if op == "ping":
                write_message(wfile, {
                    "event": "pong", "version": PROTOCOL_VERSION,
                    "accepting": self._accepting,
                })
            elif op == "stats":
                write_message(wfile, {"event": "stats", "stats": self.stats()})
            elif op == "submit":
                self._op_submit(message, wfile)
            elif op == "wait":
                self._op_wait(message, wfile)
            elif op == "shutdown":
                self.shutdown(drain=bool(message.get("drain", True)))
                write_message(wfile, {"event": "bye", "stats": self.stats()})
            else:
                write_message(wfile, {
                    "event": "error", "error": f"unknown op {op!r}",
                })
        except OSError:
            pass  # client went away mid-stream; the job continues
        except Exception as exc:  # noqa: BLE001 — the connection boundary
            # A malformed request gets one error event, and so does a bug
            # it provokes (logged): the thread never dies without a reply.
            if not isinstance(exc, ProtocolError):
                logger.exception("request handler failed")
            with contextlib.suppress(OSError, ProtocolError):
                write_message(wfile, {"event": "error", "error": str(exc)})
        finally:
            for closable in (wfile, rfile, conn):
                with contextlib.suppress(OSError):
                    closable.close()

    def _op_submit(self, message: dict, wfile) -> None:
        try:
            spec = JobSpec.from_wire(message.get("spec") or {})
            spec.validate(require_inputs=True)
            if spec.sanitize:
                raise ValueError(
                    "sanitize jobs are not served (thread-confined device "
                    "audit); run gsnp call --sanitize instead"
                )
            if spec.journal or spec.resume:
                raise ValueError(
                    "journal/resume are managed by the daemon; submit the "
                    "job without them"
                )
            priority = message.get("priority", 0)
            if not isinstance(priority, int) or isinstance(priority, bool):
                raise ValueError(
                    "priority must be an integer, got "
                    f"{type(priority).__name__}"
                )
        except ValueError as exc:
            write_message(wfile, {
                "event": "rejected", "error": str(exc), "code": "invalid",
            })
            return
        if not self._accepting:
            write_message(wfile, {
                "event": "rejected", "error": "daemon is draining",
                "code": "draining",
            })
            return
        job = Job(
            self._next_job_id(),
            spec,
            tenant=str(message.get("tenant", "default")),
            priority=priority,
            inline=spec.output is None,
        )
        ledgered = spec.output is not None
        if ledgered:
            # Record BEFORE admission: a crash in the gap re-runs the job
            # (at-least-once) rather than silently losing it.
            self.ledger.record(job.job_id, {
                "spec": spec.to_wire(),
                "tenant": job.tenant,
                "priority": job.priority,
            })
        try:
            self.scheduler.submit(job)
        except AdmissionError as exc:
            if ledgered:
                self.ledger.forget(job.job_id)
            write_message(wfile, {
                "event": "rejected", "error": str(exc), "code": exc.code,
            })
            return
        write_message(wfile, {
            "event": "accepted", "job_id": job.job_id,
            "version": PROTOCOL_VERSION,
        })
        if message.get("wait", True):
            self._stream_job(job, wfile)

    def _op_wait(self, message: dict, wfile) -> None:
        job = self.scheduler.get(str(message.get("job_id")))
        if job is None:
            write_message(wfile, {
                "event": "error",
                "error": f"unknown job {message.get('job_id')!r}",
            })
            return
        self._stream_job(job, wfile)

    def _stream_job(self, job: Job, wfile) -> None:
        q = job.subscribe()
        try:
            while True:
                try:
                    event = q.get(timeout=POLL_SECONDS)
                except queue.Empty:
                    if self._stop.is_set():
                        return
                    continue
                write_message(wfile, event)
                if event.get("event") in ("done", "error"):
                    return
        finally:
            job.unsubscribe(q)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` payload: scheduler, caches, residency, recovery."""
        return {
            "scheduler": self.scheduler.stats(),
            **self.runner.stats(),
            "recovered_jobs": list(self.recovered_jobs),
            "accepting": self._accepting,
        }


__all__ = ["GsnpServer", "ServeConfig"]
