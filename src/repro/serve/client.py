"""Client side of the gsnp-serve protocol (the gsnp submit library).

:class:`ServeClient` opens one Unix-socket connection per request, speaks
the line-JSON protocol (:mod:`repro.serve.protocol`), and exposes the
operations as plain methods.  :meth:`ServeClient.submit` blocks streaming
job events until the terminal one by default and returns a
:class:`SubmitResult`; inline jobs (no output path on the spec) have
their output bytes reassembled from the streamed chunks.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..api import JobSpec
from .protocol import ProtocolError, decode_chunk, read_message, write_message


@dataclass
class SubmitResult:
    """Outcome of one job submission."""

    #: ``done``, ``error``, ``rejected`` — or ``accepted`` for no-wait.
    status: str
    job_id: Optional[str] = None
    summary: Optional[str] = None
    error: Optional[str] = None
    #: Machine-readable rejection class (``quota``/``backlog``/...).
    code: Optional[str] = None
    #: Reassembled output bytes (inline jobs only).
    output: Optional[bytes] = None
    events: list = field(default_factory=list)


class ServeClient:
    """Talk to a gsnp-serve daemon over its Unix socket."""

    def __init__(self, socket_path: str, timeout: float = 300.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.socket_path)
        return sock

    def _roundtrip(self, message: dict) -> dict:
        """One request, one reply."""
        with self._connect() as sock:
            wfile = sock.makefile("wb")
            rfile = sock.makefile("rb")
            write_message(wfile, message)
            reply = read_message(rfile)
        if reply is None:
            raise ProtocolError("daemon closed the connection mid-request")
        return reply

    def ping(self) -> dict:
        """Liveness probe; returns the ``pong`` event."""
        return self._roundtrip({"op": "ping"})

    def stats(self) -> dict:
        """The daemon's scheduler/cache/residency counters."""
        return self._roundtrip({"op": "stats"})["stats"]

    def shutdown(self, drain: bool = True) -> dict:
        """Stop the daemon (draining live jobs first by default)."""
        return self._roundtrip({"op": "shutdown", "drain": drain})

    def _collect(
        self,
        rfile,
        result: SubmitResult,
        on_event: Optional[Callable[[dict], None]],
    ) -> SubmitResult:
        chunks: list[bytes] = []
        while True:
            event = read_message(rfile)
            if event is None:
                result.status = "error"
                result.error = "connection closed before a terminal event"
                return result
            result.events.append(event)
            if on_event is not None:
                on_event(event)
            kind = event.get("event")
            if kind == "output":
                chunks.append(decode_chunk(event))
            elif kind == "done":
                result.status = "done"
                result.summary = event.get("summary")
                if chunks:
                    result.output = b"".join(chunks)
                return result
            elif kind == "error":
                result.status = "error"
                result.error = event.get("error")
                return result

    def submit(
        self,
        spec: JobSpec,
        tenant: str = "default",
        priority: int = 0,
        wait: bool = True,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> SubmitResult:
        """Submit one job; with ``wait`` (default), block until terminal.

        Returns a :class:`SubmitResult` whose ``status`` is ``rejected``
        (admission failed), ``accepted`` (no-wait), ``done`` or ``error``.
        """
        result = SubmitResult(status="error")
        with self._connect() as sock:
            wfile = sock.makefile("wb")
            rfile = sock.makefile("rb")
            write_message(wfile, {
                "op": "submit",
                "spec": spec.to_wire(),
                "tenant": tenant,
                "priority": priority,
                "wait": wait,
            })
            first = read_message(rfile)
            if first is None:
                raise ProtocolError("daemon closed the connection on submit")
            result.events.append(first)
            if on_event is not None:
                on_event(first)
            if first.get("event") == "rejected":
                result.status = "rejected"
                result.error = first.get("error")
                result.code = first.get("code")
                return result
            result.job_id = first.get("job_id")
            if not wait:
                result.status = "accepted"
                return result
            return self._collect(rfile, result, on_event)

    def wait(
        self,
        job_id: str,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> SubmitResult:
        """Attach to an already-submitted job until its terminal event."""
        result = SubmitResult(status="error", job_id=job_id)
        with self._connect() as sock:
            wfile = sock.makefile("wb")
            rfile = sock.makefile("rb")
            write_message(wfile, {"op": "wait", "job_id": job_id})
            return self._collect(rfile, result, on_event)


def wait_for_server(
    socket_path: str, timeout: float = 10.0, interval: float = 0.05
) -> bool:
    """Poll a daemon socket until it answers ``ping`` (or timeout)."""
    deadline = time.monotonic() + timeout
    client = ServeClient(socket_path, timeout=max(1.0, interval * 10))
    while time.monotonic() < deadline:
        try:
            client.ping()
            return True
        except (OSError, ProtocolError):
            time.sleep(interval)
    return False


__all__ = ["ServeClient", "SubmitResult", "wait_for_server"]
