"""The gsnp-serve wire protocol: line-delimited JSON over a Unix socket.

One request per connection for simple operations; a ``submit`` or ``wait``
connection stays open while the daemon streams job events back.  Every
message is a single JSON object on one ``\\n``-terminated line — trivial
to speak from any language, safe to log, and free of framing ambiguity.

Requests carry an ``op``:

* ``{"op": "ping"}`` — liveness probe, answered with ``pong``.
* ``{"op": "stats"}`` — scheduler/cache counters, answered with ``stats``.
* ``{"op": "submit", "spec": <JobSpec wire payload>, "tenant": ...,
  "priority": ..., "wait": ..., "inline": ...}`` — admit a job.  The
  daemon answers ``accepted`` (with the assigned ``job_id``) or
  ``rejected``; with ``wait`` it then streams ``started``, optional
  ``output`` chunks (inline jobs), and finally ``done`` or ``error``.
* ``{"op": "wait", "job_id": ...}`` — attach to an already-submitted
  job's event stream (terminal events replay if it already finished).
* ``{"op": "shutdown"}`` — drain queued jobs and stop, answered with
  ``bye`` once the daemon is idle.

Responses carry an ``event`` naming one of :data:`EVENTS`.  Binary job
output crosses the socket base64-encoded in bounded ``output`` chunks, so
a line never grows past :data:`MAX_MESSAGE_BYTES`.
"""

from __future__ import annotations

import base64
import json
from typing import Iterator, Optional

from ..errors import GsnpError

#: Protocol version, echoed in ``accepted``/``pong`` events.
PROTOCOL_VERSION = 1

#: Request operations a client may send.
OPS = ("ping", "shutdown", "stats", "submit", "wait")

#: Event types the daemon may stream back.
EVENTS = (
    "accepted", "bye", "done", "error", "output", "pong", "rejected",
    "started", "stats",
)

#: Upper bound on one protocol line (requests and events alike).
MAX_MESSAGE_BYTES = 1 << 20

#: Raw bytes per base64 ``output`` chunk (encoded size stays well under
#: :data:`MAX_MESSAGE_BYTES`).
OUTPUT_CHUNK_BYTES = 192 * 1024


class ProtocolError(GsnpError):
    """Raised on malformed, oversized or out-of-protocol messages."""


def write_message(wfile, message: dict) -> None:
    """Serialize one message as a single JSON line and flush it."""
    line = json.dumps(message, sort_keys=True, separators=(",", ":"))
    data = line.encode() + b"\n"
    if len(data) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte line limit"
        )
    wfile.write(data)
    wfile.flush()


def read_message(rfile) -> Optional[dict]:
    """Read one JSON line; ``None`` on clean EOF.

    Raises :class:`ProtocolError` on oversized lines, truncated trailing
    data, non-JSON content, or a non-object payload.
    """
    line = rfile.readline(MAX_MESSAGE_BYTES + 1)
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ProtocolError(
            "truncated or oversized protocol line "
            f"({len(line)} bytes without a newline)"
        )
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting
        raise ProtocolError(f"invalid JSON on the wire: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"protocol messages are JSON objects, got "
            f"{type(obj).__name__}"
        )
    return obj


def encode_chunks(blob: bytes) -> Iterator[dict]:
    """Split binary job output into bounded base64 ``output`` events."""
    total = (len(blob) + OUTPUT_CHUNK_BYTES - 1) // OUTPUT_CHUNK_BYTES
    for i in range(max(1, total)):
        raw = blob[i * OUTPUT_CHUNK_BYTES:(i + 1) * OUTPUT_CHUNK_BYTES]
        yield {
            "event": "output",
            "seq": i,
            "last": i == max(1, total) - 1,
            "data": base64.b64encode(raw).decode(),
        }


def decode_chunk(event: dict) -> bytes:
    """The raw bytes of one ``output`` event."""
    try:
        return base64.b64decode(event["data"])
    except (KeyError, ValueError) as exc:
        raise ProtocolError(f"bad output chunk: {exc}") from exc


__all__ = [
    "EVENTS",
    "MAX_MESSAGE_BYTES",
    "OPS",
    "OUTPUT_CHUNK_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_chunk",
    "encode_chunks",
    "read_message",
    "write_message",
]
