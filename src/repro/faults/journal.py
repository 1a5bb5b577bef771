"""Crash-safe checkpointing: the shard journal and atomic file writes.

A whole-genome run is hours of wall clock; process death must cost at most
one shard, not the run.  :class:`ShardJournal` checkpoints every completed
:class:`~repro.exec.shard.ShardResult` into a directory of one-file-per-
shard entries, each written by :func:`atomic_output` so a kill at
any instant leaves either a complete entry or none — never a torn one.

Entries are **content-addressed to the run**: the journal directory is
named by the executor's :func:`repro.api.job_key` over the job's fields and
everything that determines a shard's bytes (the reference, every sample's
reads in sample order, the prior, the calling parameters, the calibration
digest and the shard plan).  ``--resume`` therefore never splices a shard
of another run into the merge — a stale journal is simply a miss, and the
shard re-executes.

:func:`atomic_output` gives final result files the same guarantee: the
writer writes ``<path>.part`` and the name only flips to ``<path>`` once
every byte is flushed, so a partial/corrupt CNS file can never be mistaken
for a finished one.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from ..content import digest
from ..errors import GsnpError

logger = logging.getLogger(__name__)

#: Journal format version; bumping invalidates old entries.  Version 4:
#: a shard result carries the engines' one ``SampleCalls`` type.
JOURNAL_VERSION = 4


def seal(blob: bytes) -> bytes:
    """``blob`` behind the sha256 digest line every durable record here
    carries (journal entries, ledger records, stored calibrations)."""
    return digest(blob).encode() + b"\n" + blob


def unseal(raw: bytes) -> Optional[bytes]:
    """The blob of a :func:`seal`-ed record, or ``None`` when the record
    is torn or any bit of it flipped."""
    sealed, _, blob = raw.partition(b"\n")
    if digest(blob).encode() != sealed:
        return None
    return blob


def load_sealed(path: Path) -> object:
    """The object pickled in the :func:`seal`-ed record at ``path``, or
    ``None`` when it is missing, torn or written by a build whose classes
    no longer resolve (a miss the caller recomputes, never a crash)."""
    try:
        blob = unseal(path.read_bytes())
        return None if blob is None else pickle.loads(blob)
    except (OSError, pickle.PickleError, EOFError, ValueError, TypeError,
            AttributeError, ImportError):
        return None


class JournalError(GsnpError):
    """Raised when a journal entry cannot be trusted or written."""


class ShardJournal:
    """One-file-per-shard checkpoint store under ``root/<key>/``.

    ``commit`` is atomic and idempotent; ``load`` returns the committed
    :class:`~repro.exec.shard.ShardResult` objects whose shard ranges
    match the current plan, silently skipping torn or foreign entries
    (a torn entry re-executes — it never corrupts the merge).
    """

    def __init__(self, root, key: str) -> None:
        self.key = key
        self.dir = Path(root) / key
        self.dir.mkdir(parents=True, exist_ok=True)

    def _entry_path(self, shard_index: int) -> Path:
        return self.dir / f"shard-{shard_index:06d}.pkl"

    def commit(self, result) -> Path:
        """Atomically persist one completed shard result."""
        path = self._entry_path(result.shard.index)
        blob = pickle.dumps(
            {
                "version": JOURNAL_VERSION,
                "key": self.key,
                "start": result.shard.start,
                "end": result.shard.end,
                "result": result,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        try:
            with atomic_output(path) as f:
                f.write(seal(blob))
        except OSError as exc:
            raise JournalError(
                f"cannot commit shard {result.shard.index} to {path}: {exc}"
            ) from exc
        return path

    def _load_entry(self, path: Path) -> Optional[dict]:
        entry = load_sealed(path)
        if (
            not isinstance(entry, dict)
            or entry.get("version") != JOURNAL_VERSION
            or entry.get("key") != self.key
        ):
            return None
        return entry

    def load(self, shards) -> dict[int, object]:
        """Committed results for ``shards`` (index -> ShardResult).

        Only entries whose (start, end) matches the current plan count;
        anything else is ignored and the shard re-executes.
        """
        out: dict[int, object] = {}
        for shard in shards:
            entry = self._load_entry(self._entry_path(shard.index))
            if entry is None:
                continue
            if entry["start"] != shard.start or entry["end"] != shard.end:
                continue
            out[shard.index] = entry["result"]
        return out


class JobLedger:
    """Durable record of accepted service jobs: the daemon's recovery log.

    ``gsnp-serve`` records every admitted job *before* scheduling it and
    marks it done only *after* the output bytes are atomically in place.
    A daemon killed at any instant therefore restarts to a ledger whose
    pending records are exactly the jobs whose output cannot be trusted —
    it re-enqueues them (with ``resume=True`` so their shard journals are
    honoured) and produces bitwise-identical output.

    One record per job under ``root/`` (``<job_id>.json``): the job's JSON
    behind the same sha256 digest line a shard-journal entry carries
    (:func:`seal`), written atomically; marking done rewrites the record
    with ``state="done"``.  A torn or bit-flipped record reads as absent,
    so recovery can never re-run a spec nobody submitted.  Records are
    tiny (a JobSpec wire payload plus bookkeeping), so a scan of the
    directory on startup is cheap.
    """

    def __init__(self, root) -> None:
        self.dir = Path(root)
        self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, job_id: str) -> Path:
        return self.dir / f"{job_id}.json"

    def _write(self, job_id: str, entry: dict) -> None:
        with atomic_output(self._path(job_id)) as f:
            f.write(seal(json.dumps(entry, sort_keys=True).encode()))

    @staticmethod
    def _load(path: Path) -> dict:
        """The record at ``path``; a ``ValueError`` says why it is
        unreadable."""
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ValueError(f"cannot read: {exc}") from None
        blob = unseal(raw)
        if blob is None:
            raise ValueError("torn record or sha256 digest mismatch")
        entry = json.loads(blob)
        if not isinstance(entry, dict):
            raise ValueError("not a JSON object")
        return entry

    def record(self, job_id: str, payload: dict) -> None:
        """Durably record an admitted job (state ``pending``)."""
        self._write(job_id, {"job_id": job_id, "state": "pending", **payload})

    def _mark(self, job_id: str, state: str) -> None:
        entry = self.get(job_id)
        if entry is None:
            entry = {"job_id": job_id}
        entry["state"] = state
        self._write(job_id, entry)

    def mark_done(self, job_id: str) -> None:
        """Flip a job's record to ``done`` (idempotent)."""
        self._mark(job_id, "done")

    def mark_failed(self, job_id: str) -> None:
        """Flip a job's record to ``failed`` — it will NOT be recovered
        (a deterministic failure would otherwise re-run on every
        restart)."""
        self._mark(job_id, "failed")

    def forget(self, job_id: str) -> None:
        """Drop a job's record entirely (rejected/cancelled jobs)."""
        self._path(job_id).unlink(missing_ok=True)

    def get(self, job_id: str) -> Optional[dict]:
        """One job's record, or ``None`` (torn/corrupt reads as ``None``)."""
        try:
            return self._load(self._path(job_id))
        except ValueError:
            return None

    def pending(self) -> list[dict]:
        """Every readable record not yet marked done, oldest first.  An
        unreadable one is logged and stays on disk, untouched."""
        out = []
        for path in sorted(self.dir.glob("*.json")):
            try:
                entry = self._load(path)
            except ValueError as exc:
                logger.warning("ledger record %s left on disk, not "
                               "recovered: %s", path, exc)
                continue
            if entry.get("state") == "pending":
                out.append(entry)
        return out


@contextmanager
def atomic_output(path):
    """Open ``<path>.<pid>-<tid>.part`` for binary write; rename to
    ``path`` only on clean exit.  On any error — in the body, or in the
    flush, fsync or rename after it — the partial file is removed: a
    final output file either exists complete or not at all.  The temp
    name is process- and thread-unique so concurrent writers of the same
    target (serve worker threads racing on a shared cache entry) cannot
    clobber each other's partial file; last rename wins."""
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.part"
    )
    f = open(tmp, "wb")
    try:
        with f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


__all__ = [
    "JOURNAL_VERSION",
    "JobLedger",
    "JournalError",
    "ShardJournal",
    "atomic_output",
    "load_sealed",
    "seal",
    "unseal",
]
