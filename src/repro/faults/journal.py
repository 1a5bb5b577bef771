"""Crash-safe checkpointing: the shard journal and atomic file writes.

A whole-genome run is hours of wall clock; process death must cost at most
one shard, not the run.  :class:`ShardJournal` checkpoints every completed
:class:`~repro.exec.shard.ShardResult` into a directory of one-file-per-
shard entries, each written atomically (tmp + ``os.replace``) so a kill at
any instant leaves either a complete entry or none — never a torn one.

Entries are **content-addressed to the run**: the journal directory is
keyed by :func:`run_fingerprint`, a hash of everything that determines the
bytes a shard produces (engine, variant, window size, shard plan, and the
calibration tables themselves).  ``--resume`` therefore refuses to splice
a shard from a different input, engine or calibration into the merge —
a stale journal is simply a miss, and the shard re-executes.

:func:`atomic_output` gives final result files the same guarantee: the
writer writes ``<path>.part`` and the name only flips to ``<path>`` once
every byte is flushed, so a partial/corrupt CNS file can never be mistaken
for a finished one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import GsnpError

logger = logging.getLogger(__name__)

#: Journal format version; bumping invalidates old entries.  Version 2:
#: a ``ShardResult`` carries one payload per sample.
JOURNAL_VERSION = 2


def run_fingerprint(
    engine: str,
    window_size: int,
    variant_name: str,
    n_sites: int,
    shard_bounds,
    calibration,
    n_samples: int = 1,
) -> str:
    """Hash of everything that determines a shard's output bytes.

    ``n_samples`` separates cohort journals from solo ones: a cohort
    shard result carries S payloads, so a resume must never splice a
    solo run's committed shard (or a different cohort size's) into the
    merge.  The pooled calibration already differs by sample *content*;
    this covers the degenerate case of identical pooled bytes.
    """
    h = hashlib.sha256()
    h.update(f"v{JOURNAL_VERSION}|{engine}|{window_size}|".encode())
    h.update(f"{variant_name}|{n_sites}|".encode())
    if n_samples != 1:
        h.update(f"cohort{n_samples}|".encode())
    for start, end in shard_bounds:
        h.update(f"{start}:{end},".encode())
    for arr in (calibration.pm_flat, calibration.penalty):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    h.update(str(calibration.total_reads).encode())
    return h.hexdigest()[:16]


def seal(blob: bytes) -> bytes:
    """``blob`` behind the sha256 digest line every durable record here
    carries (journal entries, ledger records, stored calibrations)."""
    return hashlib.sha256(blob).hexdigest().encode() + b"\n" + blob


def unseal(raw: bytes) -> Optional[bytes]:
    """The blob of a :func:`seal`-ed record, or ``None`` when the record
    is torn or any bit of it flipped."""
    digest, _, blob = raw.partition(b"\n")
    if hashlib.sha256(blob).hexdigest().encode() != digest:
        return None
    return blob


class JournalError(GsnpError):
    """Raised when a journal entry cannot be trusted or written."""


class ShardJournal:
    """One-file-per-shard checkpoint store under ``root/<fingerprint>/``.

    ``commit`` is atomic and idempotent; ``load`` returns the committed
    :class:`~repro.exec.shard.ShardResult` objects whose shard ranges
    match the current plan, silently skipping torn or foreign entries
    (a torn entry re-executes — it never corrupts the merge).
    """

    def __init__(self, root, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self.dir = Path(root) / fingerprint
        self.dir.mkdir(parents=True, exist_ok=True)

    def _entry_path(self, shard_index: int) -> Path:
        return self.dir / f"shard-{shard_index:06d}.pkl"

    def commit(self, result) -> Path:
        """Atomically persist one completed shard result."""
        path = self._entry_path(result.shard.index)
        blob = pickle.dumps(
            {
                "version": JOURNAL_VERSION,
                "fingerprint": self.fingerprint,
                "start": result.shard.start,
                "end": result.shard.end,
                "result": result,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as f:
                f.write(seal(blob))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise JournalError(
                f"cannot commit shard {result.shard.index} to {path}: {exc}"
            ) from exc
        return path

    def _load_entry(self, path: Path) -> Optional[dict]:
        try:
            blob = unseal(path.read_bytes())
            if blob is None:
                return None  # torn/corrupt entry: treat as a miss
            entry = pickle.loads(blob)
        except (OSError, pickle.PickleError, EOFError, ValueError):
            return None
        if (
            entry.get("version") != JOURNAL_VERSION
            or entry.get("fingerprint") != self.fingerprint
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
    ``path`` only on clean exit.  On error the partial file is removed —
    a final output file either exists complete or not at all.  The temp
    name is process- and thread-unique so concurrent writers of the same
    target (serve worker threads racing on a shared cache entry) cannot
    clobber each other's partial file; last rename wins."""
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.part"
    )
    f = open(tmp, "wb")
    try:
        yield f
    except BaseException:
        f.close()
        tmp.unlink(missing_ok=True)
        raise
    else:
        f.flush()
        os.fsync(f.fileno())
        f.close()
        os.replace(tmp, path)


__all__ = [
    "JOURNAL_VERSION",
    "JobLedger",
    "JournalError",
    "ShardJournal",
    "atomic_output",
    "run_fingerprint",
    "seal",
    "unseal",
]
