"""Resident job execution: cross-job caches and shared output rendering.

The daemon's whole reason to exist is amortization — the paper's one-time
costs (the ``cal_p_matrix`` input pass, the device score-table upload)
must be paid once per *dataset*, not once per *job*.  This module keeps
that state resident between jobs:

* :class:`DatasetCache` — parsed (fasta, soap, prior) inputs, keyed by
  content fingerprint, with a small LRU bound.
* :class:`CalibrationCache` — the calibration product, keyed by
  (engine, input fingerprints).  Two layers: in-memory for a live daemon,
  and an on-disk store under the daemon's state directory so a restarted
  daemon still skips the calibration pass (the kill/restart recovery path
  keeps its cache hits).
* :class:`ResidentRunner` — runs one job through the sharded executor
  with ``resident=True``, so the worker pipeline (device + uploaded
  tables, keyed by the calibration fingerprint via
  :mod:`repro.gpusim.residency`) survives across jobs on each worker
  thread.

Output rendering is shared with ``gsnp call`` (:func:`write_job_output`,
:func:`job_summary`): the daemon and the one-shot CLI post-process results
through literally the same code, which is what makes served bytes
bitwise identical to CLI bytes.
"""

from __future__ import annotations

import hashlib
import pickle
import shutil
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

from ..api import JobSpec
from ..core.detector import dataset_from_files
from ..exec import calibrate_job, execute
from ..faults.journal import atomic_output, seal, unseal

#: On-disk calibration entry format version.
CALIBRATION_STORE_VERSION = 1


def file_fingerprint(path) -> str:
    """Content hash of one input file (sha1 over raw bytes)."""
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def job_input_key(spec: JobSpec) -> tuple:
    """Content-derived identity of a job's parsed inputs.

    The first three entries (fasta, primary soap, prior) identify the
    parsed *dataset*; cohort jobs append one fingerprint per extra
    sample.  Callers that cache the dataset key on the primary triple
    (``key[:3]``) therefore share parsed inputs between a solo job and
    any cohort led by the same sample.
    """
    key = (
        file_fingerprint(spec.fasta),
        file_fingerprint(spec.soap),
        file_fingerprint(spec.prior) if spec.prior else "none",
    )
    return key + tuple(file_fingerprint(p) for p in spec.samples)


def write_job_output(result, spec: JobSpec) -> bytes:
    """Render a job's output bytes; the one writer of result files.

    Returns the rendered bytes (CNS text, or the columnar blob with
    ``spec.compressed``) and, when the spec names an output path, writes
    them there atomically.  A solo result renders as a cohort of one: one
    file per sample (sample 0 at spec.output, sample i at <output>.s<i>);
    the returned inline bytes are the per-sample renderings concatenated
    in cohort order.
    """
    from ..core.cohort import CohortResult, cohort_output_path
    from ..formats.cns import format_rows

    blobs = []
    cohort = isinstance(result, CohortResult)
    for si, sres in enumerate(result.samples if cohort else [result]):
        if not spec.compressed:
            blob = format_rows(sres.table)
        elif spec.engine == "soapsnp":
            from ..compress.columnar import encode_table

            blob = encode_table(sres.table)
        else:
            blob = sres.compressed_output
        blobs.append(blob)
        if spec.output:
            with atomic_output(cohort_output_path(spec.output, si)) as f:
                f.write(blob)
    return b"".join(blobs)


def job_summary(result, spec: JobSpec, wall: float) -> str:
    """The one-line human summary ``gsnp call`` prints."""
    from ..soapsnp.posterior import is_snp_call

    table = result.table
    snps = is_snp_call(table) & (table.quality >= spec.min_quality)
    cohort = ""
    n_samples = getattr(result, "n_samples", 1)
    if n_samples > 1:
        cohort = f" [cohort of {n_samples} samples; sample-0 counts]"
    return (
        f"{spec.engine}: {table.n_sites} sites, {int(snps.sum())} SNP "
        f"calls (q>={spec.min_quality}) in {wall:.2f}s{cohort}"
    )


class DatasetCache:
    """LRU cache of parsed input datasets, keyed by content fingerprint."""

    def __init__(self, max_entries: int = 4) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _lookup(self, key: tuple, parse):
        """The entry under ``key``, calling ``parse()`` on a miss (outside
        the lock: concurrent misses may parse twice, never block)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
        value = parse()
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return value

    def get(self, spec: JobSpec, key: tuple):
        """The parsed dataset for a job (parsing on miss).

        Jobs with a quarantine file bypass the cache: their parse has the
        side effect the caller asked for.
        """
        if spec.quarantine:
            return dataset_from_files(
                spec.fasta, spec.soap, spec.prior, quarantine=spec.quarantine
            )
        return self._lookup(
            key, lambda: dataset_from_files(spec.fasta, spec.soap, spec.prior)
        )

    def get_sample(self, path, fingerprint: str, quarantine=None):
        """A parsed cohort sample batch, keyed by content fingerprint.

        Shares this cache's LRU (sample keys are tagged so they can
        never collide with dataset keys); quarantine parses bypass the
        cache like dataset parses do.
        """
        from ..formats.soap import read_soap

        if quarantine:
            return read_soap(path, quarantine=quarantine)
        return self._lookup(("sample", fingerprint), lambda: read_soap(path))

    def stats(self) -> dict:
        """Hit/miss counters and current size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }


class CalibrationCache:
    """Two-layer (memory + disk) cache of stripped calibration products.

    Keys combine the engine with the input fingerprints; the disk layer
    lives under the daemon's state directory so calibration survives a
    daemon restart — the recovery path's repeated job still skips the
    input pass.
    """

    def __init__(self, root) -> None:
        self.dir = Path(root)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._memory: dict[str, object] = {}
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0

    @staticmethod
    def cache_key(spec: JobSpec, input_key: tuple) -> str:
        """Stable fingerprint for one (engine, inputs) calibration."""
        h = hashlib.sha256()
        h.update(f"cal{CALIBRATION_STORE_VERSION}|{spec.engine}|".encode())
        for part in input_key:
            h.update(f"{part}|".encode())
        return h.hexdigest()[:24]

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.pkl"

    def _load_disk(self, key: str):
        try:
            blob = unseal(self._path(key).read_bytes())
            if blob is None:
                return None  # torn entry: recompute
            return pickle.loads(blob)
        except (OSError, pickle.PickleError, EOFError, ValueError):
            return None

    def _store_disk(self, key: str, calibration) -> None:
        blob = pickle.dumps(calibration, protocol=pickle.HIGHEST_PROTOCOL)
        with atomic_output(self._path(key)) as f:
            f.write(seal(blob))

    def get(self, key: str):
        """The cached calibration, or ``None`` (counting the lookup)."""
        with self._lock:
            cal = self._memory.get(key)
            if cal is not None:
                self.hits_memory += 1
                return cal
        cal = self._load_disk(key)
        with self._lock:
            if cal is not None:
                self._memory[key] = cal
                self.hits_disk += 1
            else:
                self.misses += 1
        return cal

    def put(self, key: str, calibration) -> None:
        """Make a calibration resident in both layers."""
        with self._lock:
            self._memory[key] = calibration
        self._store_disk(key, calibration)

    def stats(self) -> dict:
        """Hit/miss counters (memory and disk layers separately)."""
        with self._lock:
            return {
                "hits": self.hits_memory + self.hits_disk,
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "entries": len(self._memory),
            }


@dataclass
class RunOutcome:
    """What running one job produced."""

    blob: bytes
    summary: str
    wall: float
    n_sites: int


class ResidentRunner:
    """Execute jobs with cross-job state kept resident.

    Every job routes through the sharded executor
    (:func:`repro.exec.execute`) with ``resident=True`` — output is
    bitwise identical to a one-shot serial run (the executor's standing
    parity invariant) while the worker pipeline, its simulated device and
    the uploaded score tables persist on the worker thread between jobs.
    """

    def __init__(self, state_dir, max_datasets: int = 4) -> None:
        self.state_dir = Path(state_dir)
        self.datasets = DatasetCache(max_entries=max_datasets)
        self.calibrations = CalibrationCache(self.state_dir / "cal")

    def journal_dir(self, job_id: str) -> Path:
        """The per-job shard-journal directory (the crash-recovery unit)."""
        return self.state_dir / "journal" / job_id

    def run_job(self, job) -> RunOutcome:
        """Run one admitted job to rendered output bytes.

        The job's shard journal lives under the daemon state directory for
        the duration of the run: a daemon killed mid-job resumes from the
        committed shards on restart (``job.recovered``) and merges to
        bitwise-identical output.  The journal is removed on success.
        """
        spec = job.spec.validate(require_inputs=True)
        t0 = time.perf_counter()
        input_key = job_input_key(spec)
        # The dataset is identified by the primary (fasta, soap, prior)
        # triple alone, so a solo job and a cohort led by the same sample
        # hit the same parsed entry; the calibration key keeps the full
        # cohort identity (pooled reads differ per cohort).
        dataset = self.datasets.get(spec, input_key[:3])

        sample_reads = None
        if spec.is_cohort:
            from ..align.records import AlignmentBatch

            sample_reads = [AlignmentBatch.from_read_set(dataset.reads)]
            for path, fp in zip(spec.samples, input_key[3:]):
                sample_reads.append(
                    self.datasets.get_sample(
                        path, fp, quarantine=spec.quarantine
                    )
                )

        cal_key = self.calibrations.cache_key(spec, input_key)
        calibration = self.calibrations.get(cal_key)
        if calibration is None:
            calibration = calibrate_job(
                dataset, spec, sample_reads=sample_reads
            ).strip()
            self.calibrations.put(cal_key, calibration)

        jdir = self.journal_dir(job.job_id)
        run_spec = replace(
            spec,
            output=None,
            sanitize=False,
            journal=str(jdir),
            resume=bool(job.recovered),
        )
        result = execute(
            dataset, spec=run_spec, calibration=calibration, resident=True,
            sample_reads=sample_reads,
        )
        blob = write_job_output(result, spec)
        wall = time.perf_counter() - t0
        shutil.rmtree(jdir, ignore_errors=True)
        return RunOutcome(
            blob=blob,
            summary=job_summary(result, spec, wall),
            wall=wall,
            n_sites=int(result.table.n_sites),
        )

    def stats(self) -> dict:
        """Cache counters for the ``/stats`` protocol request."""
        return {
            "datasets": self.datasets.stats(),
            "calibration": self.calibrations.stats(),
        }


__all__ = [
    "CALIBRATION_STORE_VERSION",
    "CalibrationCache",
    "DatasetCache",
    "ResidentRunner",
    "RunOutcome",
    "file_fingerprint",
    "job_input_key",
    "job_summary",
    "write_job_output",
]
