"""Resident job execution: cross-job caches and shared output rendering.

The daemon's whole reason to exist is amortization — the paper's one-time
costs (the ``cal_p_matrix`` input pass, the device score-table upload)
must be paid once per *dataset*, not once per *job*.  This module keeps
that state resident between jobs:

* :class:`DatasetCache` — parsed inputs, keyed by the digest of their
  files' bytes, with a small LRU bound.
* :class:`CalibrationCache` — the calibration product, keyed by
  :func:`~repro.api.job_key`.  Two layers: in-memory for a live daemon,
  and an on-disk store under the daemon's state directory so a restarted
  daemon still skips the calibration pass (the kill/restart recovery path
  keeps its cache hits).
* :class:`ResidentRunner` — runs one job through the sharded executor
  with the calling worker thread's own ``resident`` pipeline dict, so the
  worker pipeline (device + uploaded tables, the device's one residency
  slot keyed by the calibration digest via :mod:`repro.gpusim.residency`)
  survives across jobs on that thread and is released when the worker
  exits.  A worker holds one pipeline and one table set: a job of another
  shape or dataset replaces them, so its resident state does not grow
  with what it has served.  The runner owns that
  state and the device-pool tallies ``/stats`` reports: no job state
  lives in a module global.

Output rendering is shared with ``gsnp call`` (:func:`write_job_output`,
:func:`job_summary`): the daemon and the one-shot CLI post-process results
through literally the same code, which is what makes served bytes
bitwise identical to CLI bytes.
"""

from __future__ import annotations

import contextlib
import pickle
import shutil
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from ..api import JobSpec, job_key
from ..content import digest
from ..core.detector import dataset_from_files
from ..exec import calibrate_job, execute
from ..exec.executor import release_pipeline
from ..faults.journal import atomic_output, load_sealed, seal
from ..formats.soap import read_soap

#: On-disk calibration entry format version; entries of another are
#: misses.  Version 5: a GSNP ``Calibration`` carries its ``new_p_flat``.
CALIBRATION_STORE_VERSION = 5

#: What a calibration key leaves out: ``calibrate()`` reads only the
#: engine and the inputs' bytes.
CALIBRATION_KEY_EXCLUDES = (
    "paths", "run control", "byte-invariant", "not calibrated")


def write_job_output(result, spec: JobSpec) -> bytes:
    """Render a job's output bytes; the one writer of result files.

    Returns the rendered bytes (CNS text, or the columnar blob with
    ``spec.compressed``) and, when the spec names an output path, writes
    them there atomically: one file per sample (sample 0 at spec.output,
    sample i at <output>.s<i>); the returned inline bytes are the
    per-sample renderings concatenated in cohort order.
    """
    from ..core.cohort import cohort_output_path
    from ..formats.cns import format_rows

    blobs = []
    for si, sres in enumerate(result.samples):
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
    if result.n_samples > 1:
        cohort = f" [cohort of {result.n_samples} samples; sample-0 counts]"
    return (
        f"{spec.engine}: {table.n_sites} sites, {int(snps.sum())} SNP "
        f"calls (q>={spec.min_quality}) in {wall:.2f}s{cohort}"
    )


class DatasetCache:
    """LRU cache of parsed inputs, keyed by the digest of their files."""

    def __init__(self, max_entries: int = 4) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str, parse, quarantine=None):
        """The parsed input under ``key``, calling ``parse()`` on a miss
        (outside the lock: concurrent misses may parse twice, never block).

        A parse with a ``quarantine`` file bypasses the cache: its side
        effect is what the caller asked for.
        """
        if quarantine:
            return parse(quarantine=quarantine)
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

    def stats(self) -> dict:
        """Hit/miss counters and current size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }


class CalibrationCache:
    """Two-layer (memory + disk) cache of calibration products.

    The memory layer is an LRU of at most ``max_entries`` calibrations;
    the disk layer keeps every one, under the daemon's state directory, so
    an evicted key is a disk hit and calibration survives a daemon
    restart — the recovery path's repeated job still skips the input pass.
    """

    def __init__(self, root, max_entries: int = 4) -> None:
        self.dir = Path(root)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, object] = OrderedDict()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.pkl"

    def _load_disk(self, key: str):
        entry = load_sealed(self._path(key))
        if not isinstance(entry, tuple) or len(entry) != 2:
            return None
        version, calibration = entry
        return calibration if version == CALIBRATION_STORE_VERSION else None

    def _store_disk(self, key: str, calibration) -> None:
        blob = pickle.dumps((CALIBRATION_STORE_VERSION, calibration),
                            protocol=pickle.HIGHEST_PROTOCOL)
        with atomic_output(self._path(key)) as f:
            f.write(seal(blob))

    def get(self, key: str):
        """The cached calibration, or ``None`` (counting the lookup)."""
        with self._lock:
            cal = self._memory.get(key)
            if cal is not None:
                self._memory.move_to_end(key)
                self.hits_memory += 1
                return cal
        cal = self._load_disk(key)
        with self._lock:
            if cal is not None:
                self._keep(key, cal)
                self.hits_disk += 1
            else:
                self.misses += 1
        return cal

    def put(self, key: str, calibration) -> None:
        """Make a calibration resident in both layers."""
        with self._lock:
            self._keep(key, calibration)
        self._store_disk(key, calibration)

    def _keep(self, key: str, calibration) -> None:
        """Hold ``calibration`` in memory as the newest entry, evicting the
        least recently used past ``max_entries`` (caller holds the lock)."""
        self._memory[key] = calibration
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

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
    (:func:`repro.exec.execute`) with the worker thread's ``resident``
    dict from :meth:`pipelines` — output is bitwise identical to a
    one-shot serial run (the executor's standing parity invariant) while
    the worker pipeline, its simulated device and the uploaded score
    tables persist on the worker thread between jobs.
    """

    def __init__(self, state_dir, max_datasets: int = 4) -> None:
        self.state_dir = Path(state_dir)
        self.datasets = DatasetCache(max_entries=max_datasets)
        self.calibrations = CalibrationCache(
            self.state_dir / "cal", max_entries=max_datasets
        )
        self._lock = threading.Lock()
        #: Every live worker's resident pipeline dict.
        self._resident: list[dict] = []
        #: Cumulative device-pool tallies plus the last pool job's rows.
        self._pool = {"jobs": 0, "shards": 0, "steals": 0, "last": None}

    @contextlib.contextmanager
    def pipelines(self):
        """One worker thread's resident pipeline dict, for :meth:`run_job`.

        A simulated device is confined to its thread, so each worker holds
        its own dict (one pipeline at a time) for as long as it runs jobs;
        leaving the block releases the pipeline in it (device and uploaded
        tables).
        """
        pipes: dict = {}
        with self._lock:
            self._resident.append(pipes)
        try:
            yield pipes
        finally:
            with self._lock:
                self._resident = [p for p in self._resident if p is not pipes]
            for pipe in pipes.values():
                release_pipeline(pipe)

    def journal_dir(self, job_id: str) -> Path:
        """The per-job shard-journal directory (the crash-recovery unit)."""
        return self.state_dir / "journal" / job_id

    def run_job(self, job, pipelines: dict) -> RunOutcome:
        """Run one admitted job to rendered output bytes, keeping its
        pipeline in the calling worker's ``pipelines`` dict.

        The job's shard journal lives under the daemon state directory for
        the duration of the run: a daemon killed mid-job resumes from the
        committed shards on restart (``job.recovered``) and merges to
        bitwise-identical output.  The journal is removed on success.
        """
        spec = job.spec.validate(require_inputs=True)
        t0 = time.perf_counter()
        # Each input file is read and hashed once per job.  The dataset
        # entry covers (fasta, soap, prior) alone, so a solo job and a
        # cohort led by the same sample share it; each sample file has its
        # own entry, and the calibration key names every one in order.
        dataset_key = digest(
            Path(spec.fasta), Path(spec.soap),
            Path(spec.prior) if spec.prior else None,
        )
        sample_keys = [digest(Path(p)) for p in spec.samples]
        dataset = self.datasets.get(dataset_key, partial(
            dataset_from_files, spec.fasta, spec.soap, spec.prior,
        ), spec.quarantine)
        sample_reads = [dataset.reads] + [
            self.datasets.get(key, partial(read_soap, path), spec.quarantine)
            for path, key in zip(spec.samples, sample_keys)
        ]

        cal_key = job_key(
            spec, exclude=CALIBRATION_KEY_EXCLUDES, dataset=dataset_key,
            samples=sample_keys,
        )
        calibration = self.calibrations.get(cal_key)
        if calibration is None:
            calibration = calibrate_job(dataset, spec, sample_reads)
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
            dataset, spec=run_spec, calibration=calibration,
            resident=pipelines, sample_reads=sample_reads,
        )
        hetero = result.extras["exec"].get("hetero")
        if hetero is not None:
            with self._lock:
                self._pool["jobs"] += 1
                self._pool["shards"] += sum(
                    lane["shards"] for lane in hetero["lanes"])
                self._pool["steals"] += hetero["steals"]
                self._pool["last"] = {key: hetero[key] for key in (
                    "devices", "cpu_steal", "steals", "per_device",
                    "modeled")}
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
        """The runner's ``/stats`` sections: cache counters (``runner``),
        the resident pipelines (``resident``; a table hit is a job that
        reused already-uploaded score tables) and the cumulative
        device-pool tallies with the last pool job's per-device rows
        (``devices``)."""
        with self._lock:
            pipes = [pipe for p in self._resident for pipe in list(p.values())]
            devices = dict(self._pool)
        resident = {"pipelines": len(pipes), "table_hits": 0,
                    "table_misses": 0}
        for pipe in pipes:
            res = getattr(getattr(pipe, "_cached_device", None), "resident",
                          None)
            if res is not None:
                resident["table_hits"] += res.hits
                resident["table_misses"] += res.misses
        return {
            "runner": {
                "datasets": self.datasets.stats(),
                "calibration": self.calibrations.stats(),
            },
            "resident": resident,
            "devices": devices,
        }


__all__ = [
    "CALIBRATION_KEY_EXCLUDES",
    "CALIBRATION_STORE_VERSION",
    "CalibrationCache",
    "DatasetCache",
    "ResidentRunner",
    "RunOutcome",
    "job_summary",
    "write_job_output",
]
