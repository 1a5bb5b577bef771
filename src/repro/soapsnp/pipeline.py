"""The CPU SOAPsnp pipeline (Figure 1), with per-component accounting.

Seven components run per the paper's workflow: ``cal_p_matrix`` once, then
per window ``read_site -> counting -> likelihood -> posterior -> output ->
recycle``.  The functional result is exact; the *cost* of the dense
representation (the 131,072-cell ``base_occ`` scan per site in likelihood
and recycle, Formula 1) is charged to the event records rather than
executed, because actually scanning zeros in Python would only prove that
Python is slow.  Event counts are the paper's own analytical quantities,
so the modeled breakdown reproduces Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..align.records import AlignmentBatch
from ..bench.events import PhaseRecord, PhaseScope, RunProfile
from ..constants import BASE_OCC_SIZE, DEFAULT_WINDOW_SOAPSNP, N_GENOTYPES
from ..formats.cns import ResultTable, format_rows
from ..formats.soap import soap_line_bytes
from ..formats.window import WindowReader
from ..seqsim.datasets import SimulatedDataset
from .base_occ import nonzero_counts
from .likelihood import window_type_likely
from .model import CallingParams
from .observe import extract_observations
from .p_matrix import build_p_matrix, flatten_p_matrix
from .posterior import summarize_window


@dataclass
class SoapsnpResult:
    """Output of one SOAPsnp run."""

    table: ResultTable
    profile: RunProfile
    #: Per-site non-zero base_occ cell counts (Figure 4b), when collected.
    nnz: Optional[np.ndarray] = None
    #: Total plain-text output bytes.
    output_bytes: int = 0
    p_matrix: Optional[np.ndarray] = None
    extras: dict = field(default_factory=dict)


@dataclass
class SoapsnpCalibration:
    """Product of SOAPsnp's ``cal_p_matrix`` pass, shareable across shards."""

    params: CallingParams
    p_matrix: np.ndarray
    pm_flat: np.ndarray
    penalty: np.ndarray
    input_bytes: int
    total_reads: int
    record: PhaseRecord

    def strip(self) -> "SoapsnpCalibration":
        """Interface parity with the GSNP calibration (nothing to drop)."""
        return self


class SoapsnpPipeline:
    """Single-threaded dense-representation baseline caller."""

    def __init__(
        self,
        params: Optional[CallingParams] = None,
        window_size: int = DEFAULT_WINDOW_SOAPSNP,
        collect_nnz: bool = False,
    ) -> None:
        self.params = params
        self.window_size = window_size
        self.collect_nnz = collect_nnz

    def calibrate(
        self, dataset: SimulatedDataset, reads: Optional[AlignmentBatch] = None
    ) -> SoapsnpCalibration:
        """The ``cal_p_matrix`` pass: one full read of the input."""
        if reads is None:
            reads = AlignmentBatch.from_read_set(dataset.reads)
        params = self.params or CallingParams(read_len=reads.read_len or 100)
        input_bytes = reads.n_reads * soap_line_bytes(reads.read_len)
        rec = PhaseRecord(name="cal_p_matrix")
        with PhaseScope(rec, None):
            p_matrix = build_p_matrix(reads, dataset.reference, params)
            pm_flat = flatten_p_matrix(p_matrix)
            penalty = params.penalty_table()
        rec.disk.read_bytes += input_bytes
        rec.disk.parsed_bytes += input_bytes
        rec.cpu.instructions += reads.n_reads * reads.read_len * 4
        return SoapsnpCalibration(
            params=params,
            p_matrix=p_matrix,
            pm_flat=pm_flat,
            penalty=penalty,
            input_bytes=input_bytes,
            total_reads=reads.n_reads,
            record=rec,
        )

    def run(
        self,
        dataset: SimulatedDataset,
        *,
        site_range: Optional[tuple[int, int]] = None,
        calibration: Optional[SoapsnpCalibration] = None,
        reads: Optional[AlignmentBatch] = None,
    ) -> SoapsnpResult:
        """Call SNPs over a dataset.

        ``site_range``/``calibration``/``reads`` have the same contract as
        :meth:`repro.core.pipeline.GsnpPipeline.run` — they let the sharded
        executor run one shard of whole windows with a shared calibration.
        As there, the ``.cns`` text file is written by
        :func:`repro.exec.execute`; ``output_bytes`` counts its bytes.
        """
        if reads is None:
            reads = AlignmentBatch.from_read_set(dataset.reads)
        profile = RunProfile(pipeline="soapsnp")

        if calibration is None:
            calibration = self.calibrate(dataset, reads=reads)
            profile.records["cal_p_matrix"] = calibration.record
        params = calibration.params
        pm_flat = calibration.pm_flat
        penalty = calibration.penalty

        start, stop = site_range if site_range is not None else (0, dataset.n_sites)
        reader = WindowReader(
            reads, dataset.n_sites, self.window_size, start=start, stop=stop
        )
        tables: list[ResultTable] = []
        output_bytes = 0
        nnz_parts: list[np.ndarray] = []
        for window in reader:
            # ---- read_site: second, OS-buffered pass -------------------
            rec = profile.phase("read_site")
            with PhaseScope(rec, None):
                win_reads = window.reads
            win_bytes = win_reads.n_reads * soap_line_bytes(reads.read_len)
            rec.disk.read_buffered_bytes += win_bytes
            rec.cpu.instructions += win_reads.n_reads * 4

            # ---- counting: fill base_occ (random stores) ----------------
            rec = profile.phase("counting")
            with PhaseScope(rec, None):
                obs = extract_observations(window)
                if self.collect_nnz:
                    nnz_parts.append(nonzero_counts(obs))
            m = obs.n_obs
            rec.cpu.random_accesses += 2 * m
            rec.cpu.instructions += 10 * m

            # ---- likelihood: Algorithm 1 over the dense matrix ----------
            rec = profile.phase("likelihood")
            with PhaseScope(rec, None):
                type_likely = window_type_likely(obs, pm_flat, penalty)
            mc = int(obs.counted.sum())
            rec.cpu.seq_read_bytes += window.n_sites * BASE_OCC_SIZE
            rec.cpu.random_accesses += 2 * N_GENOTYPES * mc
            rec.cpu.log_calls += N_GENOTYPES * mc
            rec.cpu.instructions += 2 * N_GENOTYPES * mc

            # ---- posterior ---------------------------------------------
            rec = profile.phase("posterior")
            with PhaseScope(rec, None):
                ref_codes = dataset.reference.codes[window.start : window.end]
                table = summarize_window(
                    obs,
                    window.start,
                    ref_codes,
                    dataset.prior,
                    type_likely,
                    params,
                    chrom=dataset.reference.name,
                )
            rec.cpu.instructions += window.n_sites * 100
            rec.cpu.random_accesses += window.n_sites * 5

            # ---- output: plain-text rows --------------------------------
            rec = profile.phase("output")
            with PhaseScope(rec, None):
                text = format_rows(table)
            output_bytes += len(text)
            rec.disk.write_bytes += len(text)
            rec.disk.formatted_bytes += len(text)
            tables.append(table)

            # ---- recycle: re-zero the dense buffers (charged, not run) --
            rec = profile.phase("recycle")
            rec.cpu.seq_write_bytes += window.n_sites * BASE_OCC_SIZE
            rec.cpu.instructions += window.n_sites

        full = tables[0]
        for t in tables[1:]:
            full = full.concat(t)
        return SoapsnpResult(
            table=full,
            profile=profile,
            nnz=np.concatenate(nnz_parts) if self.collect_nnz else None,
            output_bytes=output_bytes,
            p_matrix=calibration.p_matrix,
            extras={"input_bytes": calibration.input_bytes},
        )
