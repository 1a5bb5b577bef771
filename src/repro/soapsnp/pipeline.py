"""The CPU SOAPsnp pipeline (Figure 1), with per-component accounting.

Seven components run per the paper's workflow: ``cal_p_matrix`` once, then
per window ``read_site -> counting -> likelihood -> posterior -> output ->
recycle``.  The functional result is exact; the *cost* of the dense
representation (the 131,072-cell ``base_occ`` scan per site in likelihood
and recycle, Formula 1) is charged to the event records rather than
executed, because actually scanning zeros in Python would only prove that
Python is slow.  Event counts are the paper's own analytical quantities,
so the modeled breakdown reproduces Table I.

The types every engine shares live here, below both pipelines: the
:class:`Calibration` of the ``cal_p_matrix`` pass (:func:`calibration_pass`
is the part both engines run) and the :class:`CallResult` of
:class:`SampleCalls` that every run, shard and merged job returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

from ..align.records import AlignmentBatch
from ..bench.events import PhaseRecord, PhaseScope, RunProfile
from ..constants import BASE_OCC_SIZE, DEFAULT_WINDOW_SOAPSNP, N_GENOTYPES
from ..content import digest
from ..formats.cns import ResultTable, format_rows
from ..formats.soap import soap_line_bytes
from ..formats.window import WindowReader
from ..seqsim.datasets import SimulatedDataset
from .likelihood import window_type_likely
from .model import CallingParams
from .observe import extract_observations
from .p_matrix import build_p_matrix, flatten_p_matrix
from .posterior import summarize_window


@dataclass
class SampleCalls:
    """One sample's calls from any engine's run, shard or merged job."""

    table: ResultTable
    #: The GSNP engines' compressed result stream (empty for soapsnp).
    compressed_output: bytes = b""
    #: Bytes the sample writes natively: text rows for soapsnp, the
    #: compressed stream for the GSNP engines.
    output_bytes: int = 0
    #: Size of the calibration's compressed temporary input copy.
    temp_input_bytes: int = 0
    sort_stats: list = field(default_factory=list)


@dataclass
class CallResult:
    """What every engine's run, every shard and every merged job returns.

    One :class:`SampleCalls` per sample, in cohort order (a solo run is a
    cohort of one), plus the run's profile: events of the shared launch
    chain are attributed once, to the run, not faked per sample.
    """

    samples: list[SampleCalls]
    profile: RunProfile
    extras: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def table(self) -> ResultTable:
        """The primary sample's (sample 0's) result table."""
        return self.samples[0].table

    @property
    def compressed_output(self) -> bytes:
        """All samples' compressed streams, concatenated in cohort order."""
        return b"".join(s.compressed_output for s in self.samples)

    @property
    def output_bytes(self) -> int:
        return sum(s.output_bytes for s in self.samples)


@dataclass
class Calibration:
    """Product of the one-time ``cal_p_matrix`` input pass.

    Sharded execution (:mod:`repro.exec`) computes this once in the parent
    and shares it with every shard, so calibration work — and its event
    record — is charged exactly once, as in a serial run.  SOAPsnp's pass
    leaves the GSNP-only fields at their defaults.
    """

    params: CallingParams
    pm_flat: np.ndarray
    penalty: np.ndarray
    #: :func:`~repro.content.digest` of ``(pm_flat, penalty)``: the key of
    #: the resident score tables and the ``new_p_matrix`` memo, and the
    #: calibration's part of a journal key.
    digest: str
    input_bytes: int
    total_reads: int
    #: The ``cal_p_matrix`` phase events (wall, disk, cpu, table upload).
    record: PhaseRecord
    #: Expanded host tables for GSNP's ``mode='cpu'``.
    new_p_flat: Optional[np.ndarray] = None
    #: Bytes of GSNP's compressed temporary copy of the input (Section
    #: V-A), which the per-window ``read_site`` accounting charges.
    temp_len: int = 0


def calibration_pass(
    dataset: SimulatedDataset,
    reads: Optional[AlignmentBatch],
    params: Optional[CallingParams],
) -> Calibration:
    """The ``cal_p_matrix`` pass every engine shares: one full read of the
    input into the calibrated score tables, with its disk and CPU events."""
    if reads is None:
        reads = dataset.reads
    params = params or CallingParams(read_len=reads.read_len or 100)
    input_bytes = reads.n_reads * soap_line_bytes(reads.read_len)
    rec = PhaseRecord(name="cal_p_matrix")
    with PhaseScope(rec, None):
        pm_flat = flatten_p_matrix(
            build_p_matrix(reads, dataset.reference, params)
        )
        penalty = params.penalty_table()
        key = digest(pm_flat, penalty)
    rec.disk.read_bytes += input_bytes
    rec.disk.parsed_bytes += input_bytes
    rec.cpu.instructions += reads.n_reads * reads.read_len * 4
    return Calibration(
        params=params,
        pm_flat=pm_flat,
        penalty=penalty,
        digest=key,
        input_bytes=input_bytes,
        total_reads=reads.n_reads,
        record=rec,
    )


class SoapsnpPipeline:
    """Single-threaded dense-representation baseline caller."""

    def __init__(
        self,
        params: Optional[CallingParams] = None,
        window_size: int = DEFAULT_WINDOW_SOAPSNP,
    ) -> None:
        self.params = params
        self.window_size = window_size

    def calibrate(
        self, dataset: SimulatedDataset, reads: Optional[AlignmentBatch] = None
    ) -> Calibration:
        """The ``cal_p_matrix`` pass: one full read of the input."""
        return calibration_pass(dataset, reads, self.params)

    def run(
        self,
        dataset: SimulatedDataset,
        *,
        site_range: Optional[tuple[int, int]] = None,
        calibration: Optional[Calibration] = None,
        reads: Optional[AlignmentBatch] = None,
    ) -> CallResult:
        """Call SNPs over a dataset.

        ``site_range``/``calibration``/``reads`` have the same contract as
        :meth:`repro.core.pipeline.GsnpPipeline.run` — they let the sharded
        executor run one shard of whole windows with a shared calibration.
        As there, nothing is written: ``output_bytes`` counts the bytes
        of the ``.cns`` text rows.
        """
        if reads is None:
            reads = dataset.reads
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

        return CallResult(
            samples=[SampleCalls(
                reduce(ResultTable.concat, tables), output_bytes=output_bytes
            )],
            profile=profile,
            extras={"input_bytes": calibration.input_bytes},
        )
