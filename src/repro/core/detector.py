"""High-level public API: one call from aligned reads to SNP calls.

:class:`GsnpDetector` is the facade downstream users program against; the
examples and CLI are built on it.  It holds one :class:`~repro.api.JobSpec`
and runs it on any :class:`~repro.api.Engine` through the lane
scheduler (:mod:`repro.exec`) — one serial lane, worker processes or a
device pool, as the spec asks — and exposes the calls, the compressed
output, and truth-scoring helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..api import JobSpec
from ..bench.accuracy import OperatingPoint, quality_sweep
from ..formats.cns import ResultTable
from ..seqsim.datasets import KnownSnpPrior, SimulatedDataset
from ..soapsnp.model import CallingParams
from ..soapsnp.posterior import is_snp_call


def dataset_from_alignments(
    reference,
    batch,
    prior: Optional[KnownSnpPrior] = None,
) -> SimulatedDataset:
    """Wrap a parsed reference + alignment batch in the dataset container
    the pipelines consume; parsed inputs carry no planted truth, so the
    dataset's ``spec`` and ``diploid`` are ``None``."""
    if prior is None:
        prior = KnownSnpPrior(
            positions=np.empty(0, dtype=np.int64),
            rates=np.empty(0, dtype=np.float64),
        )
    return SimulatedDataset(
        spec=None, reference=reference, diploid=None, reads=batch,
        prior=prior,
    )


def dataset_from_files(
    fasta_path, soap_path, prior_path=None, quarantine=None
) -> SimulatedDataset:
    """Parse (fasta, soap[, prior]) input files into a dataset.

    With ``quarantine`` set, malformed SOAP records are appended to that
    file (with ``path:line: reason`` context) and skipped instead of
    failing the parse.
    """
    from ..formats.fasta import read_fasta
    from ..formats.prior import read_prior
    from ..formats.soap import read_soap

    reference = read_fasta(fasta_path)[0]
    batch = read_soap(soap_path, quarantine=quarantine)
    prior = (
        read_prior(prior_path, chrom=reference.name) if prior_path else None
    )
    return dataset_from_alignments(reference, batch, prior)


@dataclass
class SnpCall:
    """One called variant site (convenience row view)."""

    chrom: str
    pos: int  # 1-based
    ref: int
    genotype: int
    quality: int
    depth: int


class GsnpDetector:
    """Facade over the registered SNP-calling engines.

    A detector holds one frozen :class:`~repro.api.JobSpec` (``self.spec``,
    validated once at construction) plus the runtime ``params``; every job
    knob has exactly one home, the spec field of that name, and is
    documented there.

    Parameters
    ----------
    spec:
        The :class:`~repro.api.JobSpec` to run; must not be combined with
        field keywords.
    params:
        A :class:`~repro.soapsnp.model.CallingParams` (a runtime object,
        not job configuration).
    **fields:
        ``JobSpec`` field names: ``GsnpDetector(engine="gsnp_cpu",
        workers=4)`` is ``GsnpDetector(spec=JobSpec(engine="gsnp_cpu",
        workers=4))`` (an unknown name is a ``TypeError``), except that a
        detector built from fields reports every call (``min_quality=0``)
        unless asked to filter.  Every job runs on
        :func:`repro.exec.execute`'s lane scheduler, and all engines and
        lane shapes produce bitwise identical output: ``workers`` runs
        worker-process lanes, ``devices``/``cpu_steal`` work-stealing
        device-pool lanes (one modeled device each), ``journal``/
        ``resume`` crash-safe checkpointing, ``faults`` a
        :class:`~repro.faults.plan.FaultPlan` chaos schedule.

    Cohort mode: ``samples`` names additional sample SOAP paths (the
    primary soap input is sample 0); prebuilt batches go in the
    ``sample_batches`` attribute instead.
    """

    def __init__(
        self,
        *,
        spec: Optional[JobSpec] = None,
        params: Optional[CallingParams] = None,
        **fields,
    ) -> None:
        if spec is None:
            fields.setdefault("min_quality", 0)
            spec = JobSpec(**fields)
        elif fields:
            raise ValueError(
                "GsnpDetector(spec=...) does not combine with JobSpec "
                f"field keywords ({', '.join(sorted(fields))}): set them "
                "on the spec instead"
            )
        self.spec = spec.validate()
        self.params = params
        self.sample_batches = None
        self.dataset: Optional[SimulatedDataset] = None
        self.last_result = None

    @classmethod
    def from_files(
        cls, fasta_path, soap_path, prior_path=None, **kwargs
    ) -> "GsnpDetector":
        """Build a detector bound to parsed (fasta, soap[, prior]) files;
        its :meth:`run` then needs no dataset argument."""
        det = cls(**kwargs)
        det.dataset = dataset_from_files(
            fasta_path, soap_path, prior_path, quarantine=det.spec.quarantine
        )
        return det

    def run(self, dataset: Optional[SimulatedDataset] = None):
        """Run the job on the lane scheduler (:func:`repro.exec.execute`);
        :func:`repro.serve.runner.write_job_output` writes its files."""
        from ..exec import execute

        if dataset is None:
            dataset = self.dataset
        if dataset is None:
            raise ValueError(
                "no dataset: pass one to run() or build the detector "
                "with from_files()"
            )
        self.last_result = execute(
            dataset, spec=self.spec, params=self.params,
            sample_reads=self.sample_batches,
        )
        return self.last_result

    def calls(self, table: ResultTable) -> list[SnpCall]:
        """Variant rows passing the quality filter."""
        mask = is_snp_call(table) & (table.quality >= self.spec.min_quality)
        idx = np.nonzero(mask)[0]
        return [
            SnpCall(
                chrom=table.chrom,
                pos=int(table.pos[i]),
                ref=int(table.ref_base[i]),
                genotype=int(table.genotype[i]),
                quality=int(table.quality[i]),
                depth=int(table.depth[i]),
            )
            for i in idx
        ]

    @staticmethod
    def score(
        table: ResultTable,
        dataset: SimulatedDataset,
        min_quality: int = 0,
        covered_only: bool = True,
    ) -> OperatingPoint:
        """Score calls against the planted truth of a simulated dataset:
        the :func:`repro.bench.accuracy.quality_sweep` operating point at
        ``min_quality`` (a ``ValueError`` for a dataset without truth).

        With ``covered_only`` (default), planted SNPs at sites with zero
        sequencing depth are excluded from the false-negative count — no
        caller can find a variant it never saw a read for.
        """
        return quality_sweep(
            table, dataset, (min_quality,), min_depth=int(covered_only)
        )[0]


def detect_snps(
    dataset: SimulatedDataset, **fields
) -> tuple[ResultTable, list[SnpCall]]:
    """One-shot convenience: run a detector built from ``JobSpec`` field
    keywords and return (table, calls)."""
    det = GsnpDetector(**fields)
    result = det.run(dataset)
    return result.table, det.calls(result.table)
