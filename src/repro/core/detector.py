"""High-level public API: one call from aligned reads to SNP calls.

:class:`GsnpDetector` is the facade downstream users program against; the
examples and CLI are built on it.  It wires any registered engine
(:mod:`repro.api`) — serially, or through the sharded parallel executor
(:mod:`repro.exec`) when ``workers``/``shard_size`` are set — and exposes
the calls, the compressed output, and truth-scoring helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..api import Engine, JobSpec, create_pipeline, resolve_engine
from ..constants import DEFAULT_WINDOW_GSNP
from ..formats.cns import ResultTable
from ..seqsim.datasets import DatasetSpec, KnownSnpPrior, SimulatedDataset
from ..soapsnp.model import CallingParams
from ..soapsnp.posterior import is_snp_call
from .likelihood import OPTIMIZED, LikelihoodVariant


def dataset_from_alignments(
    reference,
    batch,
    prior: Optional[KnownSnpPrior] = None,
) -> SimulatedDataset:
    """Wrap a parsed reference + alignment batch in the dataset container
    the pipelines consume (no planted truth: haplotypes = reference)."""
    from ..seqsim.diploid import Diploid
    from ..seqsim.reads import ReadSet

    if prior is None:
        prior = KnownSnpPrior(
            positions=np.empty(0, dtype=np.int64),
            rates=np.empty(0, dtype=np.float64),
        )
    rs = ReadSet(
        chrom=reference.name,
        read_len=batch.read_len,
        pos=batch.pos,
        strand=batch.strand,
        hits=batch.hits,
        bases=batch.bases,
        quals=batch.quals,
    )
    return SimulatedDataset(
        spec=DatasetSpec(
            name=reference.name,
            n_sites=reference.length,
            depth=0.0,
            coverage=1.0,
            read_len=batch.read_len,
        ),
        reference=reference,
        diploid=Diploid(
            reference=reference,
            hap1=reference.codes,
            hap2=reference.codes,
            snp_positions=np.empty(0, dtype=np.int64),
            snp_genotypes=np.empty((0, 2), dtype=np.uint8),
        ),
        reads=rs,
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


@dataclass
class Accuracy:
    """Scoring of calls against planted truth."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        d = self.true_positives + self.false_positives
        return self.true_positives / d if d else 1.0

    @property
    def recall(self) -> float:
        d = self.true_positives + self.false_negatives
        return self.true_positives / d if d else 1.0


class GsnpDetector:
    """Facade over the registered SNP-calling engines.

    Parameters
    ----------
    engine:
        An :class:`~repro.api.Engine` member or its string name —
        ``"gsnp"`` (simulated GPU, default), ``"gsnp_cpu"`` (sparse CPU),
        or ``"soapsnp"`` (dense baseline).  All engines produce identical
        calls.
    workers, shard_size:
        When ``workers > 1`` or a ``shard_size`` is set, runs through the
        sharded parallel executor (:func:`repro.exec.execute`) — output is
        bitwise identical to the serial path.
    devices, cpu_steal:
        ``devices > 1`` runs on a modeled :class:`~repro.gpusim.pool
        .DevicePool` as work-stealing lanes of the shard scheduler
        (:mod:`repro.exec.executor`); ``cpu_steal=True`` adds the sparse
        host engine as an extra stealing lane.  Output stays bitwise
        identical for any device count and steal schedule.
    shard_timeout:
        Per-shard wall-clock deadline in seconds (process pools only); an
        expired shard is killed and retried with exponential backoff.
    journal_dir, resume:
        Crash-safe checkpointing.  With ``journal_dir`` set, every
        completed shard is committed to a content-hashed journal; with
        ``resume=True`` a re-run skips committed shards and merges to
        bitwise-identical output.
    quarantine:
        File collecting malformed input records (sharded runs only;
        applies to the streaming reader).
    faults:
        A :class:`~repro.faults.plan.FaultPlan` to run under (chaos
        testing).
    spec:
        A :class:`~repro.api.JobSpec` carrying all of the above in one
        object; individual keyword arguments must not be combined with it.
    """

    def __init__(
        self,
        engine: Engine | str = Engine.GSNP,
        params: Optional[CallingParams] = None,
        window_size: int = DEFAULT_WINDOW_GSNP,
        variant: LikelihoodVariant = OPTIMIZED,
        min_quality: int = 0,
        workers: int = 1,
        shard_size: Optional[int] = None,
        devices: int = 1,
        cpu_steal: bool = False,
        sanitize: bool = False,
        prefetch: bool = True,
        cache: bool = True,
        fusion: bool = JobSpec.fusion,
        shard_timeout: Optional[float] = None,
        journal_dir=None,
        resume: bool = False,
        quarantine=None,
        faults=None,
        samples: tuple = (),
        spec: Optional[JobSpec] = None,
    ) -> None:
        if spec is not None:
            spec.validate()
            engine = spec.engine
            samples = spec.samples
            window_size = spec.window
            variant = spec.variant
            min_quality = spec.min_quality
            workers = spec.workers
            shard_size = spec.shard_size
            devices = spec.devices
            cpu_steal = spec.cpu_steal
            sanitize = spec.sanitize
            prefetch = spec.prefetch
            cache = spec.cache
            fusion = spec.fusion
            shard_timeout = spec.shard_timeout
            journal_dir = spec.journal
            resume = spec.resume
            quarantine = spec.quarantine
            faults = spec.faults
        self.engine = resolve_engine(engine)
        self.params = params
        self.window_size = window_size
        self.variant = variant
        self.min_quality = min_quality
        self.workers = workers
        self.shard_size = shard_size
        self.devices = devices
        self.cpu_steal = cpu_steal
        self.sanitize = sanitize
        #: Throughput-engine toggles (double-buffered streaming, persistent
        #: device tables, fused megabatch launching); results are bitwise
        #: identical under every combination.
        self.prefetch = prefetch
        self.cache = cache
        self.fusion = fusion
        #: Robustness knobs, forwarded to the sharded executor.
        self.shard_timeout = shard_timeout
        self.journal_dir = journal_dir
        self.resume = resume
        self.quarantine = quarantine
        self.faults = faults
        #: Cohort mode: additional sample SOAP paths (the primary soap
        #: input is sample 0), or prebuilt batches via ``sample_batches``.
        self.samples = tuple(samples)
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
            fasta_path, soap_path, prior_path, quarantine=det.quarantine
        )
        return det

    def job_spec(self) -> JobSpec:
        """The detector's current knobs as a :class:`~repro.api.JobSpec`."""
        return JobSpec(
            engine=str(self.engine),
            samples=self.samples,
            window=self.window_size,
            variant=self.variant,
            min_quality=self.min_quality,
            workers=self.workers,
            shard_size=self.shard_size,
            devices=self.devices,
            cpu_steal=self.cpu_steal,
            sanitize=self.sanitize,
            prefetch=self.prefetch,
            cache=self.cache,
            fusion=self.fusion,
            shard_timeout=self.shard_timeout,
            journal=self.journal_dir,
            resume=self.resume,
            quarantine=self.quarantine,
            faults=self.faults,
        )

    def run(
        self, dataset: Optional[SimulatedDataset] = None, output_path=None
    ):
        """Run the chosen engine (serial or sharded-parallel)."""
        if dataset is None:
            dataset = self.dataset
        if dataset is None:
            raise ValueError(
                "no dataset: pass one to run() or build the detector "
                "with from_files()"
            )
        spec = self.job_spec().validate()
        sample_reads = self.sample_batches
        if sample_reads is None and spec.is_cohort:
            from ..align.records import AlignmentBatch
            from ..formats.soap import read_soap

            sample_reads = [AlignmentBatch.from_read_set(dataset.reads)]
            for path in self.samples:
                sample_reads.append(
                    read_soap(path, quarantine=self.quarantine)
                )
        if spec.uses_executor:
            from ..exec import execute

            result = execute(
                dataset, spec=spec, params=self.params,
                output_path=output_path, sample_reads=sample_reads,
            )
        else:
            device = None
            if self.sanitize:
                from ..gpusim.pool import acquire_device

                device = acquire_device(sanitize=True)
            pipe = create_pipeline(
                spec=spec, params=self.params, device=device
            )
            if sample_reads is not None:
                from .cohort import cohort_output_path

                output_paths = (
                    [
                        cohort_output_path(output_path, i)
                        for i in range(len(sample_reads))
                    ]
                    if output_path is not None
                    else None
                )
                result = pipe.run_cohort(
                    dataset, sample_reads, output_paths=output_paths
                )
            else:
                result = pipe.run(dataset, output_path=output_path)
            if device is not None:
                # Resident score tables are intentionally long-lived; drop
                # them before the strict leak check.
                if hasattr(pipe, "release_cache"):
                    pipe.release_cache()
                device.sanitize_teardown(strict=True)
        self.last_result = result
        return result

    def calls(self, table: ResultTable) -> list[SnpCall]:
        """Variant rows passing the quality filter."""
        mask = is_snp_call(table) & (table.quality >= self.min_quality)
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
    ) -> Accuracy:
        """Score calls against the planted truth of a simulated dataset.

        With ``covered_only`` (default), planted SNPs at sites with zero
        sequencing depth are excluded from the false-negative count — no
        caller can find a variant it never saw a read for.
        """
        mask = is_snp_call(table) & (table.quality >= min_quality)
        called = set((table.pos[mask] - 1).tolist())
        truth_pos = dataset.diploid.snp_positions
        if covered_only:
            pos0 = table.pos - 1
            depth_at = dict(zip(pos0.tolist(), table.depth.tolist()))
            truth = {
                int(p) for p in truth_pos if depth_at.get(int(p), 0) > 0
            }
        else:
            truth = {int(p) for p in truth_pos}
        tp = len(called & truth)
        return Accuracy(
            true_positives=tp,
            false_positives=len(called - truth),
            false_negatives=len(truth - called),
        )


def detect_snps(
    dataset: SimulatedDataset,
    engine: Engine | str = Engine.GSNP,
    min_quality: int = 0,
    **kwargs,
) -> tuple[ResultTable, list[SnpCall]]:
    """One-shot convenience: run a detector and return (table, calls)."""
    det = GsnpDetector(engine=engine, min_quality=min_quality, **kwargs)
    result = det.run(dataset)
    return result.table, det.calls(result.table)
