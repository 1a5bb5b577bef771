"""Cohort-batched multi-sample calling: shared layout and result types.

An S-sample cohort shares one reference, so every sample's pileup tiles
the *same* fixed-size windows.  The cohort execution mode exploits that:

* **one calibration** — the score-table inputs (``p_matrix``, the rank
  penalty) are built from the pooled reads of all S samples, giving one
  ``pm_flat`` fingerprint and therefore exactly one resident table set
  per device (:mod:`repro.gpusim.residency` keys by calibration
  fingerprint, never by sample);
* **one decode per window** — S lockstep :class:`WindowReader` streams
  advance together, so each reference window's boundary bookkeeping is
  paid once;
* **sample-major megabatches** — each megabatch concatenates all S
  samples' copies of the same W windows on one flat site axis (sample 0's
  windows, then sample 1's, ...), so the fused counting/sort/
  likelihood+posterior/codec chain launches once per megabatch no matter
  how many samples ride in it.

Per-sample outputs stay bitwise identical to S independent solo runs
that share the pooled calibration: the flat layout only ever juxtaposes
disjoint segments, and every fused kernel in this codebase is
segment-local by construction (an existing tested invariant).

This module holds the parts that do not need pipeline internals — the
pooled-reads helper, cohort input loading, output-path conventions and
the :class:`CohortResult` container.  The execution loop itself is
``GsnpPipeline.run_cohort`` in :mod:`repro.core.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Sequence

import numpy as np

from ..align.records import AlignmentBatch
from ..bench.events import RunProfile
from ..errors import PipelineError


def pooled_batch(sample_reads: Sequence[AlignmentBatch]) -> AlignmentBatch:
    """Concatenate a cohort's alignment batches for pooled calibration.

    Calibration's ``build_p_matrix`` is a scatter-add over (cycle, base,
    quality) integer coordinates, so read order cannot change the score
    tables; the pooled batch is re-sorted by position (stable) only so
    the compressed temp-input copy's delta codec sees a sorted column.
    It is never used for windowing — each sample windows its own batch.
    """
    if not sample_reads:
        raise PipelineError("cohort needs at least one sample")
    read_lens = {b.read_len for b in sample_reads if b.n_reads}
    if len(read_lens) > 1:
        raise PipelineError(
            f"cohort samples mix read lengths {sorted(read_lens)}"
        )
    pooled = sample_reads[0]
    for batch in sample_reads[1:]:
        pooled = pooled.concat(batch)
    order = np.argsort(pooled.pos, kind="stable")
    return pooled.select(order)


def load_sample_batches(dataset, spec) -> List[AlignmentBatch]:
    """A cohort job's alignment batches: the dataset's own reads (the
    primary soap input) are sample 0, then one parse per ``spec.samples``."""
    from ..formats.soap import read_soap

    batches = [AlignmentBatch.from_read_set(dataset.reads)]
    for path in spec.samples:
        batches.append(read_soap(path, quarantine=spec.quarantine))
    return batches


def cohort_output_path(base, sample: int) -> Path:
    """Per-sample output path convention: sample 0 owns the base path,
    sample ``i`` gets ``<base>.s<i>`` alongside it."""
    base = Path(base)
    if sample == 0:
        return base
    return base.with_name(f"{base.name}.s{sample}")


@dataclass
class CohortResult:
    """What one cohort run produced: a per-sample result list plus the
    cohort-level profile (events for the shared decode/launch chain are
    attributed once, at the cohort level, not faked per sample)."""

    samples: List  # per-sample GsnpResult, cohort order
    profile: RunProfile
    extras: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    @property
    def table(self):
        """Primary-sample (sample 0) result table.

        Lets single-result consumers (``job_summary``, smoke checks)
        treat a cohort like a solo run of its primary sample.
        """
        return self.samples[0].table

    @property
    def compressed_output(self) -> bytes:
        """All samples' compressed streams, concatenated in cohort order."""
        return b"".join(s.compressed_output or b"" for s in self.samples)

    @property
    def output_bytes(self) -> int:
        return sum(int(s.output_bytes) for s in self.samples)

    def sample_result(self, i: int):
        return self.samples[i]


def solo_result(cohort: CohortResult):
    """A cohort of one as a solo result: its only sample's result,
    carrying the run's profile and extras."""
    return replace(
        cohort.samples[0], profile=cohort.profile, extras=cohort.extras
    )


__all__ = [
    "CohortResult",
    "cohort_output_path",
    "load_sample_batches",
    "pooled_batch",
    "solo_result",
]
