"""Cohort-batched multi-sample calling: shared layout and result types.

An S-sample cohort shares one reference, so every sample's pileup tiles
the *same* fixed-size windows.  The cohort execution mode exploits that:

* **one calibration** — the score-table inputs (``p_matrix``, the rank
  penalty) are built from the pooled reads of all S samples, giving one
  calibration digest and therefore exactly one resident table set per
  device (:mod:`repro.gpusim.residency` entries are keyed by that digest,
  never by sample);
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

A solo job is a cohort of one at every layer: the executor, the daemon's
runner and the run loop all hold a job's samples as one list.  This module
holds the parts that do not need pipeline internals — the pooled-reads
helper, cohort input loading, the reads-against-reference check and
output-path conventions.
The execution loop itself is ``GsnpPipeline.run_cohort`` in
:mod:`repro.core.pipeline`; it returns the
:class:`~repro.soapsnp.pipeline.CallResult` every engine returns.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence

import numpy as np

from ..align.records import AlignmentBatch
from ..errors import FormatError, PipelineError


def pooled_batch(sample_reads: Sequence[AlignmentBatch]) -> AlignmentBatch:
    """Concatenate a cohort's alignment batches for pooled calibration.

    Calibration's ``build_p_matrix`` is a scatter-add over (cycle, base,
    quality) integer coordinates, so read order cannot change the score
    tables; the pooled batch is re-sorted by position (stable) only so
    the compressed temp-input copy's delta codec sees a sorted column.
    It is never used for windowing — each sample windows its own batch.
    A cohort of one pools to its own batch, uncopied.
    """
    if not sample_reads:
        raise PipelineError("cohort needs at least one sample")
    if len(sample_reads) == 1:
        return sample_reads[0]
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

    return [dataset.reads] + [
        read_soap(path, quarantine=spec.quarantine) for path in spec.samples
    ]


def check_sample_reads(reference, sample_reads) -> None:
    """Refuse, as a :class:`~repro.errors.FormatError` naming the sample
    and the read, a sample whose reads name another chromosome than the
    reference or run past its end — before any pass indexes the
    reference with them."""
    for i, batch in enumerate(sample_reads):
        if not batch.n_reads:
            continue
        if batch.chrom != reference.name:
            raise FormatError(
                f"sample {i}: read 0 is aligned to {batch.chrom!r}, but "
                f"the reference is {reference.name!r}"
            )
        last = reference.length - batch.read_len
        if batch.pos[-1] > last:
            j = int(np.searchsorted(batch.pos, last, side="right"))
            raise FormatError(
                f"sample {i}: read {j} at {batch.chrom}:"
                f"{int(batch.pos[j]) + 1} (length {batch.read_len}) runs "
                f"past the end of the {reference.length}-site reference"
            )


def cohort_output_path(base, sample: int) -> Path:
    """Per-sample output path convention: sample 0 owns the base path,
    sample ``i`` gets ``<base>.s<i>`` alongside it."""
    base = Path(base)
    if sample == 0:
        return base
    return base.with_name(f"{base.name}.s{sample}")


__all__ = [
    "check_sample_reads",
    "cohort_output_path",
    "load_sample_batches",
    "pooled_batch",
]
