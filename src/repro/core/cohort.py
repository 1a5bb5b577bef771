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

This module holds the parts that do not need pipeline internals — the
pooled-reads helper, cohort input loading and output-path conventions.
The execution loop itself is ``GsnpPipeline.run_cohort`` in
:mod:`repro.core.pipeline`; it returns the
:class:`~repro.soapsnp.pipeline.CallResult` every engine returns.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence

import numpy as np

from ..align.records import AlignmentBatch
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


__all__ = [
    "cohort_output_path",
    "load_sample_batches",
    "pooled_batch",
]
