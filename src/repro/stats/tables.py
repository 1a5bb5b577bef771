"""The host-precomputed dependency penalty table (Section IV-G).

GPUs and CPUs disagree in the last ulp of transcendental functions, which
the paper found flipped ~0.1% of SNP calls.  GSNP therefore computes every
logarithm it needs *once on the host* and ships the results to the device.
:func:`dependency_penalty_table` is the Phred penalty applied by ``adjust``
to the k-th repeated observation at the same (strand, coord); it is built
from ``log10`` on the host, so the sparse/GPU path and the dense/CPU path
apply *identical* integer adjustments.  (The score tables' logarithms are
taken on the host the same way, in :mod:`repro.core.score_table`.)

The table is a plain NumPy array that every implementation in this
package — dense baseline, sparse CPU, simulated GPU — reads, which is how
the reproduction achieves the paper's bitwise-consistency guarantee.
"""

from __future__ import annotations

import numpy as np

from ..constants import N_SCORES

#: Default PCR dependency coefficient: each duplicate observation at the
#: same (strand, coordinate) halves the evidence weight (see DESIGN.md).
DEFAULT_PCR_DEPENDENCY = 0.5


def dependency_penalty_table(
    max_count: int = N_SCORES,
    pcr_dependency: float = DEFAULT_PCR_DEPENDENCY,
) -> np.ndarray:
    """Integer Phred penalties for repeated same-coordinate observations.

    ``penalty[k]`` is subtracted from the quality score of the (k+1)-th
    observation at the same (strand, coord) within one base class:
    ``penalty[k] = round(10 * k * log10(1 / pcr_dependency))``.

    With the default coefficient 0.5 each duplicate costs ~3 Phred, i.e.
    the error probability attributed to it doubles — the standard way
    consensus callers discount PCR duplicates.
    """
    if not 0.0 < pcr_dependency <= 1.0:
        raise ValueError("pcr_dependency must be in (0, 1]")
    k = np.arange(max_count, dtype=np.float64)
    penalty = np.rint(10.0 * k * np.log10(1.0 / pcr_dependency))
    return penalty.astype(np.int32)

