"""CPU-side small-array sorting baselines.

Two baselines from the evaluation:

* :func:`quicksort_per_site` — what GSNP_CPU uses for ``likelihood_sort``
  (Figure 6): an introsort/quicksort per site, here NumPy's ``np.sort`` on
  each slice (O(n log n), cache-friendly, no padding waste).
* :class:`ParallelCpuSortModel` — the OpenMP 16-thread quicksort of
  Figure 7(a), modeled analytically: per-array calls cost a fixed overhead
  plus ``c * n log2 n`` comparisons, divided over the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def quicksort_per_site(words: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sort each per-site slice of the flat array with the system sort."""
    out = words.copy()
    lengths = np.diff(offsets)
    for i in np.nonzero(lengths > 1)[0]:
        s, e = offsets[i], offsets[i + 1]
        out[s:e] = np.sort(out[s:e], kind="quicksort")
    return out


@dataclass(frozen=True)
class ParallelCpuSortModel:
    """Analytical throughput model for the 16-thread CPU quicksort.

    ``time = (n_arrays * (call_overhead + compare_cost * m * log2(m)))
    / threads`` — one array per thread, as in the paper's OpenMP baseline.
    """

    threads: int = 16
    call_overhead: float = 1e-8
    compare_cost: float = 4e-9

    def time(self, n_arrays: int, m: int) -> float:
        """Modeled seconds to sort ``n_arrays`` arrays of size ``m``."""
        if m <= 1:
            work = self.call_overhead
        else:
            work = self.call_overhead + self.compare_cost * m * np.log2(m)
        return n_arrays * work / self.threads

    def throughput(self, n_arrays: int, m: int) -> float:
        """Elements sorted per second (Formula 3 of the paper)."""
        t = self.time(n_arrays, m)
        return (n_arrays * m) / t if t > 0 else 0.0
