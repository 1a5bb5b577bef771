"""Wilcoxon rank-sum test (normal approximation).

SOAPsnp's output column 15 reports, for heterozygous candidates, the
p-value of a rank-sum test on the quality scores supporting the two
alleles: if one allele is only supported by low-quality bases the site is
probably a sequencing artifact rather than a SNP.  We implement the test
directly (tie-corrected normal approximation) rather than via
``scipy.stats`` so the computation is self-contained, deterministic, and
cheap to vectorize over sites.
"""

from __future__ import annotations

import math

import numpy as np


def rank_sum_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Return the z statistic of the Wilcoxon rank-sum test.

    ``x`` and ``y`` are the two samples (quality scores of the two
    alleles).  Returns 0.0 when either sample is empty or when there is no
    variance (all values tied).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        return 0.0
    combined = np.concatenate([x, y])
    order = np.argsort(combined, kind="stable")
    ranks = np.empty_like(combined)
    ranks[order] = np.arange(1, combined.size + 1, dtype=np.float64)
    # Average ranks over ties.
    sorted_vals = combined[order]
    _, start, counts = np.unique(
        sorted_vals, return_index=True, return_counts=True
    )
    for s, c in zip(start, counts):
        if c > 1:
            idx = order[s : s + c]
            ranks[idx] = ranks[idx].mean()
    w = ranks[:n1].sum()
    n = n1 + n2
    mean_w = n1 * (n + 1) / 2.0
    # Tie correction for the variance.
    tie_term = ((counts**3 - counts).sum()) / float(n * (n - 1)) if n > 1 else 0.0
    var_w = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var_w <= 0:
        return 0.0
    return (w - mean_w) / math.sqrt(var_w)


def _normal_sf(z: float) -> float:
    """Survival function of the standard normal via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def rank_sum_pvalue(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sided p-value of the rank-sum test; 1.0 for degenerate input."""
    z = rank_sum_statistic(x, y)
    p = 2.0 * _normal_sf(abs(z))
    return min(1.0, max(0.0, p))


def rank_sum_pvalues_segmented(
    segment: np.ndarray,
    values: np.ndarray,
    in_x: np.ndarray,
    n_segments: int,
) -> np.ndarray:
    """:func:`rank_sum_pvalue` of many independent tests in one pass.

    Element i belongs to test ``segment[i]``, in sample x where
    ``in_x[i]`` else y.  The p-value per segment is bit-identical to
    :func:`rank_sum_pvalue` on its two samples: ranks, rank sums and tie
    counts are (half-)integers, exact in float64 in any summation order,
    and the variance/z arithmetic keeps the scalar operation order.
    """
    p = np.ones(n_segments, dtype=np.float64)
    if values.size == 0:
        return p
    order = np.lexsort((values, segment))
    seg = np.asarray(segment, dtype=np.int64)[order]
    val = values[order]
    x_sorted = np.asarray(in_x, dtype=bool)[order]
    n = np.bincount(seg, minlength=n_segments)
    n1 = np.bincount(seg[x_sorted], minlength=n_segments)
    n2 = n - n1
    # Tie groups are runs of equal (segment, value); every member takes
    # the mean of the run's consecutive in-segment ranks.
    new_run = np.concatenate(
        [[True], (seg[1:] != seg[:-1]) | (val[1:] != val[:-1])]
    )
    run_start = np.nonzero(new_run)[0]
    run_count = np.diff(np.append(run_start, seg.size))
    run_seg = seg[run_start]
    first = run_start - (np.cumsum(n) - n)[run_seg] + 1
    run_rank = (2 * first + run_count - 1) / 2.0
    rank = run_rank[np.cumsum(new_run) - 1]
    w = np.bincount(
        seg, weights=np.where(x_sorted, rank, 0.0), minlength=n_segments
    )
    # Per-segment integer sum of (t^3 - t) over its tie groups.
    tie_cum = np.concatenate([[0], np.cumsum(run_count**3 - run_count)])
    run_bounds = np.searchsorted(run_seg, np.arange(n_segments + 1))
    tie_sum = tie_cum[run_bounds[1:]] - tie_cum[run_bounds[:-1]]

    ok = np.nonzero((n1 > 0) & (n2 > 0))[0]
    n, n1, n2 = n[ok], n1[ok], n2[ok]
    mean_w = n1 * (n + 1) / 2.0
    tie_term = tie_sum[ok] / (n * (n - 1)).astype(np.float64)
    var_w = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    pos = var_w > 0
    z = (w[ok][pos] - mean_w[pos]) / np.sqrt(var_w[pos])
    # math.erfc per element: NumPy has no erfc, and the scalar path's
    # libm result is what the p-values must reproduce bit for bit.
    p[ok[pos]] = [
        min(1.0, max(0.0, 2.0 * _normal_sf(abs(zi)))) for zi in z.tolist()
    ]
    return p
