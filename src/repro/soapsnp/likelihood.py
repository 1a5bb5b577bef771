"""Likelihood calculation (Algorithms 1 and 2 of the paper).

Two implementations with *identical* numerical behaviour:

* :func:`likelihood_site_reference` — the literal quadruple loop of
  Algorithm 1 over one site's dense ``base_occ`` matrix.  O(131k) per site;
  used by tests as the ground-truth oracle.
* the vectorized *canonical engine* — the same mathematics evaluated over
  flat observation arrays in canonical order, with strictly per-site
  sequential accumulation (a lockstep loop across sites, sequential within
  a site).  This is the semantics both the SOAPsnp baseline pipeline and
  GSNP's simulated GPU kernel execute, which is how the reproduction
  achieves the paper's §IV-G bitwise CPU/GPU consistency.

The quality-dependency adjustment ``adjust(score, dep_count)`` is expressed
through *occurrence ordinals*: the k-th counted observation at the same
(base, strand, coord) of a site — in canonical order — is penalized by
``penalty[k-1]`` Phred (table precomputed on the host with log10; see
:mod:`repro.stats.tables`).
"""

from __future__ import annotations

import numpy as np

from ..constants import (
    GENOTYPES,
    MAX_READ_LEN,
    N_BASES,
    N_GENOTYPES,
    N_SCORES,
    N_STRANDS,
)
from ..sortnet.multipass import MULTIPASS_BOUNDS, size_class_of
from ..sortnet.bitonic import next_pow2
from .observe import Observations
from .p_matrix import p_matrix_index


def adjust_score_scalar(score: int, dep_count: int, penalty: np.ndarray) -> int:
    """``adjust``: penalized quality of the dep_count-th observation."""
    k = min(dep_count - 1, penalty.size - 1)
    return max(0, int(score) - int(penalty[k]))


def likelihood_site_reference(
    occ: np.ndarray, p_matrix: np.ndarray, penalty: np.ndarray,
    read_len: int = MAX_READ_LEN,
) -> np.ndarray:
    """Algorithm 1, literally, for one site.

    ``occ`` is the (4, 64, 256, 2) dense matrix, ``p_matrix`` the
    (64, 256, 4, 4) calibration matrix.  Returns the 10 log10 genotype
    likelihoods in :data:`~repro.constants.GENOTYPES` order.
    """
    type_likely = np.zeros(16, dtype=np.float64)
    for base in range(N_BASES):
        dep_count = np.zeros(N_STRANDS * read_len, dtype=np.int64)
        for score in range(N_SCORES - 1, -1, -1):
            for coord in range(read_len):
                for strand in range(N_STRANDS):
                    n_occ = int(occ[base, score, coord, strand])
                    for _ in range(n_occ):
                        dep_count[strand * read_len + coord] += 1
                        q_adj = adjust_score_scalar(
                            score, dep_count[strand * read_len + coord], penalty
                        )
                        # Algorithm 2: likely_update for the 10 genotypes.
                        p_row = p_matrix[q_adj, coord]
                        for a1 in range(N_BASES):
                            for a2 in range(a1, N_BASES):
                                val = np.log10(
                                    0.5 * p_row[a1, base] + 0.5 * p_row[a2, base]
                                )
                                type_likely[a1 << 2 | a2] += val
    out = np.empty(N_GENOTYPES, dtype=np.float64)
    for gi, (a1, a2) in enumerate(GENOTYPES):
        out[gi] = type_likely[a1 << 2 | a2]
    return out


# ---------------------------------------------------------------------------
# Vectorized canonical engine
# ---------------------------------------------------------------------------


def occurrence_ordinals(
    site: np.ndarray, base: np.ndarray, coord: np.ndarray, strand: np.ndarray
) -> np.ndarray:
    """0-based ordinal of each observation within its dependency group.

    The group is (site, base, strand, coord); ordinals follow the input
    (canonical) order.  ``dep_count`` at the moment Algorithm 1 processes
    observation i is exactly ``ordinal[i] + 1``.
    """
    m = site.size
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    key = (
        site.astype(np.int64) << 20
        | base.astype(np.int64) << 18
        | coord.astype(np.int64) << 2
        | strand.astype(np.int64)
    )
    # Stable, so position-in-run is the ordinal in input order.
    order = np.argsort(key, kind="stable")
    key = key[order]
    change = np.concatenate([[True], key[1:] != key[:-1]])
    run_id = np.cumsum(change) - 1
    run_start = np.nonzero(change)[0]
    ordinal_sorted = np.arange(m) - run_start[run_id]
    out = np.empty(m, dtype=np.int64)
    out[order] = ordinal_sorted
    return out


def adjust_scores(
    score: np.ndarray, ordinal: np.ndarray, penalty: np.ndarray
) -> np.ndarray:
    """Vectorized ``adjust``: q_adj = max(0, score - penalty[ordinal])."""
    k = np.minimum(ordinal, penalty.size - 1)
    return np.maximum(0, score.astype(np.int64) - penalty[k]).astype(np.int64)


def direct_contributions(
    pm_flat: np.ndarray,
    q_adj: np.ndarray,
    coord: np.ndarray,
    base: np.ndarray,
) -> np.ndarray:
    """Algorithm 2 for every observation and all 10 genotypes at once.

    Returns ``(m, 10)``; column i is
    ``log10(0.5 p[q,c,a1,b] + 0.5 p[q,c,a2,b])`` for the i-th genotype.
    """
    m = q_adj.size
    out = np.empty((m, N_GENOTYPES), dtype=np.float64)
    for gi, (a1, a2) in enumerate(GENOTYPES):
        p1 = pm_flat[p_matrix_index(q_adj, coord, a1, base)]
        p2 = pm_flat[p_matrix_index(q_adj, coord, a2, base)]
        out[:, gi] = np.log10(0.5 * p1 + 0.5 * p2)
    return out


def sequential_site_sums(
    contrib: np.ndarray,
    offsets: np.ndarray,
    bounds=MULTIPASS_BOUNDS,
) -> np.ndarray:
    """Per-site sequential sums of contributions, vectorized across sites.

    ``contrib`` is ``(m, 10)`` in canonical order; ``offsets`` delimits
    each site's slice.  Accumulation within a site is strictly sequential
    (element 0, then 1, ...), matching both the dense CPU loop and the
    one-thread-per-site GPU kernel bit for bit.  Sites are bucketed by
    length (the multipass size classes) so the lockstep loop wastes little
    work on short sites.
    """
    n_sites = offsets.size - 1
    acc = np.zeros((n_sites, N_GENOTYPES), dtype=np.float64)
    lengths = np.diff(offsets)
    classes = size_class_of(lengths, bounds)
    uppers = list(bounds) + [int(lengths.max(initial=1))]
    for ci in range(len(bounds) + 1):
        rows = np.nonzero((classes == ci) & (lengths > 0))[0]
        if rows.size == 0:
            continue
        width = int(uppers[ci])
        starts = offsets[:-1][rows]
        lens = lengths[rows]
        for j in range(width):
            mask = j < lens
            idx = starts + j
            # Masked lanes add exactly 0.0, which leaves the accumulator
            # bit-identical to not adding at all.
            vals = np.where(
                mask[:, None], contrib[np.minimum(idx, contrib.shape[0] - 1)], 0.0
            )
            acc[rows] += vals
    return acc


def window_type_likely(
    obs: Observations,
    pm_flat: np.ndarray,
    penalty: np.ndarray,
) -> np.ndarray:
    """Genotype log-likelihoods for every site of a window (dense baseline).

    Functionally this is Algorithm 1 applied per site; the dense matrix is
    never materialized because zero cells contribute nothing — the *cost*
    of scanning them is what the pipeline's event accounting charges.
    """
    sel, offsets = obs.counted_offsets()
    if sel.size == 0:
        return np.zeros((obs.n_sites, N_GENOTYPES), dtype=np.float64)
    base = obs.base[sel]
    score = obs.score[sel]
    coord = obs.coord[sel]
    strand = obs.strand[sel]
    site = obs.site[sel]
    ordinal = occurrence_ordinals(site, base, coord, strand)
    q_adj = adjust_scores(score, ordinal, penalty)
    contrib = direct_contributions(pm_flat, q_adj, coord, base)
    return sequential_site_sums(contrib, offsets)
