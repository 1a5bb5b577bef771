"""The precomputed score tables of Sections IV-D and IV-G.

``new_p_matrix`` stores, for every (adjusted score, coord, observed base)
and each of the ten genotypes, the value Algorithm 2 would compute —
``log10(0.5 p[q,c,a1,b] + 0.5 p[q,c,a2,b])`` — so the inner loop performs
one table read instead of two ``p_matrix`` reads plus a logarithm
(Algorithm 3).  Both tables are computed once on the *host* and uploaded to
the device, which is also what guarantees bitwise CPU/GPU agreement
(Section IV-G): the device never evaluates a transcendental function.
"""

from __future__ import annotations

import numpy as np

from ..constants import (
    GENOTYPES,
    MAX_READ_LEN,
    N_BASES,
    N_GENOTYPES,
    N_SCORES,
    NEW_P_MATRIX_SIZE,
    NP_BASE_SHIFT,
    NP_COORD_SHIFT,
    NP_Q_SHIFT,
)


def build_new_p_matrix(p_matrix: np.ndarray) -> np.ndarray:
    """Expand ``p_matrix`` (64,256,4,4) into the flat ``new_p_matrix``.

    Layout: ``new_p[(q<<10 | coord<<2 | base) * 10 + i]`` holds the i-th
    genotype's value, i.e. C-order flattening of a (64, 256, 4, 10) array
    (q, coord, base, genotype).
    """
    if p_matrix.shape != (N_SCORES, MAX_READ_LEN, N_BASES, N_BASES):
        raise ValueError(f"unexpected p_matrix shape {p_matrix.shape}")
    out = np.empty((N_SCORES, MAX_READ_LEN, N_BASES, N_GENOTYPES))
    for gi, (a1, a2) in enumerate(GENOTYPES):
        # p_matrix axes are (q, coord, allele, base); slice the two allele
        # planes and mix, exactly as likely_update does per call.
        p1 = p_matrix[:, :, a1, :]
        p2 = p_matrix[:, :, a2, :]
        out[:, :, :, gi] = np.log10(0.5 * p1 + 0.5 * p2)
    flat = np.ascontiguousarray(out).reshape(-1)
    assert flat.size == NEW_P_MATRIX_SIZE
    return flat


def new_p_index(
    q_adj: np.ndarray, coord: np.ndarray, base: np.ndarray, i
) -> np.ndarray:
    """Algorithm 3 index: ``(q<<10 | coord<<2 | base) * 10 + i``."""
    idx = (
        np.asarray(q_adj, dtype=np.int64) << NP_Q_SHIFT
        | np.asarray(coord, dtype=np.int64) << NP_COORD_SHIFT
        | np.asarray(base, dtype=np.int64) << NP_BASE_SHIFT
    )
    return idx * N_GENOTYPES + i


def table_contributions(
    newp_flat: np.ndarray,
    q_adj: np.ndarray,
    coord: np.ndarray,
    base: np.ndarray,
) -> np.ndarray:
    """Algorithm 3 for every observation and all 10 genotypes.

    Returns ``(m, 10)``; bitwise identical to
    :func:`repro.soapsnp.likelihood.direct_contributions` on the same
    inputs (verified by tests), because the table entries were produced by
    the same IEEE operations the direct path evaluates.
    """
    m = np.asarray(q_adj).size
    out = np.empty((m, N_GENOTYPES), dtype=np.float64)
    for gi in range(N_GENOTYPES):
        out[:, gi] = newp_flat[new_p_index(q_adj, coord, base, gi)]
    return out
