"""Quality-calibration matrix ``p_matrix`` (the ``cal_p_matrix`` component).

``p_matrix[q, coord, allele, base]`` is the calibrated probability of
*observing* ``base`` when the true allele is ``allele``, the sequencer
reported quality ``q`` at machine cycle ``coord``.  SOAPsnp estimates it
from the data itself in a first pass over the whole input (which is why the
input file is read twice, Section V-A): aligned bases are counted against
the reference allele, then blended with the theoretical Phred error model
``P(err) = 10^(-q/10)`` (uniform over the three wrong bases) via additive
smoothing.

The matrix is built once on the host — by both pipelines, with the same
code — and in GSNP it is expanded into ``new_p_matrix``
(:mod:`repro.core.score_table`).
"""

from __future__ import annotations

import numpy as np

from ..align.records import AlignmentBatch
from ..constants import (
    MAX_READ_LEN,
    N_BASES,
    N_SCORES,
    P_ALLELE_SHIFT,
    P_BASE_SHIFT,
    P_COORD_SHIFT,
    P_Q_SHIFT,
)
from ..seqsim.reference import Reference
from .model import CallingParams


def theoretical_p_matrix() -> np.ndarray:
    """The pure Phred error model, shape (64, 256, 4, 4) float64."""
    q = np.arange(N_SCORES, dtype=np.float64)
    p_err = np.power(10.0, -q / 10.0)
    # Quality 0 carries no information: uniform.
    p_err[0] = 0.75
    out = np.empty((N_SCORES, MAX_READ_LEN, N_BASES, N_BASES))
    correct = 1.0 - p_err
    wrong = p_err / 3.0
    for a in range(N_BASES):
        for b in range(N_BASES):
            out[:, :, a, b] = (correct if a == b else wrong)[:, None]
    return out


def calibration_counts(
    alignments: AlignmentBatch, reference: Reference
) -> np.ndarray:
    """Count (q, coord, ref_allele, observed_base) over unique reads.

    The reference base is used as the truth proxy — the standard
    calibration assumption (the polymorphism rate is ~1e-3, so the bias is
    negligible).
    """
    shape = (N_SCORES, MAX_READ_LEN, N_BASES, N_BASES)
    uniq = alignments.hits == 1
    if not uniq.any():
        return np.zeros(shape, dtype=np.int64)
    read_len = alignments.read_len
    pos = alignments.pos[uniq]
    bases = alignments.bases[uniq]
    quals = alignments.quals[uniq]
    strand = alignments.strand[uniq]
    j = np.arange(read_len)
    cycle = np.where(strand[:, None] == 0, j[None, :], read_len - 1 - j[None, :])
    ref_allele = reference.codes[pos[:, None] + j[None, :]]
    # ravel_multi_index refuses an out-of-range cell, as indexing would.
    cell = np.ravel_multi_index(
        (quals.ravel(), cycle.ravel(), ref_allele.ravel(), bases.ravel()),
        shape,
    )
    return np.bincount(cell, minlength=np.prod(shape)).reshape(shape)


def build_p_matrix(
    alignments: AlignmentBatch,
    reference: Reference,
    params: CallingParams | None = None,
) -> np.ndarray:
    """Calibrate ``p_matrix`` from data + theory; rows sum to one.

    Returns shape ``(64, 256, 4, 4)`` float64; ``sum over observed base``
    of every (q, coord, allele) row is 1.
    """
    if params is None:
        params = CallingParams(read_len=alignments.read_len or 100)
    theory = theoretical_p_matrix()
    counts = calibration_counts(alignments, reference)
    pseudo = params.calibration_pseudo
    blended = counts.astype(np.float64) + pseudo * theory
    totals = blended.sum(axis=3, keepdims=True)
    return blended / totals


def p_matrix_index(
    q: np.ndarray, coord: np.ndarray, allele: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """Flat Algorithm-2 index ``q<<12 | coord<<4 | allele<<2 | base``."""
    return (
        np.asarray(q, dtype=np.int64) << P_Q_SHIFT
        | np.asarray(coord, dtype=np.int64) << P_COORD_SHIFT
        | np.asarray(allele, dtype=np.int64) << P_ALLELE_SHIFT
        | np.asarray(base, dtype=np.int64) << P_BASE_SHIFT
    )


def flatten_p_matrix(p_matrix: np.ndarray) -> np.ndarray:
    """Flatten (q, coord, allele, base) to the Algorithm-2 layout."""
    if p_matrix.shape != (N_SCORES, MAX_READ_LEN, N_BASES, N_BASES):
        raise ValueError(f"unexpected p_matrix shape {p_matrix.shape}")
    return np.ascontiguousarray(p_matrix).reshape(-1)
