"""Observation extraction: from aligned reads to per-site aligned bases.

Both pipelines count the *same* aligned-base observations; this module is
the single source of that multiset so the dense baseline and sparse GSNP
derive their structures (``base_occ`` / ``base_word``) from identical
inputs — a precondition of the paper's bitwise-consistency property.

Rules (SOAPsnp semantics):

* Every aligned base contributes to depth, allele counts and copy-number.
* Only *uniquely aligned* bases (``hits == 1``) enter the likelihood
  matrices and the per-allele quality statistics.
* ``coord`` is the machine cycle: ``j`` on the forward strand,
  ``read_len - 1 - j`` on the reverse strand, for forward offset ``j``.
* The 1-byte occurrence counter of ``base_occ`` caps identical
  (base, score, coord, strand) observations at 255 per site; overflow
  observations are dropped from the likelihood multiset (never happens at
  realistic depth, but the cap is part of the format).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import MAX_READ_LEN, N_BASES, N_SCORES, N_STRANDS
from ..formats.window import Window

# Bit fields of the packed canonical key (see canonical_key).
_STRAND_BITS, _COORD_SHIFT, _SCORE_SHIFT = 1, 1, 16
_BASE_SHIFT, _SITE_SHIFT = 22, 24
assert N_STRANDS <= 1 << _STRAND_BITS
assert MAX_READ_LEN <= 1 << (_SCORE_SHIFT - _COORD_SHIFT)
assert N_SCORES <= 1 << (_BASE_SHIFT - _SCORE_SHIFT)
assert N_BASES <= 1 << (_SITE_SHIFT - _BASE_SHIFT)


def canonical_key(
    site: np.ndarray,
    base: np.ndarray,
    score: np.ndarray,
    coord: np.ndarray,
    strand: np.ndarray,
) -> np.ndarray:
    """Pack (site, base, score DESC, coord, strand) into one int64.

    ``site<<24 | base<<22 | (63-score)<<16 | coord<<1 | strand``: the
    fields are disjoint and ordered by significance, so ascending keys are
    the canonical order and equal keys are identical observations.
    """
    top = N_SCORES - 1
    return (
        site.astype(np.int64) << _SITE_SHIFT
        | base.astype(np.int64) << _BASE_SHIFT
        | (top - score.astype(np.int64)) << _SCORE_SHIFT
        | coord.astype(np.int64) << _COORD_SHIFT
        | strand.astype(np.int64)
    )


@dataclass
class Observations:
    """Flat arrays of aligned-base observations within one window.

    Sorted canonically: by site, then base ascending, score *descending*,
    coord ascending, strand ascending — the iteration order of
    Algorithm 1.  ``site`` is relative to the window start.
    """

    n_sites: int
    site: np.ndarray  # int64
    base: np.ndarray  # uint8
    score: np.ndarray  # uint8
    coord: np.ndarray  # uint8 (machine cycle)
    strand: np.ndarray  # uint8
    hits: np.ndarray  # uint8
    unique: np.ndarray  # bool: hits == 1
    #: bool: observation kept in the likelihood multiset (unique and not
    #: dropped by the 255-occurrence cap).
    counted: np.ndarray
    #: Arrival position of each observation in the raw input (read-major)
    #: order — the order GSNP's counting kernel appends base_words in,
    #: before the multipass sort restores canonical order.
    arrival: np.ndarray = None

    @property
    def n_obs(self) -> int:
        return int(self.site.size)

    def counted_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """(selection, offsets) of counted observations grouped by site.

        ``selection`` indexes the counted observations in canonical order;
        ``offsets`` has ``n_sites + 1`` entries delimiting each site's
        slice of ``selection``.
        """
        sel = np.nonzero(self.counted)[0]
        counts = np.bincount(self.site[sel], minlength=self.n_sites)
        offsets = np.concatenate(
            [[0], np.cumsum(counts)]
        ).astype(np.int64)
        return sel, offsets


def extract_observations(window: Window) -> Observations:
    """Extract and canonically sort the observations of one window."""
    reads = window.reads
    n, read_len = reads.n_reads, reads.read_len
    if n == 0:
        e8 = np.empty(0, dtype=np.uint8)
        return Observations(
            n_sites=window.n_sites,
            site=np.empty(0, dtype=np.int64),
            base=e8.copy(), score=e8.copy(), coord=e8.copy(),
            strand=e8.copy(), hits=e8.copy(),
            unique=np.empty(0, dtype=bool),
            counted=np.empty(0, dtype=bool),
            arrival=np.empty(0, dtype=np.int64),
        )
    j = np.arange(read_len)
    abs_pos = reads.pos[:, None] + j[None, :]  # (n, read_len)
    in_window = (abs_pos >= window.start) & (abs_pos < window.end)
    site = (abs_pos - window.start)[in_window]
    base = reads.bases[in_window]
    score = reads.quals[in_window]
    cycle = np.where(
        reads.strand[:, None] == 0, j[None, :], read_len - 1 - j[None, :]
    )
    coord = cycle[in_window]
    strand = np.broadcast_to(reads.strand[:, None], (n, read_len))[in_window]
    hits = np.broadcast_to(reads.hits[:, None], (n, read_len))[in_window]

    # Canonical sort: site, base asc, score DESC, coord asc, strand asc —
    # one stable argsort of the packed key, the same permutation as the
    # five-key lexsort.
    key = canonical_key(site, base, score, coord, strand)
    order = np.argsort(key, kind="stable")
    key = key[order]
    arrival = np.arange(site.size, dtype=np.int64)[order]
    site = site[order]
    base = base[order]
    score = score[order]
    coord = coord.astype(np.uint8)[order]
    strand = strand[order]
    hits = hits[order]
    unique = hits == 1

    # 255-cap on identical cells: ordinal within identical
    # (site, base, score, coord, strand) among unique observations.
    counted = unique.copy()
    u = np.nonzero(unique)[0]
    if u.size:
        # Equal keys are adjacent after the canonical sort.
        key = key[u]
        change = np.concatenate([[True], key[1:] != key[:-1]])
        run_id = np.cumsum(change) - 1
        run_start = np.nonzero(change)[0]
        ordinal = np.arange(key.size) - run_start[run_id]
        counted[u[ordinal >= 255]] = False
    return Observations(
        n_sites=window.n_sites,
        site=site.astype(np.int64),
        base=base.astype(np.uint8),
        score=score.astype(np.uint8),
        coord=coord,
        strand=strand.astype(np.uint8),
        hits=hits.astype(np.uint8),
        unique=unique,
        counted=counted,
        arrival=arrival,
    )
