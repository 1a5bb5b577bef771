"""The one aligned-reads type: the aligner, the read simulator, the SOAP
parser and every pipeline produce or consume an :class:`AlignmentBatch`.

A batch is column-oriented NumPy arrays, because the main input file
("hundreds of gigabytes of short read alignment results ordered by their
matched positions") streams through the pipeline window by window and a
row-of-objects representation would dominate runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AlignmentBatch:
    """A slab of alignment records, sorted by matched position."""

    chrom: str
    read_len: int
    pos: np.ndarray  # int64, 0-based leftmost match, sorted ascending
    strand: np.ndarray  # uint8, 0=forward 1=reverse
    hits: np.ndarray  # uint8, number of alignment hits (1 = unique)
    bases: np.ndarray  # uint8 (n, read_len), forward orientation
    quals: np.ndarray  # uint8 (n, read_len), forward orientation

    @property
    def n_reads(self) -> int:
        return int(self.pos.size)

    @staticmethod
    def empty(chrom: str, read_len: int) -> "AlignmentBatch":
        return AlignmentBatch(
            chrom=chrom,
            read_len=read_len,
            pos=np.empty(0, dtype=np.int64),
            strand=np.empty(0, dtype=np.uint8),
            hits=np.empty(0, dtype=np.uint8),
            bases=np.empty((0, read_len), dtype=np.uint8),
            quals=np.empty((0, read_len), dtype=np.uint8),
        )

    @staticmethod
    def from_read_set(batch: "AlignmentBatch") -> "AlignmentBatch":
        """Identity, kept for the benchmark suite's callers: simulated
        reads are already a batch."""
        return batch

    def validate(self) -> None:
        """Raise ValueError on any internal inconsistency."""
        n = self.n_reads
        for name in ("strand", "hits"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} shape mismatch")
        for name in ("bases", "quals"):
            if getattr(self, name).shape != (n, self.read_len):
                raise ValueError(f"{name} shape mismatch")
        if n and np.any(np.diff(self.pos) < 0):
            raise ValueError("reads must be sorted by position")
        if np.any(self.bases >= 4):
            raise ValueError("base codes must be in 0..3")
        if np.any(self.quals >= 64):
            raise ValueError("quality scores must fit 6 bits")

    def slice(self, lo: int, hi: int) -> "AlignmentBatch":
        """Rows [lo, hi) as a view-backed batch."""
        return AlignmentBatch(
            chrom=self.chrom,
            read_len=self.read_len,
            pos=self.pos[lo:hi],
            strand=self.strand[lo:hi],
            hits=self.hits[lo:hi],
            bases=self.bases[lo:hi],
            quals=self.quals[lo:hi],
        )

    def select(self, mask_or_index) -> "AlignmentBatch":
        """Rows selected by a boolean mask or index array."""
        return AlignmentBatch(
            chrom=self.chrom,
            read_len=self.read_len,
            pos=self.pos[mask_or_index],
            strand=self.strand[mask_or_index],
            hits=self.hits[mask_or_index],
            bases=self.bases[mask_or_index],
            quals=self.quals[mask_or_index],
        )

    def concat(self, other: "AlignmentBatch") -> "AlignmentBatch":
        """Concatenate two batches (caller guarantees sortedness)."""
        if other.read_len != self.read_len:
            raise ValueError("read length mismatch in concat")
        return AlignmentBatch(
            chrom=self.chrom,
            read_len=self.read_len,
            pos=np.concatenate([self.pos, other.pos]),
            strand=np.concatenate([self.strand, other.strand]),
            hits=np.concatenate([self.hits, other.hits]),
            bases=np.vstack([self.bases, other.bases]),
            quals=np.vstack([self.quals, other.quals]),
        )
