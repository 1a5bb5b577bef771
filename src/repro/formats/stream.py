"""Streaming window reader over SOAP alignment files.

The production input is "hundreds of gigabytes of short read alignment
results ordered by their matched positions" (Section III-A) — far beyond
memory.  :class:`StreamingSoapReader` yields the same
:class:`~repro.formats.window.Window` objects as the in-memory
:class:`~repro.formats.window.WindowReader`, but parses the file
a block at a time with :class:`~repro.formats.soap.SoapParser` (the
parser of ``read_soap``) and keeps only the reads overlapping the current
window, exploiting the position-sorted order to discard everything
behind the window front.

Reads spanning a window boundary are retained and re-delivered to the next
window, exactly like the in-memory reader (tested equivalent).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from ..align.records import AlignmentBatch
from ..errors import PipelineError
from .soap import SoapParser
from .window import Window


class StreamingSoapReader:
    """Iterate fixed-size windows over a SOAP file without loading it.

    Parameters
    ----------
    path:
        Position-sorted SOAP alignment file.
    n_sites:
        Reference length (windows cover ``[0, n_sites)``).
    window_size:
        Sites per window.
    chrom:
        Chromosome name stamped on emitted batches (defaults to the file's
        seventh column of the first record).
    quarantine:
        Optional quarantine file: malformed records are appended there
        (with coordinates) and skipped instead of aborting the stream.
    """

    def __init__(
        self,
        path: str | Path,
        n_sites: int,
        window_size: int,
        chrom: str | None = None,
        quarantine=None,
    ) -> None:
        if window_size <= 0:
            raise PipelineError("window size must be positive")
        self.path = Path(path)
        self.n_sites = n_sites
        self.window_size = window_size
        self.chrom = chrom
        self.quarantine = quarantine
        self.bytes_read = 0

    @property
    def n_windows(self) -> int:
        return -(-self.n_sites // self.window_size)

    def __iter__(self) -> Iterator[Window]:
        with open(self.path, "rb") as f:
            parser = SoapParser(
                f, self.path, self.quarantine, n_sites=self.n_sites
            )
            blocks = iter(parser)
            parts: list[AlignmentBatch] = []  # parsed, not behind the front
            for w in range(self.n_windows):
                start = w * self.window_size
                end = min(start + self.window_size, self.n_sites)
                # Sorted order: once a read starting at/after ``end`` is
                # parsed, nothing later overlaps ``[start, end)``.
                while not parts or not parts[-1].n_reads or (
                    parts[-1].pos[-1] < end
                ):
                    block = next(blocks, None)
                    if block is None:
                        break
                    parts.append(block)
                reads = AlignmentBatch.concat_all(parts)
                # Reads behind the window go; those spanning its end stay
                # for the next window too, as in the in-memory reader.
                lo = int(np.searchsorted(
                    reads.pos, start - reads.read_len + 1, "left"
                ))
                hi = int(np.searchsorted(reads.pos, end, "left"))
                parts = [reads.slice(lo, reads.n_reads)]
                reads = reads.slice(lo, hi)
                reads.chrom = self.chrom or reads.chrom
                self.bytes_read = parser.bytes_read
                yield Window(start=start, end=end, reads=reads)
