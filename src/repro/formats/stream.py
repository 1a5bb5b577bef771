"""Streaming window reader over SOAP alignment files.

The production input is "hundreds of gigabytes of short read alignment
results ordered by their matched positions" (Section III-A) — far beyond
memory.  :class:`StreamingSoapReader` yields the same
:class:`~repro.formats.window.Window` objects as the in-memory
:class:`~repro.formats.window.WindowReader`, but parses the file
incrementally: it keeps only the reads overlapping the current window,
exploiting the position-sorted order to discard everything behind the
window front.

Reads spanning a window boundary are retained and re-delivered to the next
window, exactly like the in-memory reader (tested equivalent).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from ..align.records import AlignmentBatch
from ..errors import FormatError, PipelineError
from .soap import parse_soap_record, quarantine_record
from .window import Window


class _SoapRecordStream:
    """Incremental pull of parsed, validated records from a SOAP file.

    Exploits the position-sorted order: :meth:`pull_past` parses just far
    enough that everything overlapping a range boundary is resident, and
    :meth:`take_overlapping` drops records entirely behind the range front.
    """

    def __init__(
        self, f, path, n_sites: int, chrom: str | None,
        quarantine=None,
    ) -> None:
        self._lines = enumerate(f, 1)
        self.path = path
        self.n_sites = n_sites
        self.chrom = chrom or ""
        self.quarantine = quarantine
        self.n_quarantined = 0
        self.read_len = 0
        self.bytes_read = 0
        self.pending: list[tuple] = []
        self._last_pos = -1
        self._exhausted = False

    def pull_past(self, end: int) -> None:
        """Parse lines until a read starts at/after ``end`` (kept pending);
        sorted order guarantees nothing later overlaps ``[.., end)``."""
        while not self._exhausted:
            try:
                lineno, raw = next(self._lines)
            except StopIteration:
                self._exhausted = True
                return
            self.bytes_read += len(raw)
            raw = raw.rstrip(b"\n")
            if not raw:
                continue
            try:
                rec = parse_soap_record(raw, lineno, self.path)
            except FormatError as exc:
                if self.quarantine is None:
                    raise
                quarantine_record(
                    self.quarantine, self.path, lineno, raw, str(exc)
                )
                self.n_quarantined += 1
                continue
            if not self.chrom:
                self.chrom = rec[5]
            if rec[0] < self._last_pos:
                raise FormatError(
                    f"{self.path}:{lineno}: positions not sorted"
                )
            self._last_pos = rec[0]
            if self.read_len == 0:
                self.read_len = rec[3].size
            elif rec[3].size != self.read_len:
                raise FormatError(
                    f"{self.path}:{lineno}: mixed read lengths"
                )
            if rec[0] + self.read_len > self.n_sites:
                raise PipelineError(
                    f"{self.path}:{lineno}: read extends past the "
                    f"reference end"
                )
            self.pending.append(rec)
            if rec[0] >= end:
                return

    def take_overlapping(self, start: int, end: int) -> list[tuple]:
        """Records overlapping ``[start, end)``; drops those behind it.

        Records spanning the range's end stay pending, so they are also
        delivered to the next range — the boundary-read duplication both
        the in-memory reader and the shard planner rely on.
        """
        self.pending = [
            r for r in self.pending if r[0] + self.read_len > start
        ]
        return [r for r in self.pending if r[0] < end]


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
            rs = _SoapRecordStream(
                f, self.path, self.n_sites, self.chrom,
                quarantine=self.quarantine,
            )
            for w in range(self.n_windows):
                start = w * self.window_size
                end = min(start + self.window_size, self.n_sites)
                rs.pull_past(end)
                overlap = rs.take_overlapping(start, end)
                self.bytes_read = rs.bytes_read
                yield Window(
                    start=start,
                    end=end,
                    reads=_batch_from_records(
                        overlap, rs.chrom, rs.read_len or self.window_size
                    ),
                )


def _batch_from_records(
    records: list[tuple], chrom: str, read_len: int
) -> AlignmentBatch:
    if not records:
        return AlignmentBatch.empty(chrom, read_len)
    pos = np.array([r[0] for r in records], dtype=np.int64)
    return AlignmentBatch(
        chrom=chrom,
        read_len=read_len,
        pos=pos,
        strand=np.array([r[1] for r in records], dtype=np.uint8),
        hits=np.array([r[2] for r in records], dtype=np.uint8),
        bases=np.vstack([r[3] for r in records]),
        quals=np.vstack([r[4] for r in records]),
    )
