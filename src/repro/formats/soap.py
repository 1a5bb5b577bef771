"""SOAP-style alignment text format.

The main input file of the pipeline: one tab-separated line per aligned
read, ordered by matched position (the paper's "hundreds of gigabytes of
short read alignment results ordered by their matched positions").  Layout
(a simplified SOAP ``.soap``):

``read_id  seq  qual  n_hits  length  strand(+/-)  chrom  pos(1-based)``

``seq``/``qual`` are stored in forward-reference orientation (reverse reads
are already complemented back), which is how the counting component wants
them; the machine cycle of forward offset ``j`` on a reverse read is
``length - 1 - j``.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from ..constants import BASES
from ..errors import FormatError, PipelineError
from ..faults.degrade import degrade
from ..faults.plan import fault_point, site_planned
from ..align.records import AlignmentBatch

#: Phred+33 quality encoding offset (Sanger FASTQ convention).
QUAL_OFFSET = 33

#: Largest 1-based position a record may carry (positions are int64).
_MAX_POS = int(np.iinfo(np.int64).max)

#: Lines one parse block holds at most: the parser's working set.  A
#: module constant, not a parameter (tests monkeypatch it).
BLOCK_LINES = 1 << 16

_BASE_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(BASES):
    _BASE_LUT[ord(_b)] = _i

_STRANDS = {b"+": 0, b"-": 1}

#: The fields a line with the wrong field count contributes to its block's
#: columns (they fail the empty-read rule; the line is flagged anyway).
_NO_FIELDS = (b"",) * 8


def parse_soap_record(raw: bytes, lineno: int, path) -> tuple:
    """Parse one SOAP line into ``(pos0, strand, hits, codes, quals,
    chrom)``.

    Every :class:`~repro.errors.FormatError` carries ``file:line``
    coordinates plus the offending field, so a malformed record in a
    multi-hour run can be located (and quarantined) without bisecting the
    input.  :class:`SoapParser` checks whole blocks and hands each line
    that breaks a rule here, so this is the one source of a record's
    error text.
    """
    parts = raw.split(b"\t")
    if len(parts) != 8:
        raise FormatError(
            f"{path}:{lineno}: expected 8 fields (tab-separated), got "
            f"{len(parts)} (truncated record?)"
        )
    _, seq, qual, n_hits, length, strand, chrom, pos = parts
    codes = _BASE_LUT[np.frombuffer(seq, dtype=np.uint8)]
    if not codes.size:
        raise FormatError(f"{path}:{lineno}: empty read")
    if (codes == 255).any():
        bad = seq[int(np.argmax(codes == 255))]
        raise FormatError(
            f"{path}:{lineno}: invalid base {chr(bad)!r} in read"
        )
    q = np.frombuffer(qual, dtype=np.uint8).astype(np.int16) - QUAL_OFFSET
    if (q < 0).any() or (q >= 64).any():
        raise FormatError(
            f"{path}:{lineno}: quality out of range [0, 64) "
            f"(Phred+{QUAL_OFFSET})"
        )
    try:
        declared_len = int(length)
        pos0 = int(pos) - 1
        hits = int(n_hits)
    except ValueError as exc:
        raise FormatError(
            f"{path}:{lineno}: non-numeric length/hits/position field: "
            f"{exc}"
        ) from exc
    if declared_len != codes.size or codes.size != q.size:
        raise FormatError(
            f"{path}:{lineno}: length mismatch (declared {declared_len}, "
            f"seq {codes.size}, qual {q.size})"
        )
    if strand not in (b"+", b"-"):
        raise FormatError(f"{path}:{lineno}: bad strand {strand!r}")
    if hits < 0:
        raise FormatError(f"{path}:{lineno}: negative hit count {hits}")
    if not 0 <= pos0 < _MAX_POS:
        raise FormatError(
            f"{path}:{lineno}: position {pos0 + 1} outside [1, {_MAX_POS}]"
        )
    try:
        chrom_name = chrom.decode()
    except UnicodeDecodeError:
        raise FormatError(
            f"{path}:{lineno}: chromosome name {chrom!r} is not UTF-8"
        ) from None
    return (
        pos0,
        0 if strand == b"+" else 1,
        min(hits, 255),
        codes,
        q.astype(np.uint8),
        chrom_name,
    )


def quarantine_record(
    quarantine, path, lineno: int, raw: bytes, reason: str
) -> None:
    """Append a malformed record (with coordinates) to the quarantine file
    and announce the downgrade — the last rung of the degradation ladder:
    the record is *dropped*, so this is opt-in and never silent."""
    with open(quarantine, "ab") as f:
        f.write(f"{path}:{lineno}: {reason}\t".encode() + raw + b"\n")
    degrade(
        "record-quarantine",
        action=f"record skipped -> {quarantine}",
        reason=reason,
        file=str(path),
        line=lineno,
    )


def write_soap(path: str | Path, batch: AlignmentBatch) -> int:
    """Write an alignment batch as SOAP text; returns bytes written."""
    lut = np.frombuffer(BASES.encode(), dtype=np.uint8)
    total = 0
    with open(path, "wb") as f:
        for i in range(batch.n_reads):
            seq = lut[batch.bases[i]].tobytes().decode()
            qual = (batch.quals[i] + QUAL_OFFSET).astype(np.uint8).tobytes().decode()
            strand = "+" if batch.strand[i] == 0 else "-"
            line = (
                f"read_{i}\t{seq}\t{qual}\t{int(batch.hits[i])}\t"
                f"{batch.read_len}\t{strand}\t{batch.chrom}\t"
                f"{int(batch.pos[i]) + 1}\n"
            ).encode()
            f.write(line)
            total += len(line)
    return total


def soap_line_bytes(read_len: int) -> int:
    """Approximate bytes per SOAP line for a given read length."""
    return 2 * read_len + 40


class SoapParser:
    """The one SOAP parser behind both readers: the accepted records of a
    file as one :class:`AlignmentBatch` per block of at most
    :data:`BLOCK_LINES` lines, in line order.

    A block is checked whole: one ``split`` per line, one base-table pass
    and one quality range check over the joined bytes, ``int()`` per
    numeric field and one vectorized test per rule.  Each line that
    breaks a rule -- a rule of :func:`parse_soap_record`, a read length or
    chromosome unlike the first record's or, with ``n_sites`` set (the
    streaming reader), a position behind the previous one or a read past
    ``n_sites`` -- goes, in line order, to :func:`parse_soap_record` and
    :meth:`_irregular`, which raise its error or quarantine it.  The
    ``formats.soap.record`` fault site fires once per record: when the
    running plan schedules it, blocks are one line long.  A file with no
    accepted record is an error once the file is exhausted.
    """

    def __init__(self, f, path, quarantine=None, n_sites=None) -> None:
        self._f = f
        self.path = path
        self.quarantine = quarantine
        self.n_sites = n_sites
        self.lineno = 0
        self.bytes_read = 0
        self.n_quarantined = 0
        self.read_len = 0
        self.chrom = ""
        self._chrom_b = b""
        self._last = 0  # the last accepted position (``n_sites`` rule)

    def __iter__(self) -> Iterator[AlignmentBatch]:
        while (batch := self._block()) is not None:
            if batch.n_reads:
                yield batch
        if not self.read_len:
            n = self.n_quarantined
            raise FormatError(f"{self.path}:1: empty alignment file" + (
                f" ({n} record(s) quarantined)" if n else ""
            ))

    def _block(self) -> AlignmentBatch | None:
        """The next block's accepted records; None at the end of the file."""
        planned = site_planned("formats.soap.record")
        lines = list(islice(self._f, 1 if planned else BLOCK_LINES))
        if not lines:
            return None
        first = self.lineno + 1
        self.lineno += len(lines)
        self.bytes_read += sum(map(len, lines))
        linenos = [n for n, line in enumerate(lines, first) if line != b"\n"]
        if planned:
            lines = [
                fault_point("formats.soap.record", key=n,
                            value=lines[n - first].rstrip(b"\n"))
                for n in linenos
            ]
        elif len(linenos) < len(lines):
            lines = [line for line in lines if line != b"\n"]
        # A record's last field keeps its newline, which ``int()`` skips.
        parts = [line.split(b"\t") for line in lines]
        del lines
        if not parts:
            return AlignmentBatch.empty(self.chrom, self.read_len)
        n = len(parts)
        _, seq, qual, hits, length, strand, chrom, pos = zip(
            *(p if len(p) == 8 else _NO_FIELDS for p in parts)
        )
        seq_len = np.fromiter(map(len, seq), np.int64, n)
        qual_len = np.fromiter(map(len, qual), np.int64, n)
        codes = _BASE_LUT[np.frombuffer(b"".join(seq), np.uint8)]
        # uint8 wraps a byte below the offset to >= 223: one range check.
        quals = np.frombuffer(b"".join(qual), np.uint8) - np.uint8(QUAL_OFFSET)
        declared, ok_len = _ints(length)
        pos1, ok_pos = _ints(pos)
        nhits, ok_hits = _ints(hits, top=255)
        strands = np.array([_STRANDS.get(s, 2) for s in strand], np.uint8)
        ok = (
            (np.fromiter(map(len, parts), np.int64, n) == 8)
            & (seq_len > 0) & ok_len & (declared == seq_len)
            & (qual_len == seq_len) & ok_pos & (pos1 >= 1) & ok_hits
            & (nhits >= 0) & (strands < 2)
            & ~_rows_with(codes == 255, seq_len)
            & ~_rows_with(quals >= 64, qual_len)
        )
        if not self.read_len:
            for i in np.flatnonzero(ok):
                try:
                    self.chrom = chrom[i].decode()
                except UnicodeDecodeError:
                    ok[i] = False
                    continue
                self.read_len, self._chrom_b = int(seq_len[i]), chrom[i]
                break
        L = self.read_len
        ok &= (seq_len == L) & (
            chrom.count(self._chrom_b) == n
            or np.fromiter((c == self._chrom_b for c in chrom), bool, n)
        )
        if self.n_sites is not None:
            pos0 = pos1 - 1
            before = np.maximum(self._last, np.concatenate((
                [0], np.maximum.accumulate(np.where(ok, pos0, 0))[:-1]
            )))
            ok &= (pos0 >= before) & (pos0 <= self.n_sites - L)
        for i in np.flatnonzero(~ok):
            if self.n_sites is not None:
                self._last = int(before[i])
            raw = b"\t".join(parts[i]).rstrip(b"\n")
            ok[i] = self._irregular(raw, linenos[i])
        idx = np.flatnonzero(ok)
        if not idx.size:
            return AlignmentBatch.empty(self.chrom, self.read_len)
        if idx.size < n:
            codes = codes[np.repeat(ok, seq_len)]
            quals = quals[np.repeat(ok, qual_len)]
        batch = AlignmentBatch(
            chrom=self.chrom,
            read_len=L,
            pos=pos1[idx] - 1,
            strand=strands[idx],
            hits=nhits[idx].astype(np.uint8),
            bases=codes.reshape(-1, L),
            quals=quals.reshape(-1, L),
        )
        self._last = max(self._last, int(batch.pos[-1]))
        return batch

    def _irregular(self, raw: bytes, lineno: int) -> bool:
        """One line a block check flagged: raise its error, or quarantine
        it if only a record rule fails.  True if it passes after all."""
        try:
            pos0, _, _, codes, _, chrom = parse_soap_record(
                raw, lineno, self.path
            )
        except FormatError as exc:
            if self.quarantine is None:
                raise
            quarantine_record(
                self.quarantine, self.path, lineno, raw, str(exc)
            )
            self.n_quarantined += 1
            return False
        where = f"{self.path}:{lineno}"
        if codes.size != self.read_len:
            raise FormatError(
                f"{where}: mixed read lengths not supported "
                f"(expected {self.read_len}, got {codes.size})"
            )
        if chrom != self.chrom:
            raise FormatError(
                f"{where}: mixed chromosomes not supported "
                f"(expected {self.chrom!r}, got {chrom!r})"
            )
        if self.n_sites is not None:
            if pos0 < self._last:
                raise FormatError(f"{where}: positions not sorted")
            if pos0 + self.read_len > self.n_sites:
                raise PipelineError(
                    f"{where}: read extends past the reference end"
                )
            self._last = pos0
        return True


def _ints(fields, top: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``int()`` of each field as int64 (capped at ``top``), and which
    fields parse and fit; the others fail :func:`parse_soap_record`."""
    try:
        values = np.array([int(x) for x in fields], np.int64)
        ok = np.ones(values.size, bool)
        return (values if top is None else np.minimum(values, top)), ok
    except (ValueError, OverflowError):
        pass
    values, ok = np.zeros(len(fields), np.int64), np.zeros(len(fields), bool)
    for i, x in enumerate(fields):
        try:
            v = int(x)
            values[i], ok[i] = (v if top is None else min(v, top)), True
        except (ValueError, OverflowError):
            pass
    return values, ok


def _rows_with(flags: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per row of the concatenated rows of ``lengths``: any flag set."""
    out = np.zeros(lengths.size, bool)
    ends = np.cumsum(lengths)
    out[np.searchsorted(ends, np.flatnonzero(flags), "right")] = True
    return out


def read_soap(
    path: str | Path, quarantine: str | Path | None = None
) -> AlignmentBatch:
    """Parse a SOAP alignment file into a position-sorted batch.

    With ``quarantine`` set, a malformed record is appended to that file
    (with ``file:line: reason`` coordinates) and skipped instead of
    aborting the parse; structural problems spanning records (mixed read
    lengths or chromosomes, an empty file) still raise.
    """
    with open(path, "rb") as f:
        batch = AlignmentBatch.concat_all(
            list(SoapParser(f, path, quarantine))
        )
    return batch.select(np.argsort(batch.pos, kind="stable"))
