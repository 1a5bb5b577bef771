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

from pathlib import Path

import numpy as np

from ..constants import BASES
from ..errors import FormatError
from ..faults.degrade import degrade
from ..faults.plan import fault_point
from ..align.records import AlignmentBatch

#: Phred+33 quality encoding offset (Sanger FASTQ convention).
QUAL_OFFSET = 33

#: Largest 1-based position a record may carry (positions are int64).
_MAX_POS = int(np.iinfo(np.int64).max)

_BASE_LUT = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(BASES):
    _BASE_LUT[ord(_b)] = _i


def parse_soap_record(raw: bytes, lineno: int, path) -> tuple:
    """Parse one SOAP line into ``(pos0, strand, hits, codes, quals,
    chrom)``.

    Every :class:`~repro.errors.FormatError` carries ``file:line``
    coordinates plus the offending field, so a malformed record in a
    multi-hour run can be located (and quarantined) without bisecting the
    input.  The single shared parser for the in-memory and streaming
    readers — and the one place the ``formats.soap.record`` fault site can
    corrupt a record in flight.
    """
    raw = fault_point("formats.soap.record", key=lineno, value=raw)
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


def read_soap(
    path: str | Path, quarantine: str | Path | None = None
) -> AlignmentBatch:
    """Parse a SOAP alignment file into a position-sorted batch.

    With ``quarantine`` set, a malformed record is appended to that file
    (with ``file:line: reason`` coordinates) and skipped instead of
    aborting the parse; structural problems spanning records (mixed read
    lengths or chromosomes, an empty file) still raise.
    """
    pos_l: list[int] = []
    strand_l: list[int] = []
    hits_l: list[int] = []
    bases_l: list[np.ndarray] = []
    quals_l: list[np.ndarray] = []
    chrom = ""
    read_len = 0
    n_quarantined = 0
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            raw = raw.rstrip(b"\n")
            if not raw:
                continue
            try:
                pos0, strand, hits, codes, quals, rec_chrom = (
                    parse_soap_record(raw, lineno, path)
                )
            except FormatError as exc:
                if quarantine is None:
                    raise
                quarantine_record(quarantine, path, lineno, raw, str(exc))
                n_quarantined += 1
                continue
            if read_len == 0:
                read_len = codes.size
                chrom = rec_chrom
            elif codes.size != read_len:
                raise FormatError(
                    f"{path}:{lineno}: mixed read lengths not supported "
                    f"(expected {read_len}, got {codes.size})"
                )
            elif rec_chrom != chrom:
                raise FormatError(
                    f"{path}:{lineno}: mixed chromosomes not supported "
                    f"(expected {chrom!r}, got {rec_chrom!r})"
                )
            pos_l.append(pos0)
            strand_l.append(strand)
            hits_l.append(hits)
            bases_l.append(codes)
            quals_l.append(quals)
    if not pos_l:
        raise FormatError(
            f"{path}:1: empty alignment file"
            + (
                f" ({n_quarantined} record(s) quarantined)"
                if n_quarantined
                else ""
            )
        )
    pos = np.asarray(pos_l, dtype=np.int64)
    order = np.argsort(pos, kind="stable")
    return AlignmentBatch(
        chrom=chrom,
        read_len=read_len,
        pos=pos[order],
        strand=np.asarray(strand_l, dtype=np.uint8)[order],
        hits=np.asarray(hits_l, dtype=np.uint8)[order],
        bases=np.vstack(bases_l)[order],
        quals=np.vstack(quals_l)[order],
    )
