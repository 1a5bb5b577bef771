"""Column-based compression of the 17-column result table and the input.

"Column-based compression is applied for each window" (Section V-B).  The
container holds one block per window; each block stores the chromosome
name + site count once (columns 1-2 collapse to a constant and a range)
and a per-column payload using the codec that matches the column's
characteristics:

========================= ============== =====================================
column                    codec          rationale (paper)
========================= ============== =====================================
chrom, pos                implicit       "only the sequence name and the
                                         number of sites"
ref/best base             TWOBIT         "two bits ... for four base types"
genotype                  EXCEPTION      "store differences" vs hom-reference
second base               SPARSE         second-allele columns are sparse
avg qual 2nd, counts 2nd  SPARSE         same
quality, avg qual best,   RLE-DICT       six quality-related columns:
depth, rank-sum, copy num                <100 distinct values, long runs
count uni/all best        DICT           few distinct values, short runs
known-SNP flag            SPARSE         low SNP probability
========================= ============== =====================================

The GPU path encodes the six RLE-DICT columns with the device kernels of
:mod:`repro.compress.rle_dict` (the paper GPU-accelerates exactly those);
output bytes are identical either way.
"""

from __future__ import annotations

import struct

import numpy as np

from ..align.records import AlignmentBatch
from ..constants import GENOTYPES, N_BASES
from ..errors import CodecError
from ..formats.cns import NO_BASE, ResultTable
from ..gpusim.device import Device
from .bitpack import pack_bits, unpack_bits
from .delta import delta_decode, delta_encode
from .rle_dict import rle_dict_decode, rle_dict_encode, rle_dict_encode_gpu
from .sparse import (
    exception_decode,
    exception_encode,
    sparse_decode,
    sparse_encode,
)
from .twobit import twobit_decode, twobit_encode
from .wire import at, read_header, read_text, take

_MAGIC = b"GSNPC1"
_MAGIC_ALN = b"GSNPA1"

#: Genotype index of hom-ref for each reference base (prediction column).
_HOM_REF = np.array(
    [GENOTYPES.index((r, r)) for r in range(N_BASES)], dtype=np.uint8
)

#: The six quality-related columns the paper GPU-accelerates with RLE-DICT.
RLE_DICT_COLUMNS = (
    "quality",
    "avg_qual_best",
    "depth",
    "rank_sum",
    "copy_num",
    "count_all_best",
)

#: Every RLE-DICT column (``count_uni_best`` is one, host-side only) and
#: the sparse second-allele / known-SNP columns.
_RLE_COLUMNS = RLE_DICT_COLUMNS + ("count_uni_best",)
_SPARSE_COLUMNS = (
    "second_base",
    "avg_qual_second",
    "count_uni_second",
    "count_all_second",
    "known_snp",
)
_COLUMNS = (
    "ref_base", "genotype", "best_base", *_RLE_COLUMNS, *_SPARSE_COLUMNS,
)

#: Decoded column -> its largest legal value (codes index a fixed table).
_DOMAIN = {"genotype": len(GENOTYPES) - 1, "second_base": NO_BASE}

#: RLE-DICT columns restored to their ResultTable dtype after decoding.
_CAST = {
    "quality": np.uint8,
    "avg_qual_best": np.uint8,
    "count_uni_best": np.uint16,
    "count_all_best": np.uint16,
    "depth": np.uint16,
}


def _quantize100(values: np.ndarray) -> np.ndarray:
    """Two-decimal floats -> integer hundredths (lossless round trip)."""
    return np.rint(values.astype(np.float64) * 100.0).astype(np.uint16)


def _dequantize100(values: np.ndarray) -> np.ndarray:
    return (values.astype(np.float64) / 100.0).astype(np.float32)


def column_values(table: ResultTable, name: str) -> np.ndarray:
    """An RLE-DICT column as encoded (two-decimal floats quantized)."""
    v = np.asarray(getattr(table, name))
    if name in ("rank_sum", "copy_num"):
        return _quantize100(v)
    return v


def encode_table(
    table: ResultTable,
    device: Device | None = None,
    rle_dict: dict[str, bytes] | None = None,
) -> bytes:
    """Encode one window's table into a container block.

    ``rle_dict`` maps RLE-DICT column names to payloads already encoded
    (by the fused codec, :mod:`.fusedcodec`); those are emitted as given.
    """
    encoded = rle_dict or {}

    def rd(name: str) -> bytes:
        if name in encoded:
            return encoded[name]
        values = column_values(table, name)
        if device is not None:
            return rle_dict_encode_gpu(device, values)
        return rle_dict_encode(values)

    n = table.n_sites
    if n:
        if np.any(np.diff(table.pos) != 1):
            raise CodecError("table positions must be consecutive")
    blocks: list[tuple[str, bytes]] = [
        ("ref_base", twobit_encode(table.ref_base)),
        ("genotype", exception_encode(table.genotype, _HOM_REF[table.ref_base])),
        ("quality", rd("quality")),
        ("best_base", twobit_encode(table.best_base)),
        ("avg_qual_best", rd("avg_qual_best")),
        # RLE-DICT, but host-side: only the six quality-related columns go
        # through the GPU kernels (Section V-B); bytes are identical.
        ("count_uni_best", rle_dict_encode(table.count_uni_best)),
        ("count_all_best", rd("count_all_best")),
        ("second_base", sparse_encode(table.second_base, NO_BASE)),
        ("avg_qual_second", sparse_encode(table.avg_qual_second, 0)),
        ("count_uni_second", sparse_encode(table.count_uni_second, 0)),
        ("count_all_second", sparse_encode(table.count_all_second, 0)),
        ("depth", rd("depth")),
        ("rank_sum", rd("rank_sum")),
        ("copy_num", rd("copy_num")),
        ("known_snp", sparse_encode(table.known_snp, 0)),
    ]
    chrom_b = table.chrom.encode()
    start = int(table.pos[0]) if n else 0
    out = [
        _MAGIC,
        struct.pack("<H", len(chrom_b)),
        chrom_b,
        struct.pack("<IqB", n, start, len(blocks)),
    ]
    for name, payload in blocks:
        name_b = name.encode()
        out.append(struct.pack("<BI", len(name_b), len(payload)))
        out.append(name_b)
        out.append(payload)
    return b"".join(out)


def _read_column(payloads: dict, name: str, decode, *args) -> np.ndarray:
    """Decode one named column payload; a failure inside it is reported
    at the payload's position in the container, under the column's name.
    """
    at_byte, payload = payloads[name]
    with at(at_byte, column=name):
        values = decode(payload, *args)
        if values.dtype.kind not in "ui":
            raise CodecError(f"decoded to non-integer {values.dtype}")
        return values


def decode_table(data: bytes, offset: int = 0) -> tuple[ResultTable, int]:
    """Decode one container block; returns (table, next offset).

    Every failure is a :class:`CodecError` naming the byte offset and the
    column (or header field) it was found in; each column must decode to
    exactly the block's site count before anything the count sizes is
    allocated.
    """
    if data[offset : offset + 6] != _MAGIC:
        raise CodecError("bad container magic", offset=offset, column="header")
    block_at = offset
    offset += 6
    (clen,) = read_header("<H", data, offset, "chromosome length")
    chrom = read_text(data, offset + 2, clen, "chromosome name")
    offset += 2 + clen
    n, start, n_blocks = read_header("<IqB", data, offset, "block header")
    offset += 13
    payloads: dict[str, tuple[int, bytes]] = {}
    for _ in range(n_blocks):
        nlen, plen = read_header("<BI", data, offset, "column header")
        name = read_text(data, offset + 5, nlen, "column name")
        offset += 5 + nlen
        payloads[name] = (offset, take(data, offset, plen, f"column {name!r}"))
        offset += plen
    for name in _COLUMNS:
        if name not in payloads:
            raise CodecError("column missing", offset=block_at, column=name)

    # The sparse and RLE-DICT columns are held to the header's site count
    # before they expand; the bit-packed ones are bounded by their bytes.
    ref_base = _read_column(payloads, "ref_base", twobit_decode)
    cols = {
        "ref_base": ref_base,
        "genotype": _read_column(
            payloads, "genotype", exception_decode, _HOM_REF[ref_base]
        ),
        "best_base": _read_column(payloads, "best_base", twobit_decode),
    }
    for name in _RLE_COLUMNS:
        cols[name] = _read_column(payloads, name, rle_dict_decode, n)
    for name in _SPARSE_COLUMNS:
        cols[name] = _read_column(payloads, name, sparse_decode, n)
    for name, values in cols.items():
        at_byte = payloads[name][0]
        if values.size != n:
            raise CodecError(f"{values.size} entries in a {n}-site block",
                             offset=at_byte, column=name)
        if name in _DOMAIN and n and int(values.max()) > _DOMAIN[name]:
            raise CodecError(f"value {int(values.max())} outside "
                             f"0..{_DOMAIN[name]}", offset=at_byte,
                             column=name)
    for name, dtype in _CAST.items():
        cols[name] = cols[name].astype(dtype)
    for name in ("rank_sum", "copy_num"):
        cols[name] = _dequantize100(cols[name])
    table = ResultTable(
        chrom=chrom, pos=start + np.arange(n, dtype=np.int64), **cols
    )
    return table, offset


# ---------------------------------------------------------------------------
# Temporary input compression (Section V-A)
# ---------------------------------------------------------------------------


def encode_alignments(batch: AlignmentBatch) -> bytes:
    """Compress an alignment batch (the cal_p_matrix temporary file).

    Positions are delta-coded (the file is position-sorted), strands are
    one bit, hit counts are sparse around 1, bases take two bits, and the
    binned qualities go through RLE-DICT.
    """
    n = batch.n_reads
    chrom_b = batch.chrom.encode()
    parts = [
        _MAGIC_ALN,
        struct.pack("<HIH", len(chrom_b), n, batch.read_len),
        chrom_b,
    ]
    payloads = [
        delta_encode(batch.pos),
        struct.pack("<I", n) + pack_bits(batch.strand, 1),
        sparse_encode(batch.hits, 1),
        twobit_encode(batch.bases.reshape(-1)),
        rle_dict_encode(batch.quals.reshape(-1)),
    ]
    for p in payloads:
        parts.append(struct.pack("<I", len(p)))
        parts.append(p)
    return b"".join(parts)


def _strand_decode(data: bytes) -> np.ndarray:
    (count,) = read_header("<I", data, 0, "strand header")
    with at(4):
        return unpack_bits(data[4:], 1, count).astype(np.uint8)


def decode_alignments(data: bytes) -> AlignmentBatch:
    """Inverse of :func:`encode_alignments`; fails like
    :func:`decode_table`, with a :class:`CodecError` naming byte and
    column."""
    if data[:6] != _MAGIC_ALN:
        raise CodecError(
            "bad alignment container magic", offset=0, column="header"
        )
    clen, n, read_len = read_header("<HIH", data, 6, "alignment header")
    chrom = read_text(data, 14, clen, "chromosome name")
    offset = 14 + clen
    payloads = {}
    for name in ("pos", "strand", "hits", "bases", "quals"):
        (plen,) = read_header("<I", data, offset, f"{name} length")
        payloads[name] = (
            offset + 4, take(data, offset + 4, plen, f"column {name!r}")
        )
        offset += 4 + plen

    def column(name, decode, size, *args):
        values = _read_column(payloads, name, decode, *args)
        if values.size != size:
            raise CodecError(
                f"expected {size} entries, decoded {values.size}",
                offset=payloads[name][0], column=name,
            )
        return values

    # The bit-packed columns vouch for the read count (and bases for
    # n * read_len) before the sparse and RLE-DICT columns expand to it.
    pos = column("pos", delta_decode, n)
    strand = column("strand", _strand_decode, n)
    bases = column("bases", twobit_decode, n * read_len)
    hits = column("hits", sparse_decode, n, n)
    quals = column("quals", rle_dict_decode, n * read_len, n * read_len)
    return AlignmentBatch(
        chrom=chrom,
        read_len=read_len,
        pos=pos,
        strand=strand,
        hits=hits,
        bases=bases.reshape(n, read_len),
        quals=quals.astype(np.uint8).reshape(n, read_len),
    )
