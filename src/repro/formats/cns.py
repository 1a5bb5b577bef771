"""The 17-column SNP result table (SOAPsnp ``.cns`` text format).

Each row describes one site (Section III-A: "the result of SNP detection is
a table, in which each row records SNP related information for a site").
Columns, following SOAPsnp's consensus output:

 1. chromosome name            10. second-best base (or N)
 2. position (1-based)         11. average quality of second best
 3. reference base             12. count of uniquely-mapped second best
 4. consensus genotype (IUPAC) 13. count of all second best
 5. consensus quality          14. sequencing depth
 6. best base                  15. rank-sum test p-value
 7. average quality of best    16. average copy number
 8. count of uniquely-mapped   17. known-SNP flag
    best
 9. count of all best

The in-memory representation is a struct-of-arrays :class:`ResultTable`;
the text codec reproduces SOAPsnp's row format (and hence its output
volume, the quantity Figures 9-10 measure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..constants import (
    BASES,
    GENOTYPES,
    GENOTYPE_IUPAC,
    IUPAC_GENOTYPE,
    N_OUTPUT_COLUMNS,
)
from ..errors import FormatError

#: Sentinel base code meaning "no second allele observed".
NO_BASE = 4

_BASE_CHARS = BASES + "N"

#: Column-array fields of ResultTable in output order (cols 2..17).
COLUMN_FIELDS = (
    "pos",
    "ref_base",
    "genotype",
    "quality",
    "best_base",
    "avg_qual_best",
    "count_uni_best",
    "count_all_best",
    "second_base",
    "avg_qual_second",
    "count_uni_second",
    "count_all_second",
    "depth",
    "rank_sum",
    "copy_num",
    "known_snp",
)


@dataclass
class ResultTable:
    """Struct-of-arrays result table for one chromosome (or window)."""

    chrom: str
    pos: np.ndarray  # int64, 1-based
    ref_base: np.ndarray  # uint8 code 0..3
    genotype: np.ndarray  # uint8 genotype index 0..9
    quality: np.ndarray  # uint8 consensus quality 0..99
    best_base: np.ndarray  # uint8 code 0..3
    avg_qual_best: np.ndarray  # uint8
    count_uni_best: np.ndarray  # uint16
    count_all_best: np.ndarray  # uint16
    second_base: np.ndarray  # uint8 code 0..4 (4 = none)
    avg_qual_second: np.ndarray  # uint8
    count_uni_second: np.ndarray  # uint16
    count_all_second: np.ndarray  # uint16
    depth: np.ndarray  # uint16
    rank_sum: np.ndarray  # float32, quantized to 2 decimals
    copy_num: np.ndarray  # float32, quantized to 2 decimals
    known_snp: np.ndarray  # uint8 flag

    @property
    def n_sites(self) -> int:
        return int(self.pos.size)

    def validate(self) -> None:
        """Raise ValueError on shape or domain violations."""
        n = self.n_sites
        for f in fields(self):
            if f.name == "chrom":
                continue
            arr = getattr(self, f.name)
            if arr.shape != (n,):
                raise ValueError(f"column {f.name} shape {arr.shape} != ({n},)")
        if n == 0:
            return
        if self.genotype.max(initial=0) >= len(GENOTYPES):
            raise ValueError("genotype index out of range")
        if self.ref_base.max(initial=0) > 3 or self.best_base.max(initial=0) > 3:
            raise ValueError("base code out of range")
        if self.second_base.max(initial=0) > NO_BASE:
            raise ValueError("second base code out of range")

    @staticmethod
    def empty(chrom: str) -> "ResultTable":
        z8 = np.empty(0, dtype=np.uint8)
        z16 = np.empty(0, dtype=np.uint16)
        return ResultTable(
            chrom=chrom,
            pos=np.empty(0, dtype=np.int64),
            ref_base=z8.copy(), genotype=z8.copy(), quality=z8.copy(),
            best_base=z8.copy(), avg_qual_best=z8.copy(),
            count_uni_best=z16.copy(), count_all_best=z16.copy(),
            second_base=z8.copy(), avg_qual_second=z8.copy(),
            count_uni_second=z16.copy(), count_all_second=z16.copy(),
            depth=z16.copy(),
            rank_sum=np.empty(0, dtype=np.float32),
            copy_num=np.empty(0, dtype=np.float32),
            known_snp=z8.copy(),
        )

    @staticmethod
    def concat_all(tables) -> "ResultTable":
        """One or more tables' rows in order (the first one's chromosome),
        one ``np.concatenate`` per column."""
        if len(tables) == 1:
            return tables[0]
        return ResultTable(chrom=tables[0].chrom, **{
            f.name: np.concatenate([getattr(t, f.name) for t in tables])
            for f in fields(ResultTable) if f.name != "chrom"
        })

    def concat(self, other: "ResultTable") -> "ResultTable":
        """Append another table's rows (same chromosome)."""
        return ResultTable.concat_all([self, other])

    def equals(self, other: "ResultTable") -> bool:
        """Exact equality of all columns (the §IV-G consistency check)."""
        if self.chrom != other.chrom or self.n_sites != other.n_sites:
            return False
        for f in fields(self):
            if f.name == "chrom":
                continue
            if not np.array_equal(getattr(self, f.name), getattr(other, f.name)):
                return False
        return True


def format_rows(table: ResultTable) -> bytes:
    """Render a table as SOAPsnp-style tab-separated text."""
    out: list[str] = []
    for i in range(table.n_sites):
        g = GENOTYPE_IUPAC[GENOTYPES[int(table.genotype[i])]]
        out.append(
            "\t".join(
                (
                    table.chrom,
                    str(int(table.pos[i])),
                    _BASE_CHARS[int(table.ref_base[i])],
                    g,
                    str(int(table.quality[i])),
                    _BASE_CHARS[int(table.best_base[i])],
                    str(int(table.avg_qual_best[i])),
                    str(int(table.count_uni_best[i])),
                    str(int(table.count_all_best[i])),
                    _BASE_CHARS[int(table.second_base[i])],
                    str(int(table.avg_qual_second[i])),
                    str(int(table.count_uni_second[i])),
                    str(int(table.count_all_second[i])),
                    str(int(table.depth[i])),
                    f"{float(table.rank_sum[i]):.2f}",
                    f"{float(table.copy_num[i]):.2f}",
                    str(int(table.known_snp[i])),
                )
            )
            + "\n"
        )
    return "".join(out).encode()


def write_cns(path: str | Path, table: ResultTable, append: bool = False) -> int:
    """Write a table as text; returns bytes written."""
    data = format_rows(table)
    with open(path, "ab" if append else "wb") as f:
        f.write(data)
    return len(data)


#: ResultTable dtype of each parsed column.
_DTYPES = {
    "pos": np.int64, "ref_base": np.uint8, "genotype": np.uint8,
    "quality": np.uint8, "best_base": np.uint8, "avg_qual_best": np.uint8,
    "count_uni_best": np.uint16, "count_all_best": np.uint16,
    "second_base": np.uint8, "avg_qual_second": np.uint8,
    "count_uni_second": np.uint16, "count_all_second": np.uint16,
    "depth": np.uint16, "rank_sum": np.float32, "copy_num": np.float32,
    "known_snp": np.uint8,
}

_BASE_CODES = {c: i for i, c in enumerate(_BASE_CHARS)}


def _parse_field(name: str, text: str, where: str):
    """One column value of a row, or a FormatError naming ``where``."""
    if name in ("ref_base", "best_base", "second_base"):
        if text not in _BASE_CODES:
            raise FormatError(f"{where}: bad {name} {text!r}")
        return _BASE_CODES[text]
    if name == "genotype":
        if text not in IUPAC_GENOTYPE:
            raise FormatError(f"{where}: bad genotype {text!r}")
        return GENOTYPES.index(IUPAC_GENOTYPE[text])
    dtype = np.dtype(_DTYPES[name])
    floating = dtype.kind == "f"
    try:
        value = float(text) if floating else int(text)
    except ValueError:
        raise FormatError(f"{where}: bad {name} value {text!r}") from None
    if floating:
        fits = not math.isfinite(value) or abs(value) <= np.finfo(dtype).max
    else:
        fits = np.iinfo(dtype).min <= value <= np.iinfo(dtype).max
    if not fits:
        raise FormatError(f"{where}: {name} {text!r} does not fit {dtype}")
    return value


def parse_rows(
    data: bytes, chrom_hint: str | None = None, path: str | Path = "<cns>"
) -> ResultTable:
    """Parse tab-separated rows back into a table.

    Any malformed row is a :class:`FormatError` carrying ``path:line``
    coordinates and the offending field.
    """
    cols: dict[str, list] = {name: [] for name in COLUMN_FIELDS}
    chrom = chrom_hint or ""
    for lineno, raw in enumerate(data.splitlines(), 1):
        if not raw:
            continue
        where = f"{path}:{lineno}"
        try:
            line = raw.decode()
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{where}: not UTF-8 text (byte {exc.start})"
            ) from None
        parts = line.split("\t")
        if len(parts) != N_OUTPUT_COLUMNS:
            raise FormatError(
                f"{where}: expected {N_OUTPUT_COLUMNS} columns, "
                f"got {len(parts)}"
            )
        chrom = parts[0]
        for name, text in zip(COLUMN_FIELDS, parts[1:]):
            cols[name].append(_parse_field(name, text, where))
    return ResultTable(
        chrom=chrom,
        **{
            name: np.asarray(vals, dtype=_DTYPES[name])
            for name, vals in cols.items()
        },
    )


def read_cns(path: str | Path) -> ResultTable:
    """Read a .cns text file into a table."""
    with open(path, "rb") as f:
        return parse_rows(f.read(), path=path)
