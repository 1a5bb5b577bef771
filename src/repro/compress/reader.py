"""Decompression tools and APIs for GSNP output (Section V-B).

"Higher level applications based on the SNP detection result are to query
sites satisfying certain conditions.  A common operation is a sequential
read on the SNP output data."  :class:`CompressedResultReader` iterates the
window blocks of a compressed result file, decompressing in memory, and
offers simple site-range / SNP-only queries on top.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import CodecError
from ..formats.cns import ResultTable
from .columnar import decode_table


class CompressedResultReader:
    """Sequential reader over a GSNP compressed result file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as f:
            self._data = f.read()
        if not self._data:
            raise CodecError(f"{path}: empty compressed result")

    def __iter__(self) -> Iterator[ResultTable]:
        """Yield one decoded table per window block."""
        offset = 0
        while offset < len(self._data):
            table, offset = decode_table(self._data, offset)
            yield table

    def read_all(self) -> ResultTable:
        """Decode and concatenate every block."""
        return ResultTable.concat_all(list(self))

    def query_range(self, lo: int, hi: int) -> ResultTable:
        """All rows with 1-based position in [lo, hi)."""
        parts = []
        for table in self:
            if table.n_sites == 0:
                continue
            first, last = int(table.pos[0]), int(table.pos[-1])
            if last < lo or first >= hi:
                continue
            mask = (table.pos >= lo) & (table.pos < hi)
            parts.append(_select(table, mask))
        if not parts:
            raise CodecError(f"no rows in range [{lo}, {hi})")
        return ResultTable.concat_all(parts)

    def query_snps(self) -> ResultTable:
        """Only rows whose consensus differs from hom-reference."""
        from ..soapsnp.posterior import is_snp_call

        parts = []
        chrom = ""
        for table in self:
            chrom = table.chrom
            mask = is_snp_call(table)
            if mask.any():
                parts.append(_select(table, mask))
        if not parts:
            return ResultTable.empty(chrom)
        return ResultTable.concat_all(parts)


def _select(table: ResultTable, mask: np.ndarray) -> ResultTable:
    from dataclasses import fields

    kwargs = {"chrom": table.chrom}
    for f in fields(table):
        if f.name == "chrom":
            continue
        kwargs[f.name] = getattr(table, f.name)[mask]
    return ResultTable(**kwargs)
