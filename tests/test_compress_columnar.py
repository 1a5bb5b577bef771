"""17-column container codec, alignment compression, gzip baseline, reader."""

import zlib

import numpy as np
import pytest

from repro.align.records import AlignmentBatch
from repro.compress import (
    CompressedResultReader,
    decode_alignments,
    decode_table,
    encode_alignments,
    encode_table,
    gzip_compress,
)
from repro.errors import CodecError
from repro.formats.cns import format_rows
from repro.formats.soap import soap_line_bytes
from repro.gpusim.device import Device
from repro.soapsnp import SoapsnpPipeline
from repro.soapsnp.posterior import is_snp_call


@pytest.fixture(scope="module")
def result(small_dataset):
    return SoapsnpPipeline(window_size=2000).run(small_dataset)


class TestTableCodec:
    def test_roundtrip_exact(self, result):
        blob = encode_table(result.table)
        table, offset = decode_table(blob)
        assert offset == len(blob)
        assert table.equals(result.table)

    def test_gpu_encoding_byte_identical(self, result):
        device = Device()
        assert encode_table(result.table, device=device) == encode_table(
            result.table
        )

    def test_compression_ratio_vs_text(self, result):
        """Fig 9a: customized compression ~14-16x smaller than text
        (accept >8x on synthetic data)."""
        text = format_rows(result.table)
        blob = encode_table(result.table)
        assert len(text) / len(blob) > 8

    def test_beats_gzip(self, result):
        """Fig 9a: gzip output ~1.5x larger than GSNP's."""
        text = format_rows(result.table)
        gz = gzip_compress(text)
        blob = encode_table(result.table)
        assert len(gz) / len(blob) > 1.1

    def test_bad_magic_rejected(self, result):
        blob = bytearray(encode_table(result.table))
        blob[0] ^= 0xFF
        with pytest.raises(CodecError):
            decode_table(bytes(blob))

    def test_nonconsecutive_positions_rejected(self, result):
        import dataclasses

        bad = result.table.concat(result.table)
        with pytest.raises(CodecError):
            encode_table(bad)

    def test_empty_window(self):
        from repro.formats.cns import ResultTable

        empty = ResultTable.empty("chrE")
        blob = encode_table(empty)
        table, _ = decode_table(blob)
        assert table.n_sites == 0

    def test_multiblock_stream(self, result):
        blob = encode_table(result.table) * 3
        offset, count = 0, 0
        while offset < len(blob):
            t, offset = decode_table(blob, offset)
            count += 1
        assert count == 3


class TestAlignmentCodec:
    def test_roundtrip(self, small_batch):
        blob = encode_alignments(small_batch)
        back = decode_alignments(blob)
        assert back.chrom == small_batch.chrom
        for f in ("pos", "strand", "hits", "bases", "quals"):
            assert np.array_equal(getattr(back, f), getattr(small_batch, f))

    def test_ratio_about_one_third(self, small_batch):
        """Fig 10b: compressed temp input ~1/3 of the original."""
        raw = small_batch.n_reads * soap_line_bytes(small_batch.read_len)
        blob = encode_alignments(small_batch)
        assert len(blob) < raw / 2.5

    def test_bad_magic(self, small_batch):
        blob = bytearray(encode_alignments(small_batch))
        blob[0] ^= 1
        with pytest.raises(CodecError):
            decode_alignments(bytes(blob))


class TestGzipBaseline:
    def test_roundtrip(self, result):
        text = format_rows(result.table)
        gz = gzip_compress(text)
        assert zlib.decompress(gz) == text
        assert len(gz) < len(text)


def _rows(table, lo, hi):
    """Rows ``[lo, hi)`` of a result table."""
    from dataclasses import fields

    from repro.formats.cns import ResultTable

    return ResultTable(chrom=table.chrom, **{
        f.name: getattr(table, f.name)[lo:hi]
        for f in fields(table) if f.name != "chrom"
    })


class TestReader:
    @pytest.fixture(scope="class")
    def compressed_file(self, result, tmp_path_factory):
        path = tmp_path_factory.mktemp("cr") / "out.gsnp"
        # Two window blocks.
        n = result.table.n_sites
        blob = (encode_table(_rows(result.table, 0, n // 2))
                + encode_table(_rows(result.table, n // 2, n)))
        path.write_bytes(blob)
        return path

    def test_iterates_blocks(self, compressed_file):
        reader = CompressedResultReader(compressed_file)
        assert len(list(reader)) == 2

    def test_read_all_equals_original(self, compressed_file, result):
        reader = CompressedResultReader(compressed_file)
        assert reader.read_all().equals(result.table)

    def test_read_all_builds_one_table(self, result, tmp_path):
        """Blocks merge in one concatenation, not a pairwise fold."""
        from unittest import mock

        from repro.formats.cns import ResultTable

        table, n = result.table, result.table.n_sites
        cuts = [0, n // 4, n // 2, 3 * n // 4, n]
        path = tmp_path / "four.gsnp"
        path.write_bytes(b"".join(
            encode_table(_rows(table, lo, hi))
            for lo, hi in zip(cuts, cuts[1:])
        ))
        reader = CompressedResultReader(path)
        built = []
        init = ResultTable.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        with mock.patch.object(ResultTable, "__init__", spy):
            merged = reader.read_all()
        assert len(built) == 4 + 1  # four decoded blocks, one merge
        assert merged.equals(table)

    def test_query_range(self, compressed_file, result):
        reader = CompressedResultReader(compressed_file)
        sub = reader.query_range(100, 200)
        assert sub.n_sites == 100
        assert sub.pos[0] == 100 and sub.pos[-1] == 199

    def test_query_range_across_blocks(self, compressed_file, result):
        n = result.table.n_sites
        reader = CompressedResultReader(compressed_file)
        sub = reader.query_range(n // 2 - 10, n // 2 + 10)
        assert sub.n_sites == 20

    def test_query_snps(self, compressed_file, result):
        reader = CompressedResultReader(compressed_file)
        snps = reader.query_snps()
        assert snps.n_sites == int(is_snp_call(result.table).sum())

    def test_empty_range_raises(self, compressed_file, result):
        reader = CompressedResultReader(compressed_file)
        with pytest.raises(CodecError):
            reader.query_range(10**9, 10**9 + 5)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "e.gsnp"
        p.write_bytes(b"")
        with pytest.raises(CodecError):
            CompressedResultReader(p)
