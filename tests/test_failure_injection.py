"""Failure injection: corrupted inputs must fail loudly, never silently.

A production caller that mis-parses its input corrupts downstream science;
every decoder in the package raises a typed error on malformed bytes
instead of returning garbage.
"""

import numpy as np
import pytest

from repro.compress import (
    decode_alignments,
    decode_table,
    encode_alignments,
    encode_table,
    rle_dict_decode,
    rle_dict_encode,
)
from repro.errors import CodecError, FormatError
from repro.formats import read_soap
from repro.soapsnp import SoapsnpPipeline


@pytest.fixture(scope="module")
def table_blob(small_dataset):
    table = SoapsnpPipeline(window_size=2000).run(small_dataset).table
    return encode_table(table), table


class TestCorruptedContainers:
    def test_truncated_table_blob(self, table_blob):
        blob, _ = table_blob
        with pytest.raises(CodecError):
            decode_table(blob[: len(blob) // 2])

    def test_flipped_magic(self, table_blob):
        blob, _ = table_blob
        bad = b"XXXXXX" + blob[6:]
        with pytest.raises(CodecError, match="magic"):
            decode_table(bad)

    def test_bitflip_in_payload_detected_or_changed(self, table_blob):
        """A payload bit flip either raises or produces a different table
        — it must never silently reproduce the original."""
        blob, table = table_blob
        bad = bytearray(blob)
        bad[len(bad) // 2] ^= 0x40
        try:
            decoded, _ = decode_table(bytes(bad))
        except CodecError:
            return
        assert not decoded.equals(table)

    def test_truncated_alignment_blob(self, small_batch):
        blob = encode_alignments(small_batch)
        with pytest.raises(CodecError):
            decode_alignments(blob[:100])

    def test_wrong_alignment_magic(self, small_batch):
        blob = encode_alignments(small_batch)
        with pytest.raises(CodecError, match="magic"):
            decode_alignments(b"NOTGSN" + blob[6:])


class TestCorruptedPrimitives:
    def test_rle_dict_garbage(self):
        with pytest.raises(CodecError):
            rle_dict_decode(b"\x00" * 4, 3)

    def test_rle_dict_declared_sizes_lie(self):
        import struct

        good = rle_dict_encode(np.array([1, 1, 2], dtype=np.uint8))
        bad = struct.pack("<II", 10_000, 10_000) + good[8:]
        with pytest.raises(CodecError):
            rle_dict_decode(bad, 3)


class TestCorruptedTextFormats:
    def test_soap_quality_out_of_range(self, tmp_path):
        p = tmp_path / "bad.soap"
        # Quality char beyond Phred 63 (ASCII 33+64=97='a' is invalid).
        p.write_text("r\tACGT\tzzzz\t1\t4\t+\tchr\t1\n")
        with pytest.raises(FormatError, match="quality"):
            read_soap(p)

    def test_soap_invalid_base(self, tmp_path):
        p = tmp_path / "bad.soap"
        p.write_text("r\tACGX\t!!!!\t1\t4\t+\tchr\t1\n")
        with pytest.raises(FormatError, match="base"):
            read_soap(p)
