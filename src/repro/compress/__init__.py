"""Customized compression subsystem (Section V)."""

from .bitpack import bits_needed, pack_bits, unpack_bits
from .columnar import (
    RLE_DICT_COLUMNS,
    decode_alignments,
    decode_table,
    encode_alignments,
    encode_table,
)
from .delta import delta_decode, delta_encode
from .dictionary import dict_decode, dict_encode, dict_encode_gpu
from .gzipcodec import GZIP_COMPRESS_BW, GZIP_DECOMPRESS_BW, gzip_compress
from .reader import CompressedResultReader
from .rle import mean_run_length, rle_decode, rle_encode
from .rle_dict import rle_dict_decode, rle_dict_encode, rle_dict_encode_gpu
from .sparse import (
    exception_decode,
    exception_encode,
    sparse_decode,
    sparse_encode,
)
from .twobit import twobit_decode, twobit_encode

__all__ = [
    "CompressedResultReader",
    "GZIP_COMPRESS_BW",
    "GZIP_DECOMPRESS_BW",
    "RLE_DICT_COLUMNS",
    "bits_needed",
    "decode_alignments",
    "decode_table",
    "delta_decode",
    "delta_encode",
    "dict_decode",
    "dict_encode",
    "dict_encode_gpu",
    "encode_alignments",
    "encode_table",
    "exception_decode",
    "exception_encode",
    "gzip_compress",
    "mean_run_length",
    "pack_bits",
    "rle_decode",
    "rle_dict_decode",
    "rle_dict_encode",
    "rle_dict_encode_gpu",
    "rle_encode",
    "sparse_decode",
    "sparse_encode",
    "twobit_decode",
    "twobit_encode",
    "unpack_bits",
]
