"""2-bit nucleotide encoding for base-type columns (Section V-B).

"For the three columns containing four base types, two bits are used to
encode each type."
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import CodecError
from .bitpack import pack_bits, unpack_bits
from .wire import at, read_header


def twobit_encode(codes: np.ndarray) -> bytes:
    """Encode base codes (0..3) at two bits each."""
    codes = np.asarray(codes)
    if codes.size and int(codes.max()) > 3:
        raise CodecError("two-bit codec requires values in 0..3")
    return struct.pack("<I", codes.size) + pack_bits(codes, 2)


def twobit_decode(data: bytes) -> np.ndarray:
    """Inverse of :func:`twobit_encode`; returns uint8 codes."""
    (count,) = read_header("<I", data, 0, "two-bit header")
    with at(4):
        return unpack_bits(data[4:], 2, count).astype(np.uint8)
