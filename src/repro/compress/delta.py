"""Delta encoding for sorted position columns.

The alignment input is ordered by matched position, so consecutive
positions differ by small non-negative gaps; storing first value + gaps at
the minimum bit width shrinks the 8-byte positions to a few bits each.
Used by the temporary-input compression (Section V-A).
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import CodecError
from .bitpack import bits_needed, pack_bits, unpack_bits
from .wire import at, read_header


def delta_encode(values: np.ndarray) -> bytes:
    """Encode a non-decreasing int64 array as first value + packed gaps."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return struct.pack("<IqB", 0, 0, 1)
    gaps = np.diff(values)
    if gaps.size and int(gaps.min()) < 0:
        raise CodecError("delta encoding requires a sorted column")
    width = bits_needed(int(gaps.max()) if gaps.size else 0)
    header = struct.pack("<IqB", values.size, int(values[0]), width)
    return header + pack_bits(gaps, width)


def delta_decode(data: bytes) -> np.ndarray:
    """Inverse of :func:`delta_encode`."""
    count, first, width = read_header("<IqB", data, 0, "delta header")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    with at(13):
        gaps = unpack_bits(data[13:], width, count - 1).astype(np.int64)
    out = np.empty(count, dtype=np.int64)
    out[0] = first
    if count > 1:
        out[1:] = first + np.cumsum(gaps)
    return out
