"""Least-bits packing of small unsigned integers (Section V-B).

After dictionary encoding, indices are packed with the minimum bit width —
"we encode the index using least bits through a map".  Packing is
vectorized: ``np.unpackbits`` of the values' big-endian bytes, cut to
``width`` bits per value, then ``np.packbits``.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError


def bits_needed(max_value: int) -> int:
    """Minimum bits to represent values in [0, max_value]; at least 1."""
    if max_value < 0:
        raise CodecError("bitpack requires non-negative values")
    return max(1, int(max_value).bit_length())


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative integers into ``width`` bits each, MSB first."""
    values = np.asarray(values)
    if values.size == 0:
        return b""
    if width <= 0 or width > 64:
        raise CodecError(f"invalid bit width {width}")
    v = values.astype(np.uint64)
    if int(v.max()) >= (1 << width):
        raise CodecError(
            f"value {int(v.max())} does not fit in {width} bits"
        )
    # Each value's low ``width`` bits, MSB first: the tail of the bits of
    # its big-endian bytes, in the narrowest word that holds ``width``.
    word = next(b for b in (1, 2, 4, 8) if width <= 8 * b)
    be = v.astype(f">u{word}").view(np.uint8).reshape(v.size, word)
    return np.packbits(np.unpackbits(be, axis=1)[:, 8 * word - width :]).tobytes()


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns uint64 values.

    The payload must hold ``count * width`` bits: the check runs before
    anything is allocated, so a corrupt ``count`` cannot size the output.
    """
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    if not 1 <= width <= 64:
        raise CodecError(f"invalid bit width {width}", offset=0)
    total_bits = count * width
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size * 8 < total_bits:
        raise CodecError(
            f"bitpack payload too short: {raw.size * 8} bits < {total_bits}",
            offset=0,
        )
    bits = np.unpackbits(raw)[:total_bits].reshape(count, width)
    weights = (1 << np.arange(width - 1, -1, -1, dtype=np.uint64))
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1)
