"""Least-bits packing of small unsigned integers (Section V-B).

After dictionary encoding, indices are packed with the minimum bit width —
"we encode the index using least bits through a map".  Byte-aligned
widths build no bit matrix: widths 1, 2 and 4 pack ``8 // width`` values
into a byte by shifts, 8/16/32/64 are big-endian words, and below 8 bits
eight values unpack from each ``width``-byte group as one big-endian
word.  Other widths go through ``np.unpackbits``/``np.packbits``.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError

#: Widths packed by shifts within a byte, ``8 // width`` values a byte.
_SUB_BYTE = (1, 2, 4)
#: Widths that are whole big-endian words.
_WORDS = (8, 16, 32, 64)


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
    top = int((values if values.dtype.kind == "u" else
               values.astype(np.uint64)).max())
    if top >= (1 << width):
        raise CodecError(f"value {top} does not fit in {width} bits")
    if width in _SUB_BYTE:
        per = 8 // width
        grid = np.zeros(-(-values.size // per) * per, np.uint8)
        grid[: values.size] = values
        grid = grid.reshape(-1, per)
        out = np.zeros(len(grid), np.uint8)
        for j in range(per):
            out |= grid[:, j] << np.uint8(8 - width * (j + 1))
        return out.tobytes()
    if width in _WORDS:
        return values.astype(f">u{width // 8}").tobytes()
    # Each value's low ``width`` bits, MSB first: the tail of the bits of
    # its big-endian bytes, in the narrowest word that holds ``width``.
    word = next(b for b in (1, 2, 4, 8) if width <= 8 * b)
    be = values.astype(f">u{word}").view(np.uint8).reshape(values.size, word)
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
    raw = raw[: -(-total_bits // 8)]
    if width in _WORDS:
        return raw.view(f">u{width // 8}").astype(np.uint64)
    mask = (1 << width) - 1
    if width in _SUB_BYTE:
        shifts = np.arange(8 - width, -1, -width, dtype=np.uint8)
        out = (raw[:, None] >> shifts) & np.uint8(mask)
        return out.reshape(-1)[:count].astype(np.uint64)
    if width < 8:  # eight values fill ``width`` bytes: one uint64 a group
        groups = -(-count // 8)
        flat = np.zeros(groups * width, np.uint8)
        flat[: raw.size] = raw
        words = np.zeros((groups, 8), np.uint8)
        words[:, 8 - width :] = flat.reshape(groups, width)
        shifts = np.arange(7 * width, -1, -width, dtype=np.uint64)
        out = (words.view(">u8") >> shifts) & np.uint64(mask)
        return out.reshape(-1)[:count]
    bits = np.unpackbits(raw)[:total_bits].reshape(count, width)
    weights = (1 << np.arange(width - 1, -1, -1, dtype=np.uint64))
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1)
