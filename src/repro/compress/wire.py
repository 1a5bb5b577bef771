"""Bounds-checked reads of untrusted encoded bytes.

Every decoder in this package reads its headers and payload slices
through these helpers, so a truncated or lying stream raises
:class:`~repro.errors.CodecError` with the byte offset of the damage —
never ``struct.error``, an ``IndexError`` or an allocation sized by a
corrupt count.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Iterator, Optional

from ..errors import CodecError


def read_header(fmt: str, data: bytes, offset: int, what: str) -> tuple:
    """``struct.unpack_from`` that refuses to read past the buffer."""
    size = struct.calcsize(fmt)
    present = max(len(data) - offset, 0)
    if present < size:
        raise CodecError(
            f"truncated {what}: {size} bytes needed, {present} present",
            offset=offset, column=what,
        )
    return struct.unpack_from(fmt, data, offset)


def take(data: bytes, offset: int, length: int, what: str) -> bytes:
    """The ``length`` bytes at ``offset``, or a CodecError if they are not
    all present (a declared length is checked before it is trusted)."""
    present = max(len(data) - offset, 0)
    if length > present:
        raise CodecError(
            f"{what} declares {length} bytes, {present} present",
            offset=offset, column=what,
        )
    return data[offset : offset + length]


def read_text(data: bytes, offset: int, length: int, what: str) -> str:
    """A UTF-8 string field of ``length`` bytes at ``offset``."""
    raw = take(data, offset, length, what)
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise CodecError(
            f"{what} is not UTF-8", offset=offset + exc.start, column=what,
        ) from None


@contextmanager
def at(offset: int, column: Optional[str] = None) -> Iterator[None]:
    """Re-raise a nested payload's CodecError at its position in the
    enclosing buffer (and, given ``column``, under that column's name)."""
    try:
        yield
    except CodecError as exc:
        raise CodecError(
            exc.reason,
            offset=offset + (exc.offset or 0),
            column=column if column is not None else exc.column,
        ) from exc


__all__ = ["at", "read_header", "read_text", "take"]
