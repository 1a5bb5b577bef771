"""Sparse and exception (difference) column codecs (Section V-B).

* :func:`sparse_encode` — "a certain number of columns related to the
  second allele are sparse.  Then we only store non-zero elements": the
  column is stored as (positions, values) of entries differing from a
  constant default.
* :func:`exception_encode` — "several columns related to SNPs are similar
  due to the low probability of SNPs.  We only need to store differences":
  the column is stored as its differences against a *predicted* column the
  decoder can reconstruct (e.g. the hom-reference genotype derived from
  the reference-base column).

Exception positions are sorted, so they are delta-coded and bit-packed;
exception values go through DICT — both levels reuse the package's own
primitives, keeping every byte accounted for.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import CodecError
from .delta import delta_decode, delta_encode
from .dictionary import dict_decode, dict_encode, dtype_tag, tag_dtype
from .wire import at, read_header, take


def _encode_exceptions(idx: np.ndarray, values: np.ndarray) -> bytes:
    """Shared payload: delta-packed positions + DICT-packed values."""
    idx_blob = delta_encode(idx.astype(np.int64))
    val_blob = dict_encode(values)
    return (
        struct.pack("<II", len(idx_blob), len(val_blob)) + idx_blob + val_blob
    )


def _decode_exceptions(
    data: bytes, offset: int, count: int, dt: np.dtype
) -> tuple[np.ndarray, np.ndarray]:
    """(positions, values) of the exceptions of a ``count``-entry column,
    checked to index it and to carry its dtype."""
    ni, nv = read_header("<II", data, offset, "exception header")
    idx_at, val_at = offset + 8, offset + 8 + ni
    idx_blob = take(data, idx_at, ni, "exception positions")
    val_blob = take(data, val_at, nv, "exception values")
    with at(idx_at):
        idx = delta_decode(idx_blob)
    with at(val_at):
        values = dict_decode(val_blob)
    if idx.size != values.size:
        raise CodecError(
            f"{idx.size} exception positions but {values.size} values",
            offset=offset,
        )
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= count):
        raise CodecError(
            f"exception position outside the {count}-entry column",
            offset=idx_at,
        )
    if values.dtype != dt:
        raise CodecError(
            f"exception values are {values.dtype}, column is {dt}",
            offset=val_at,
        )
    return idx, values


def _fill_value(dt: np.dtype, default: float):
    """``default`` as a ``dt`` scalar, if ``dt`` can hold it exactly."""
    if dt.kind in "ui" and not (
        float(default).is_integer()
        and np.iinfo(dt).min <= default <= np.iinfo(dt).max
    ):
        raise CodecError(f"default {default!r} is not a {dt} value", offset=5)
    return dt.type(default)


def sparse_encode(values: np.ndarray, default) -> bytes:
    """Store only the entries that differ from ``default``."""
    values = np.asarray(values)
    tag = dtype_tag(values.dtype)
    idx = np.nonzero(values != values.dtype.type(default))[0]
    if values.size >= 1 << 32:
        raise CodecError("column too long for uint32 positions")
    header = struct.pack("<IBd", values.size, tag, float(default))
    return header + _encode_exceptions(idx, values[idx])


def sparse_decode(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`sparse_encode` for a ``count``-entry column.

    The header's length field sizes the output but no payload byte vouches
    for it, so it must equal ``count`` before anything is allocated.
    """
    n, tag, default = read_header("<IBd", data, 0, "sparse header")
    if n != count:
        raise CodecError(
            f"sparse column declares {n} entries, expected {count}", offset=0,
        )
    with at(4):
        dt = tag_dtype(tag)
    fill = _fill_value(dt, default)
    idx, vals = _decode_exceptions(data, 13, n, dt)
    out = np.full(n, fill, dtype=dt)
    out[idx] = vals
    return out


def exception_encode(values: np.ndarray, predicted: np.ndarray) -> bytes:
    """Store only the entries where ``values`` differs from ``predicted``."""
    values = np.asarray(values)
    predicted = np.asarray(predicted, dtype=values.dtype)
    if values.shape != predicted.shape:
        raise CodecError("prediction shape mismatch")
    tag = dtype_tag(values.dtype)
    idx = np.nonzero(values != predicted)[0]
    header = struct.pack("<IB", values.size, tag)
    return header + _encode_exceptions(idx, values[idx])


def exception_decode(data: bytes, predicted: np.ndarray) -> np.ndarray:
    """Inverse of :func:`exception_encode` given the same prediction."""
    count, tag = read_header("<IB", data, 0, "exception header")
    with at(4):
        dt = tag_dtype(tag)
    predicted = np.asarray(predicted, dtype=dt)
    if predicted.size != count:
        raise CodecError(
            f"prediction has {predicted.size} entries, column has {count}",
            offset=0,
        )
    idx, vals = _decode_exceptions(data, 5, count, dt)
    out = predicted.copy()
    out[idx] = vals
    return out
