"""Two-level RLE-DICT compression (Section V-B).

"We first apply run-length encoding (RLE) to compress repeats, which
produces two arrays storing the value and length for each run.  Next, we
use the dictionary-based encoding (DICT) to compress both run value and
length arrays."  The GPU variant implements RLE with the *reduction*
primitive (run-boundary flags reduced to counts) and DICT with
sort/unique/binary-search, matching the paper's kernel inventory.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import CodecError
from ..gpusim.device import Device
from ..gpusim.primitives.reduce import device_reduce
from ..gpusim.primitives.unique import _flag_kernel
from .dictionary import dict_decode, dict_encode, dict_encode_gpu, rank_keys
from .rle import rle_decode, rle_encode
from .wire import at, read_header, take


def rle_dict_encode(values: np.ndarray) -> bytes:
    """RLE, then DICT on run values and (uint32) run lengths."""
    run_values, run_lengths = rle_encode(np.asarray(values))
    if run_lengths.size and int(run_lengths.max()) >= 1 << 32:
        raise CodecError("run too long for uint32 length storage")
    return rle_dict_join(
        dict_encode(run_values), dict_encode(run_lengths.astype(np.uint32))
    )


def rle_dict_join(v_blob: bytes, l_blob: bytes) -> bytes:
    """The RLE-DICT payload of DICT-encoded run values and run lengths."""
    return struct.pack("<II", len(v_blob), len(l_blob)) + v_blob + l_blob


def rle_dict_decode(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`rle_dict_encode` for a ``count``-entry column.

    Run lengths that do not sum to exactly ``count`` are rejected before
    the runs are expanded.
    """
    nv, nl = read_header("<II", data, 0, "RLE-DICT header")
    v_blob = take(data, 8, nv, "RLE-DICT run values")
    l_blob = take(data, 8 + nv, nl, "RLE-DICT run lengths")
    with at(8):
        run_values = dict_decode(v_blob)
    with at(8 + nv):
        run_lengths = dict_decode(l_blob)
    if run_lengths.dtype.kind != "u":
        raise CodecError(
            f"run lengths must be unsigned, got {run_lengths.dtype}",
            offset=8 + nv,
        )
    # With at most ``count`` runs of at most ``count`` entries each, the
    # uint64 sum cannot wrap.
    if run_lengths.size > count or (
        run_lengths.size and int(run_lengths.max()) > count
    ) or int(run_lengths.sum(dtype=np.uint64)) != count:
        raise CodecError(
            f"runs do not cover exactly {count} entries", offset=8 + nv,
        )
    with at(8):
        return rle_decode(run_values, run_lengths.astype(np.int64))


def rle_dict_encode_gpu(device: Device, values: np.ndarray) -> bytes:
    """GPU RLE-DICT: run flags + reduction for RLE, device DICT for both
    arrays.  Byte-identical to the CPU encoder.  The run flags are
    :func:`~repro.gpusim.primitives.unique.device_unique`'s flag kernel,
    launched as ``rle_flag``."""
    values = np.asarray(values)
    if values.size:
        vals_dev = device.to_device(rank_keys(values), "rle.values")
        flags = device.alloc(values.size, np.int64, "rle.flags")
        device.launch(
            _flag_kernel, values.size, vals_dev, flags, values.size,
            name="rle_flag",
        )
        # Number of runs via the reduction primitive (the paper: "RLE is
        # implemented using the primitive reduction on the GPU").
        _n_runs = int(device_reduce(device, flags))
        device.free(vals_dev)
        device.free(flags)
        run_values, run_lengths = rle_encode(values)
        assert _n_runs == run_values.size
        v_blob = dict_encode_gpu(device, run_values)
        l_blob = dict_encode_gpu(device, run_lengths.astype(np.uint32))
    else:
        v_blob = dict_encode(values)
        l_blob = dict_encode(np.empty(0, dtype=np.uint32))
    return rle_dict_join(v_blob, l_blob)
