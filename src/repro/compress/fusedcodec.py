"""Megabatched output compression: segmented codec kernels per column.

The unfused output phase runs the RLE-DICT device chain once per window
per quality column — six columns x (run-flag + reduce + two
sort/unique/search chains) x every window.  That makes the output codec
the launch-count leader of the whole pipeline.  The fused path instead
concatenates each column across all windows of a megabatch and runs the
chain *once*, using the segmented primitives:

* run flags come from :func:`segmented_flag_runs` (a window boundary
  always starts a new run, so the flag total equals the sum of
  per-window run counts);
* both DICT levels go through :func:`segmented_dict_indices`, which
  embeds the window id in the high bits of a composite sort key so a
  single sort/unique/search yields every window's private dictionary
  and segment-local indices.

The emitted bytes still come from the host encoders via
:func:`repro.compress.columnar.encode_table` — the same bytes the
per-window GPU encoder produces (byte-parity between the host and GPU
encoders is an existing tested invariant) — so fusing the device work
cannot perturb the output stream.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from ..gpusim.device import Device
from ..gpusim.primitives.reduce import device_reduce
from ..gpusim.primitives.segmented import (
    segmented_dict_indices,
    segmented_flag_runs,
)
from .columnar import RLE_DICT_COLUMNS, _quantize100, encode_table
from .rle import rle_encode


def _rank_keys(values: np.ndarray) -> np.ndarray:
    """uint32 sort keys with the rank-map rule of the per-window encoder."""
    values = np.asarray(values)
    if values.dtype.kind in "ui" and values.itemsize <= 4:
        return values.astype(np.uint32)
    return np.searchsorted(np.unique(values), values).astype(np.uint32)


def _column_values(table, name: str) -> np.ndarray:
    v = np.asarray(getattr(table, name))
    if name in ("rank_sum", "copy_num"):
        return _quantize100(v)
    return v


def _fused_rle_dict_column(device: Device, cols: list[np.ndarray]) -> None:
    """Device work for one column across all windows, in one chain."""
    cols = [np.asarray(c) for c in cols if np.asarray(c).size]
    if not cols:
        return
    # --- RLE level: one segmented run-flag launch + one reduction -------
    values = np.concatenate([_rank_keys(c) for c in cols])
    seg_first = np.zeros(values.size, dtype=np.uint8)
    seg_first[np.cumsum([0] + [c.size for c in cols[:-1]])] = 1
    vals_dev = device.to_device(values, "fusedrle.values")
    first_dev = device.to_device(seg_first, "fusedrle.first")
    flags = segmented_flag_runs(device, vals_dev, first_dev)
    n_runs = int(device_reduce(device, flags, op="sum"))
    for a in (vals_dev, first_dev, flags):
        device.free(a)
    runs = [rle_encode(c) for c in cols]
    host_runs = sum(rv.size for rv, _ in runs)
    if n_runs != host_runs:
        raise KernelError(
            f"fused RLE counted {n_runs} runs, the host encoder {host_runs}"
        )
    # --- DICT level: one segmented chain per run array ------------------
    for seg_keys, host in (
        ([_rank_keys(rv) for rv, _ in runs], [rv for rv, _ in runs]),
        (
            [rl.astype(np.uint32) for _, rl in runs],
            [rl.astype(np.uint32) for _, rl in runs],
        ),
    ):
        local_idx, dict_sizes = segmented_dict_indices(device, seg_keys)
        # Parity check against the per-window dictionary lookup: the
        # composite-key chain must reproduce each window's searchsorted
        # indices and dictionary size exactly.
        off = 0
        for w, (seg, arr) in enumerate(zip(seg_keys, host)):
            got = local_idx[off : off + seg.size]
            off += seg.size
            if not np.array_equal(got, np.searchsorted(np.unique(arr), arr)):
                raise KernelError(
                    f"fused DICT indices of window {w} differ from the "
                    "per-window lookup"
                )
        host_sizes = [int(np.unique(a).size) for a in host]
        if dict_sizes != host_sizes:
            raise KernelError(
                f"fused DICT sizes {dict_sizes} differ from the per-window "
                f"dictionaries' {host_sizes}"
            )


def encode_tables_fused(device: Device | None, tables: list) -> list[bytes]:
    """Encode a megabatch of result tables with segmented device codecs.

    Returns one container blob per table, byte-identical to per-window
    :func:`encode_table` output.  With a device, the six RLE-DICT quality
    columns charge their codec kernels once per megabatch instead of
    once per window.
    """
    if device is not None and tables:
        for name in RLE_DICT_COLUMNS:
            _fused_rle_dict_column(
                device, [_column_values(t, name) for t in tables]
            )
    return [encode_table(t) for t in tables]


__all__ = ["encode_tables_fused"]
