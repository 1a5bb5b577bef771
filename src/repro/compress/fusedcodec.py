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

The parity checks' host results (each window's runs, dictionaries and
indices) are what the emitted RLE-DICT payloads are made of, handed to
:func:`repro.compress.columnar.encode_table` once per table — the same
bytes the per-window host and GPU encoders produce (byte-parity between
them is an existing tested invariant), so fusing the device work cannot
perturb the output stream.
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
from .columnar import RLE_DICT_COLUMNS, column_values, encode_table
from .dictionary import dict_blob, rank_keys
from .rle import rle_encode
from .rle_dict import rle_dict_join


def _fused_rle_dict_column(device: Device, cols: list[np.ndarray]) -> list:
    """Device work for one column across all windows, in one chain;
    returns each window's RLE-DICT payload, made of the host runs,
    dictionaries and indices the device results are checked against."""
    # --- RLE level: one segmented run-flag launch + one reduction -------
    values = np.concatenate([rank_keys(c) for c in cols])
    seg_first = np.zeros(values.size, dtype=np.uint8)
    seg_first[np.cumsum([0] + [c.size for c in cols[:-1]])] = 1
    vals_dev = device.to_device(values, "fusedrle.values")
    first_dev = device.to_device(seg_first, "fusedrle.first")
    flags = segmented_flag_runs(device, vals_dev, first_dev)
    n_runs = int(device_reduce(device, flags))
    for a in (vals_dev, first_dev, flags):
        device.free(a)
    runs = [rle_encode(c) for c in cols]
    host_runs = sum(rv.size for rv, _ in runs)
    if n_runs != host_runs:
        raise KernelError(
            f"fused RLE counted {n_runs} runs, the host encoder {host_runs}"
        )
    # --- DICT level: one segmented chain per run array ------------------
    blobs = []
    for seg_keys, host in (
        ([rank_keys(rv) for rv, _ in runs], [rv for rv, _ in runs]),
        (
            [rl.astype(np.uint32) for _, rl in runs],
            [rl.astype(np.uint32) for _, rl in runs],
        ),
    ):
        local_idx, dict_sizes = segmented_dict_indices(device, seg_keys)
        # Parity check against the per-window dictionary lookup: the
        # composite-key chain must reproduce each window's searchsorted
        # indices and dictionary size exactly.
        tables = [np.unique(a) for a in host]
        off = 0
        level = []
        for w, (arr, table) in enumerate(zip(host, tables)):
            idx = np.searchsorted(table, arr)
            if not np.array_equal(local_idx[off : off + arr.size], idx):
                raise KernelError(
                    f"fused DICT indices of window {w} differ from the "
                    "per-window lookup"
                )
            off += arr.size
            level.append(dict_blob(arr, table, idx))
        host_sizes = [t.size for t in tables]
        if dict_sizes != host_sizes:
            raise KernelError(
                f"fused DICT sizes {dict_sizes} differ from the per-window "
                f"dictionaries' {host_sizes}"
            )
        blobs.append(level)
    return list(map(rle_dict_join, *blobs))


def encode_tables_fused(device: Device | None, tables: list) -> list[bytes]:
    """Encode a megabatch of result tables with segmented device codecs.

    Returns one container blob per table, byte-identical to per-window
    :func:`encode_table` output.  With a device, the six RLE-DICT quality
    columns charge their codec kernels once per megabatch instead of
    once per window, and their payloads come from that chain's host
    parity results.
    """
    encoded: list[dict[str, bytes]] = [{} for _ in tables]
    live = [i for i, t in enumerate(tables) if t.n_sites]
    if device is not None and live:
        for name in RLE_DICT_COLUMNS:
            payloads = _fused_rle_dict_column(
                device, [column_values(tables[i], name) for i in live]
            )
            for i, payload in zip(live, payloads):
                encoded[i][name] = payload
    return [encode_table(t, rle_dict=enc) for t, enc in zip(tables, encoded)]


__all__ = ["encode_tables_fused"]
