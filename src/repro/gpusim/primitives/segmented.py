"""Segmented device primitives for ragged megabatches.

The fused launch path concatenates many windows' columns into one flat
array and needs the per-window codec results from single launches:

* :func:`segmented_flag_runs` — RLE run-boundary flags where a new
  segment (window) always starts a new run, so the flag sum equals the
  sum of per-window run counts.
* :func:`segmented_dict_indices` — per-segment dictionary construction
  and lookup in one sort/unique/search chain, by embedding the segment
  id in the high bits of a composite key.  Segment boundaries then fall
  out of the ordinary ``unique`` compaction (adjacent keys from
  different segments always differ), and one parallel binary search
  over the concatenated dictionary serves every window at once.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..device import Device
from ..memory import DeviceArray
from .search import device_binary_search
from .sort import device_radix_sort
from .sweep import charge, counts_only
from .unique import device_unique


def _bits_for(max_value: int) -> int:
    """Bits needed to store values in ``[0, max_value]`` (at least 1)."""
    return max(1, int(max_value).bit_length())


def _seg_flag_kernel(ctx, values, seg_first, flags, n: int):
    """Thread t flags a new run at t: segment start or value change."""
    active = ctx.tid < n
    v = ctx.gload(values, ctx.tid, active=active)
    left = ctx.gload(values, np.maximum(ctx.tid - 1, 0), active=active)
    first = ctx.gload(seg_first, ctx.tid, active=active)
    is_new = (first != 0) | (v != left)
    ctx.instr(3, active=active)
    ctx.gstore(flags, ctx.tid, is_new.astype(flags.dtype), active=active)


def segmented_flag_runs(
    device: Device, values: DeviceArray, seg_first: DeviceArray
) -> DeviceArray:
    """Run-boundary flags over a flat array of concatenated segments.

    ``seg_first[i]`` must be nonzero exactly where segment ``i`` begins
    (including position 0).  The returned int64 flag array sums to the
    total run count across all segments — identical to running the
    per-window ``rle_flag`` kernel on each segment separately, but in a
    single launch.  Off the sanitizer and the op observer the launch is
    counted, not run (:mod:`.sweep`).
    """
    n = values.size
    flags = device.alloc(n, np.int64, name="segrle.flags")
    if counts_only(device):
        charge(device, "seg_rle_flag", n, 3, ("gload", values, 0),
               ("gload", values, 1), ("gload", seg_first, 0),
               ("gstore", flags, 0))
        v, f = values.flat_view(), flags.flat_view()
        f[:] = seg_first.flat_view()[:n] != 0
        f[1:] |= v[1:] != v[:-1]
    else:
        device.launch(
            _seg_flag_kernel, n, values, seg_first, flags, n,
            name="seg_rle_flag",
        )
    return flags


def compose_segment_keys(
    keys: np.ndarray, seg_ids: np.ndarray, key_bits: int
) -> np.ndarray:
    """Pack ``(segment, key)`` pairs into sortable uint64 composites.

    Sorting composites ascending sorts primarily by segment and
    secondarily by key, so a single radix sort yields every segment's
    sorted key range back to back.
    """
    return (seg_ids.astype(np.uint64) << np.uint64(key_bits)) | keys.astype(
        np.uint64
    )


def segmented_dict_indices(
    device: Device, segments: Sequence[np.ndarray]
) -> Tuple[np.ndarray, List[int]]:
    """Per-segment DICT indices for many key arrays in one launch chain.

    ``segments`` holds one uint32 rank-key array per window.  Returns the
    flat array of *segment-local* dictionary indices (concatenated in
    segment order) plus each segment's dictionary size.  Equivalent to
    running sort/unique/binary-search per segment, but the device sees
    one composite-key sort, one unique compaction and one search.
    """
    sizes = [int(np.asarray(s).size) for s in segments]
    total = sum(sizes)
    if total == 0:
        return np.empty(0, dtype=np.int64), [0] * len(segments)
    keys = np.concatenate([np.asarray(s, dtype=np.uint32) for s in segments])
    seg_ids = np.repeat(np.arange(len(segments), dtype=np.int64), sizes)
    key_bits = _bits_for(int(keys.max()))
    seg_bits = _bits_for(max(len(segments) - 1, 0))
    composite = compose_segment_keys(keys, seg_ids, key_bits)

    comp_dev = device.to_device(composite, "segdict.keys")
    sorted_dev = device_radix_sort(device, comp_dev, nbits=key_bits + seg_bits)
    uniq = device_unique(device, sorted_dev)
    # The concatenated dictionary goes to constant memory when it fits,
    # same policy as the per-window DICT encoder (Section V-B).
    table64 = uniq.data.astype(np.int64)
    hay = (
        device.to_constant(table64, "segdict.table")
        if table64.nbytes <= device.spec.constant_mem_bytes // 2
        else device.to_device(table64, "segdict.table")
    )
    needles = device.to_device(composite.astype(np.int64), "segdict.needles")
    idx_dev = device_binary_search(device, needles, hay)
    global_idx = idx_dev.data.astype(np.int64).copy()
    for a in (comp_dev, sorted_dev, uniq, hay, needles, idx_dev):
        device.free(a)

    # Segment-local indices: subtract each segment's dictionary offset.
    # The sizes come from the device dictionary itself (its entries'
    # segment bits), so a short or long ``uniq`` shows in them.
    sizes_dev = np.bincount(table64 >> key_bits, minlength=len(segments))
    offsets = np.zeros(len(segments), dtype=np.int64)
    np.cumsum(sizes_dev[: len(segments) - 1], out=offsets[1:])
    return global_idx - offsets[seg_ids], sizes_dev.tolist()


__all__ = [
    "compose_segment_keys",
    "segmented_dict_indices",
    "segmented_flag_runs",
]
