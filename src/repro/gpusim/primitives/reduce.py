"""Block (sum) reduction on the simulated GPU: Harris's sequential-
addressing tree in shared memory, one tile a block."""

from __future__ import annotations

import numpy as np

from ...errors import KernelError
from ..device import Device
from ..memory import DeviceArray
from .sweep import (BLOCK, LEVELS, charge, counts_only, tiles,
                    tree_levels, tree_warps)


def _reduce_tiles(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row's sum, the rows holding ``n`` live elements end to end: at
    half-width ``s = width/2, ..., 1``, ``x[t] = x[t] + x[t + s]`` where
    ``x[t + s]`` is live (padding adds nothing).  Integer sums wrap, so
    any order gives the tree's values: an integer row is one ``sum``."""
    if rows.dtype.kind in "iu":
        return rows.sum(axis=1, dtype=rows.dtype)
    count, width = rows.shape
    live = np.minimum(n - width * np.arange(count), width)[:, None]
    lane = np.arange(width)
    s = width // 2
    while s:
        a, b = rows[:, :s], rows[:, s : 2 * s]
        rows[:, :s] = np.where(lane[:s] + s < live, a + b, a)
        live = np.minimum(live, s)
        s //= 2
    return rows[:, 0].copy()


def _block_reduce_kernel(ctx, src: DeviceArray, dst: DeviceArray, n: int):
    """Block ``b`` sums tile ``b`` (thread ``t``: element ``t``) in shared
    memory; lane 0 writes the partial to ``dst[b]``."""
    x = ctx.gload(src, ctx.tid, active=ctx.tid < n)
    ctx.note_shared(stores=1)
    ctx.syncthreads()
    tree_levels(ctx, LEVELS, loads=2, stores=1, instr=2)
    lead = ctx.tid % BLOCK == 0
    ctx.note_shared(loads=1, active=lead)
    # Shared-memory stand-in: NumPy walks the tree tree_levels charged.
    partial = np.repeat(_reduce_tiles(x.reshape(-1, BLOCK), n), BLOCK)
    ctx.gstore(dst, ctx.tid // BLOCK, partial, active=lead)


def device_reduce(device: Device, arr: DeviceArray):
    """The sum of a device array, a NumPy scalar of its dtype, in 1 launch
    for ``n <= BLOCK``, 2 to ``BLOCK**2`` and 3 past it (the partials are
    reduced the same way until one is left).

    One addition order on every path: each tile, then the partials, in
    :func:`_reduce_tiles`' order (two NaNs meet as ``x[t] + x[t + s]``).
    Off the sanitizer and the op observer each launch is one ``charge``
    (:mod:`.sweep`), and NumPy computes its values."""
    arr.require_live()
    n = arr.size
    if n == 0:
        raise KernelError("cannot reduce an empty array")
    counted = counts_only(device)
    src = arr
    while True:
        blocks = -(-n // BLOCK)
        dst = device.alloc(blocks, arr.dtype, name=f"{arr.name}.reduce")
        if counted:
            warps = blocks * BLOCK // device.spec.warp_size
            charge(device, "reduce_block", n, 0, ("gload", src, 0),
                   ("gstore", dst, range(blocks)),
                   shared=(tree_warps(device, blocks, LEVELS, 2, 1, 2),
                           (0, blocks, warps)))  # tile in, lane 0's sum
            dst.flat_view()[:] = _reduce_tiles(tiles(src), n)
        else:
            device.launch(_block_reduce_kernel, blocks * BLOCK, src, dst, n,
                          name="reduce_block", block_size=BLOCK,
                          shared_bytes=BLOCK * arr.itemsize)
        if src is not arr:
            device.free(src)
        src, n = dst, blocks
        if blocks == 1:
            break
    out = src.data.reshape(-1)[0].copy()
    device.free(src)
    return out
