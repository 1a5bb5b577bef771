"""Block (sum) reduction on the simulated GPU: Harris's sequential-
addressing tree in shared memory, one tile a block."""

from __future__ import annotations

import numpy as np

from ...errors import KernelError
from ..device import Device
from ..memory import DeviceArray
from .sweep import (BLOCK, charge, counts_only, require_integer,
                    tree_levels, tree_warps)


def _block_reduce_kernel(ctx, src: DeviceArray, dst: DeviceArray, n: int):
    """Block ``b`` sums tile ``b`` (thread ``t``: element ``t``) in shared
    memory; lane 0 writes the partial to ``dst[b]``."""
    x = ctx.gload(src, ctx.tid, active=ctx.tid < n)
    ctx.note_shared(stores=1)
    ctx.syncthreads()
    tree_levels(ctx, loads=2, stores=1, instr=2)
    lead = ctx.tid % BLOCK == 0
    ctx.note_shared(loads=1, active=lead)
    # Shared-memory stand-in for the tree: each row's sum.
    partial = x.reshape(-1, BLOCK).sum(axis=1, dtype=x.dtype)
    ctx.gstore(dst, ctx.tid // BLOCK, np.repeat(partial, BLOCK), active=lead)


def device_reduce(device: Device, arr: DeviceArray):
    """The sum of an integer device array, a NumPy scalar of its dtype,
    in 1 launch for ``n <= BLOCK``, 2 to ``BLOCK**2`` and 3 past it (the
    partials are reduced the same way until one is left).

    Integer sums wrap, so any grouping gives the tree's values: off the
    sanitizer and the op observer each launch is one ``charge``
    (:mod:`.sweep`) and NumPy computes its partials as one
    ``np.add.reduceat``."""
    arr.require_live()
    require_integer(arr)
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
                   shared=(tree_warps(device, blocks, 2, 1, 2),
                           (0, blocks, warps)))  # tile in, lane 0's sum
            dst.flat_view()[:] = np.add.reduceat(
                src.flat_view(), range(0, n, BLOCK), dtype=arr.dtype
            )
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
