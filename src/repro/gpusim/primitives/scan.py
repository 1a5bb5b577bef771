"""Exclusive prefix scan on the simulated GPU, one tile a block, as CUDPP
ran it on Fermi (GPU Gems 3 ch. 39; Sengupta et al., GH 2007)."""

from __future__ import annotations

import numpy as np

from ..device import Device
from ..memory import DeviceArray
from .sweep import (BLOCK, charge, counts_only, require_integer,
                    tree_levels, tree_warps)


def _block_scan_kernel(ctx, src: DeviceArray, dst: DeviceArray, sums,
                       n: int):
    """Block ``b`` scans tile ``b`` (thread ``t``: element ``t``) in shared
    memory; lane 0 writes its total to ``sums[b]`` (``None``: one block)."""
    live = ctx.tid < n
    x = ctx.gload(src, ctx.tid, active=live)
    ctx.note_shared(stores=1)
    ctx.syncthreads()
    # Shared-memory stand-in for the tree: each row's exclusive cumsum.
    rows = x.reshape(-1, BLOCK)
    incl = np.cumsum(rows, axis=1, dtype=rows.dtype)
    rows[:, 1:] = incl[:, :-1]
    rows[:, 0] = 0
    tree_levels(ctx, loads=2, stores=1, instr=1)
    lead = ctx.tid % BLOCK == 0
    ctx.note_shared(loads=1, stores=1, active=lead)  # take total, clear root
    if sums is not None:
        ctx.gstore(sums, ctx.tid // BLOCK, np.repeat(incl[:, -1], BLOCK),
                   active=lead)
    ctx.syncthreads()
    tree_levels(ctx, loads=2, stores=2, instr=2)
    ctx.note_shared(loads=1)
    ctx.gstore(dst, ctx.tid, x, active=live)


def _uniform_add_kernel(ctx, arr: DeviceArray, inc: DeviceArray, n: int):
    """Block ``b`` adds ``inc[b + 1]``, staged in shared memory by lane 0,
    to tile ``b + 1``."""
    lead = ctx.tid % BLOCK == 0
    u = ctx.gload(inc, ctx.tid // BLOCK + 1, active=lead)
    ctx.note_shared(stores=1, active=lead)
    ctx.syncthreads()
    ctx.note_shared(loads=1)
    live = ctx.tid < n - BLOCK
    v = ctx.gload(arr, ctx.tid + BLOCK, active=live)
    ctx.instr(1, active=live)
    ctx.gstore(arr, ctx.tid + BLOCK, np.repeat(u[::BLOCK], BLOCK) + v,
               active=live)


def device_exclusive_scan(device: Device, arr: DeviceArray) -> DeviceArray:
    """A new device array ``out[i] = sum(arr[:i])`` of an integer array,
    in 1 launch for ``n <= BLOCK``, 3 to ``BLOCK**2`` and 5 past it: the
    tile scans, the same scan of the tile totals, and a uniform add.

    Integer sums wrap, so any grouping gives the tree's values: off the
    sanitizer and the op observer each launch is one ``charge``
    (:mod:`.sweep`) and NumPy computes the scan as one exclusive
    ``cumsum``."""
    arr.require_live()
    require_integer(arr)
    n = arr.size
    out = device.alloc(n, arr.dtype, name=f"{arr.name}.scan")
    if n == 0:
        return out
    blocks = -(-n // BLOCK)
    sums = None if blocks == 1 else device.alloc(
        blocks, arr.dtype, name=f"{arr.name}.scansums"
    )
    counted = counts_only(device)
    if counted:
        total = [] if sums is None else [("gstore", sums, range(blocks))]
        # The tile into and out of shared memory, and lane 0's total.
        tile = blocks * BLOCK // device.spec.warp_size + blocks
        charge(device, "scan_block", n, 0, ("gload", arr, 0), *total,
               ("gstore", out, 0),
               shared=(tree_warps(device, blocks, 2, 1, 1),
                       tree_warps(device, blocks, 2, 2, 2),
                       (0, tile, tile)))
        values = arr.flat_view()
        np.cumsum(values[:-1], dtype=values.dtype, out=out.flat_view()[1:])
        if sums is not None:
            sums.flat_view()[:] = np.add.reduceat(
                values, range(0, n, BLOCK), dtype=values.dtype
            )
    else:
        device.launch(_block_scan_kernel, blocks * BLOCK, arr, out, sums, n,
                      name="scan_block", block_size=BLOCK,
                      shared_bytes=BLOCK * arr.itemsize)
    if sums is not None:
        inc = device_exclusive_scan(device, sums)
        threads = (blocks - 1) * BLOCK
        if counted:
            charge(device, "scan_add", n - BLOCK, 1,
                   ("gload", inc, range(1, blocks)), ("gload", out, -BLOCK),
                   ("gstore", out, -BLOCK),
                   shared=((0, threads // device.spec.warp_size,
                            blocks - 1),))
        else:
            device.launch(_uniform_add_kernel, threads, out, inc, n,
                          name="scan_add", block_size=BLOCK,
                          shared_bytes=arr.itemsize)
        device.free(sums)
        device.free(inc)
    return out
