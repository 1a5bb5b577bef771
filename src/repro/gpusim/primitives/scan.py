"""Exclusive prefix scan on the simulated GPU, one tile a block, as CUDPP
ran it on Fermi (GPU Gems 3 ch. 39; Sengupta et al., GH 2007)."""

from __future__ import annotations

import numpy as np

from ..device import Device
from ..memory import DeviceArray
from .sweep import (BLOCK, LEVELS, charge, counts_only, tiles,
                    tree_levels, tree_warps)


def _scan_tiles(rows: np.ndarray) -> np.ndarray:
    """Exclusive scan of each row in place; returns the rows' totals.  Up
    the tree (stride ``s = 1, 2, ...``) ``x[2s-1::2s] = x[s-1::2s] +
    x[2s-1::2s]``; the total is taken and the root zeroed; down it ``lo,
    hi = hi, lo + hi`` on the same slices.  Integer sums wrap, so any
    order gives the tree's values: an integer row is one ``cumsum``."""
    if rows.dtype.kind in "iu":
        incl = np.cumsum(rows, axis=1, dtype=rows.dtype)
        rows[:, 1:] = incl[:, :-1]
        rows[:, 0] = 0
        return incl[:, -1]
    strides = [1 << k for k in range(rows.shape[1].bit_length() - 1)]
    for s in strides:
        hi = rows[:, 2 * s - 1 :: 2 * s]
        np.add(rows[:, s - 1 :: 2 * s], hi, out=hi)
    totals = rows[:, -1].copy()
    rows[:, -1] = 0
    for s in reversed(strides):
        lo, hi = rows[:, s - 1 :: 2 * s], rows[:, 2 * s - 1 :: 2 * s]
        left = lo.copy()
        lo[...] = hi
        np.add(left, hi, out=hi)
    return totals


def _block_scan_kernel(ctx, src: DeviceArray, dst: DeviceArray, sums,
                       n: int):
    """Block ``b`` scans tile ``b`` (thread ``t``: element ``t``) in shared
    memory; lane 0 writes its total to ``sums[b]`` (``None``: one block)."""
    live = ctx.tid < n
    x = ctx.gload(src, ctx.tid, active=live)
    ctx.note_shared(stores=1)
    ctx.syncthreads()
    # Shared-memory stand-in: NumPy walks the tree tree_levels charges.
    totals = _scan_tiles(x.reshape(-1, BLOCK))
    tree_levels(ctx, LEVELS, loads=2, stores=1, instr=1)
    lead = ctx.tid % BLOCK == 0
    ctx.note_shared(loads=1, stores=1, active=lead)  # take total, clear root
    if sums is not None:
        ctx.gstore(sums, ctx.tid // BLOCK, np.repeat(totals, BLOCK),
                   active=lead)
    ctx.syncthreads()
    tree_levels(ctx, reversed(LEVELS), loads=2, stores=2, instr=2)
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
    """A new device array ``out[i] = sum(arr[:i])``, in 1 launch for
    ``n <= BLOCK``, 3 to ``BLOCK**2`` and 5 past it: the tile scans, the
    same scan of the tile totals, and a uniform add.

    One addition order on every path: tile ``b`` (zero-padded) scanned
    in :func:`_scan_tiles`' order, then its element ``i`` is ``inc[b] +
    out[i]``, ``inc`` the scan of the totals.  Off the sanitizer and the
    op observer each launch is one ``charge`` (:mod:`.sweep`), and NumPy
    computes its values: an integer scan, whose sums wrap, as one
    exclusive ``cumsum``."""
    arr.require_live()
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
               shared=(tree_warps(device, blocks, LEVELS, 2, 1, 1),
                       tree_warps(device, blocks, LEVELS, 2, 2, 2),
                       (0, tile, tile)))
        values = arr.flat_view()
        if values.dtype.kind in "iu":  # sums wrap: one cumsum is the tree's
            rows = None
            totals = np.add.reduceat(values, range(0, n, BLOCK),
                                     dtype=values.dtype)
            np.cumsum(values[:-1], dtype=values.dtype,
                      out=out.flat_view()[1:])
        else:
            rows = tiles(arr)
            totals = _scan_tiles(rows)
        if sums is not None:
            sums.flat_view()[:] = totals
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
            if rows is not None:
                # The kernel's operand shapes: NumPy's NaN payloads follow.
                rest = rows[1:].reshape(-1)
                rest[:] = np.repeat(inc.flat_view()[1:], BLOCK) + rest
        else:
            device.launch(_uniform_add_kernel, threads, out, inc, n,
                          name="scan_add", block_size=BLOCK,
                          shared_bytes=arr.itemsize)
        device.free(sums)
        device.free(inc)
    if counted and rows is not None:
        out.flat_view()[:] = rows.reshape(-1)[:n]
    return out
