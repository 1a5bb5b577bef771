"""Unique-compaction of a sorted device array (dictionary construction)."""

from __future__ import annotations

import numpy as np

from ...errors import KernelError
from ..device import Device
from ..memory import DeviceArray
from .scan import device_exclusive_scan
from .sweep import charge, counts_only


def _flag_kernel(ctx, keys, flags, n: int):
    """Thread t flags whether keys[t] starts a new run (t==0 or != left)."""
    active = ctx.tid < n
    k = ctx.gload(keys, ctx.tid, active=active)
    left = ctx.gload(keys, np.maximum(ctx.tid - 1, 0), active=active)
    is_new = (ctx.tid == 0) | (k != left)
    ctx.instr(2, active=active)
    ctx.gstore(flags, ctx.tid, is_new.astype(flags.dtype), active=active)


def _compact_kernel(ctx, keys, flags, positions, out, n: int):
    """Thread t scatters its key to out[positions[t]] when flagged."""
    active = ctx.tid < n
    f = ctx.gload(flags, ctx.tid, active=active)
    emit = active & (f != 0)
    k = ctx.gload(keys, ctx.tid, active=emit)
    pos = ctx.gload(positions, ctx.tid, active=emit)
    ctx.instr(1, active=active)
    ctx.gstore(out, pos, k, active=emit)


def device_unique(device: Device, sorted_keys: DeviceArray) -> DeviceArray:
    """Return the distinct values of an ascending-sorted device array.

    Classic flag -> scan -> scatter compaction; raises if the input is not
    sorted (the precondition real Thrust ``unique`` silently assumes).
    Off the sanitizer and the op observer the flag and compaction
    launches are counted, not run (:mod:`.sweep`).
    """
    n = sorted_keys.size
    if n == 0:
        return device.alloc(0, sorted_keys.dtype, name="unique")
    flat = sorted_keys.data.reshape(-1)
    if np.any(flat[1:] < flat[:-1]):
        raise KernelError("device_unique requires sorted input")
    counted = counts_only(device)
    flags = device.alloc(n, np.int64, name="unique.flags")
    if counted:
        charge(device, "unique_flag", n, 2, ("gload", sorted_keys, 0),
               ("gload", sorted_keys, 1), ("gstore", flags, 0))
        flags.flat_view()[0] = 1
        flags.flat_view()[1:] = flat[1:] != flat[:-1]
    else:
        device.launch(
            _flag_kernel, n, sorted_keys, flags, n, name="unique_flag"
        )
    positions = device_exclusive_scan(device, flags)
    n_unique = int(positions.data[-1] + flags.data[-1])
    # init=False: compaction must populate every output slot itself.
    out = device.alloc(n_unique, sorted_keys.dtype, name="unique", init=False)
    if counted:
        # The flagged lanes load their key and position and store there.
        emit = flags.flat_view() != 0
        lanes = np.where(emit, np.arange(n), -1)
        dest = np.where(emit, positions.flat_view(), -1)
        charge(device, "unique_compact", n, 1, ("gload", flags, 0),
               ("gload", sorted_keys, lanes), ("gload", positions, lanes),
               ("gstore", out, dest))
        out.flat_view()[dest[emit]] = flat[emit]
    else:
        device.launch(
            _compact_kernel, n, sorted_keys, flags, positions, out, n,
            name="unique_compact",
        )
    device.free(flags)
    device.free(positions)
    return out
