"""Work-efficient exclusive prefix scan (Blelloch) on the simulated GPU."""

from __future__ import annotations

import numpy as np

from ..device import Device
from ..memory import DeviceArray
from .sweep import charge, counts_only


def _upsweep_kernel(ctx, arr: DeviceArray, stride: int, n: int):
    """Up-sweep phase: a[i + 2s - 1] += a[i + s - 1] for strided i."""
    i = ctx.tid * (2 * stride)
    active = (i + 2 * stride - 1) < n
    left = ctx.gload(arr, i + stride - 1, active=active)
    right = ctx.gload(arr, i + 2 * stride - 1, active=active)
    ctx.instr(1, active=active)
    ctx.gstore(arr, i + 2 * stride - 1, left + right, active=active)


def _downsweep_kernel(ctx, arr: DeviceArray, stride: int, n: int):
    """Down-sweep phase: swap-and-add propagating partial sums down."""
    i = ctx.tid * (2 * stride)
    active = (i + 2 * stride - 1) < n
    left = ctx.gload(arr, i + stride - 1, active=active)
    right = ctx.gload(arr, i + 2 * stride - 1, active=active)
    ctx.instr(2, active=active)
    ctx.gstore(arr, i + stride - 1, right, active=active)
    ctx.gstore(arr, i + 2 * stride - 1, left + right, active=active)


def device_exclusive_scan(device: Device, arr: DeviceArray) -> DeviceArray:
    """Exclusive prefix sum of a device array.

    Returns a new device array ``out`` with
    ``out[i] = sum(arr[:i])``; the input is left untouched.  The
    implementation pads to the next power of two and runs the classic
    up-sweep / down-sweep passes, each a coalesced strided kernel.  Off
    the sanitizer and the op observer each level is counted, not run
    (:mod:`.sweep`): NumPy computes it on slices of the work array in the
    kernel's operand order, and an integer scan (whose sums wrap, so any
    order of the tree's additions gives the same values) computes every
    level as one exclusive ``cumsum``.
    """
    arr.require_live()
    n = arr.size
    if n == 0:
        return device.alloc(0, arr.dtype, name=f"{arr.name}.scan")
    m = 1 << (n - 1).bit_length()
    work = device.alloc(m, arr.dtype, name=f"{arr.name}.scanwork")
    work.data[:n] = arr.data.reshape(-1)
    counted = counts_only(device)
    cumulative = counted and arr.dtype.kind in "iu"
    strides = [1 << k for k in range(m.bit_length() - 1)]
    w = work.flat_view()
    for s in strides:
        if not counted:
            device.launch(_upsweep_kernel, m // (2 * s), work, s, m,
                          name="scan_upsweep")
            continue
        lo, hi = slice(s - 1, m, 2 * s), slice(2 * s - 1, m, 2 * s)
        charge(device, "scan_upsweep", m // (2 * s), 1, ("gload", work, lo),
               ("gload", work, hi), ("gstore", work, hi))
        if not cumulative:
            np.add(w[lo], w[hi], out=w[hi])
    root = work.data  # the root reset, a host access on every path
    if cumulative:
        root[1:] = np.cumsum(root[:-1], dtype=root.dtype)
        root[0] = 0
    else:
        root[m - 1] = 0
    for s in reversed(strides):
        if not counted:
            device.launch(_downsweep_kernel, m // (2 * s), work, s, m,
                          name="scan_downsweep")
            continue
        lo, hi = slice(s - 1, m, 2 * s), slice(2 * s - 1, m, 2 * s)
        charge(device, "scan_downsweep", m // (2 * s), 2, ("gload", work, lo),
               ("gload", work, hi), ("gstore", work, lo), ("gstore", work, hi))
        if not cumulative:
            left = w[lo].copy()
            w[lo] = w[hi]
            np.add(left, w[hi], out=w[hi])
    out = device.alloc(n, arr.dtype, name=f"{arr.name}.scan")
    out.data[:] = work.data[:n]
    device.free(work)
    return out
