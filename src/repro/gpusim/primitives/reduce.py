"""Tree (sum) reduction on the simulated GPU."""

from __future__ import annotations

import numpy as np

from ...errors import KernelError
from ..device import Device
from ..memory import DeviceArray
from .sweep import charge, counts_only


def _reduce_pass_kernel(ctx, src: DeviceArray, dst: DeviceArray, n: int):
    """One tree-reduction pass: thread t sums elements 2t and 2t+1."""
    left = 2 * ctx.tid
    right = left + 1
    a = ctx.gload(src, left, active=left < n)
    has_right = right < n
    b = ctx.gload(src, np.minimum(right, n - 1), active=has_right)
    combined = np.where(has_right, a + b, a)
    ctx.instr(2)
    # Every lane owns one output slot (lanes without a right element pass
    # their left value through), hence the explicit full-warp mask.
    ctx.gstore(dst, ctx.tid, combined, active=None)


def device_reduce(device: Device, arr: DeviceArray):
    """Sum a device array to a scalar with log2(n) kernel passes.

    Returns the sum as a NumPy scalar of the array's dtype.  Off
    the sanitizer and the op observer each pass is counted, not run
    (:mod:`.sweep`): NumPy adds ``src[2t]`` and ``src[2t+1]`` on
    slices and copies a trailing odd element through.
    """
    arr.require_live()
    n = arr.size
    if n == 0:
        raise KernelError("cannot reduce an empty array")
    counted = counts_only(device)
    src = arr
    scratch = None
    while n > 1:
        m = (n + 1) // 2
        dst = device.alloc(m, arr.dtype, name=f"{arr.name}.reduce")
        if counted:
            charge(device, "reduce_pass", m, 2, ("gload", src, slice(0, n, 2)),
                   ("gload", src, slice(1, n, 2)), ("gstore", dst, 0))
            s, d = src.flat_view(), dst.flat_view()
            half = n // 2
            np.add(s[0 : 2 * half : 2], s[1 : 2 * half : 2], out=d[:half])
            if n % 2:
                d[half] = s[n - 1]
        else:
            device.launch(_reduce_pass_kernel, m, src, dst, n,
                          name="reduce_pass")
        if scratch is not None:
            device.free(scratch)
        scratch = dst
        src, n = dst, m
    out = src.data.reshape(-1)[0].copy()
    if scratch is not None:
        device.free(scratch)
    return out

