"""Tree reduction on the simulated GPU."""

from __future__ import annotations

import numpy as np

from ...errors import KernelError
from ..device import Device
from ..memory import DeviceArray
from .sweep import charge, counts_only

_OPS = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
}


def _reduce_pass_kernel(ctx, src: DeviceArray, dst: DeviceArray, n: int, op):
    """One tree-reduction pass: thread t combines elements 2t and 2t+1."""
    left = 2 * ctx.tid
    right = left + 1
    a = ctx.gload(src, left, active=left < n)
    has_right = right < n
    b = ctx.gload(src, np.minimum(right, n - 1), active=has_right)
    combined = np.where(has_right, op(a, b), a)
    ctx.instr(2)
    # Every lane owns one output slot (lanes without a right element pass
    # their left value through), hence the explicit full-warp mask.
    ctx.gstore(dst, ctx.tid, combined, active=None)


def device_reduce(device: Device, arr: DeviceArray, op: str = "sum"):
    """Reduce a device array to a scalar with log2(n) kernel passes.

    Returns the reduced value as a NumPy scalar of the array's dtype.  Off
    the sanitizer and the op observer each pass is counted, not run
    (:mod:`.sweep`): NumPy combines ``src[2t]`` and ``src[2t+1]`` on
    slices and copies a trailing odd element through.
    """
    if op not in _OPS:
        raise KernelError(f"unsupported reduction op {op!r}")
    ufunc = _OPS[op]
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
            ufunc(s[0 : 2 * half : 2], s[1 : 2 * half : 2], out=d[:half])
            if n % 2:
                d[half] = s[n - 1]
        else:
            device.launch(_reduce_pass_kernel, m, src, dst, n, ufunc,
                          name="reduce_pass")
        if scratch is not None:
            device.free(scratch)
        scratch = dst
        src, n = dst, m
    out = src.data.reshape(-1)[0].copy()
    if scratch is not None:
        device.free(scratch)
    return out


def _segment_sum_kernel(ctx, values, offsets, out, n_segments):
    """Thread t sums values[offsets[t]:offsets[t+1]] sequentially.

    Segments here are tiny (per-site runs), so a per-thread sequential loop
    mirrors what the real kernel does; the lockstep loop runs to the longest
    segment in the launch with shorter lanes masked off.
    """
    starts = ctx.gload(offsets, ctx.tid, active=ctx.tid < n_segments)
    ends = ctx.gload(offsets, ctx.tid + 1, active=ctx.tid < n_segments)
    acc = np.zeros(ctx.n_threads, dtype=np.float64)
    lengths = ends - starts
    max_len = int(lengths.max(initial=0))
    for j in range(max_len):
        active = (j < lengths) & (ctx.tid < n_segments)
        v = ctx.gload(values, starts + j, active=active)
        acc += np.where(active, v.astype(np.float64), 0.0)
        ctx.instr(1, active=active)
    ctx.gstore(out, ctx.tid, acc.astype(out.dtype), active=ctx.tid < n_segments)


def segmented_reduce(
    device: Device, values: DeviceArray, offsets: DeviceArray
) -> DeviceArray:
    """Sum each segment ``values[offsets[i]:offsets[i+1]]``.

    ``offsets`` has ``n_segments + 1`` entries; returns a device array of
    ``n_segments`` sums with the same dtype as ``values``.
    """
    n_segments = offsets.size - 1
    if n_segments < 0:
        raise KernelError("offsets must have at least one entry")
    out = device.alloc(max(n_segments, 1), values.dtype, name="segsum")
    if n_segments:
        device.launch(
            _segment_sum_kernel,
            n_segments,
            values,
            offsets,
            out,
            n_segments,
            name="segmented_reduce",
        )
    return out
