"""Work-efficient exclusive prefix scan (Blelloch) on the simulated GPU."""

from __future__ import annotations

import numpy as np

from ..device import Device
from ..memory import DeviceArray
from .sweep import LevelSweep


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


def _upsweep_level(work: DeviceArray, stride: int) -> None:
    """:func:`_upsweep_kernel` on NumPy slices: ``w[2s-1::2s] +=
    w[s-1::2s]``, added left + right as the kernel adds."""
    w = work.flat_view()
    right = w[2 * stride - 1 :: 2 * stride]
    np.add(w[stride - 1 :: 2 * stride], right, out=right)
    work._kernel_reads += 2
    work._writes += 1


def _downsweep_level(work: DeviceArray, stride: int, left: np.ndarray) -> None:
    """:func:`_downsweep_kernel` on NumPy slices; ``left`` is scratch of at
    least ``m / (2 * stride)`` elements."""
    w = work.flat_view()
    lo = w[stride - 1 :: 2 * stride]
    hi = w[2 * stride - 1 :: 2 * stride]
    left = left[: lo.size]
    np.copyto(left, lo)
    lo[...] = hi
    np.add(left, hi, out=hi)
    work._kernel_reads += 2
    work._writes += 2


def _scan_whole(work: DeviceArray, m: int) -> None:
    """Every level of an integer scan at once: the exclusive ``cumsum``
    (integer sums wrap, so any order of the tree's additions gives these
    values), with the levels' read/write tallies and the root reset's
    host access."""
    w = work.data
    w[1:] = np.cumsum(w[:-1], dtype=w.dtype)
    w[0] = 0
    levels = m.bit_length() - 1
    work._kernel_reads += 4 * levels
    work._writes += 3 * levels


def device_exclusive_scan(device: Device, arr: DeviceArray) -> DeviceArray:
    """Exclusive prefix sum of a device array.

    Returns a new device array ``out`` with
    ``out[i] = sum(arr[:i])``; the input is left untouched.  The
    implementation pads to the next power of two and runs the classic
    up-sweep / down-sweep passes, each a coalesced strided kernel.  Once a
    (spec, padded size, dtype) has been launched, later scans compute the
    levels on NumPy slices and replay its counters (:mod:`.sweep`); an
    integer scan computes all levels as one ``cumsum``.
    """
    arr.require_live()
    n = arr.size
    if n == 0:
        return device.alloc(0, arr.dtype, name=f"{arr.name}.scan")
    m = 1 << (n - 1).bit_length()
    sweep = LevelSweep(device, ("scan", m, arr.dtype, "sum"))
    work = device.alloc(m, arr.dtype, name=f"{arr.name}.scanwork")
    work.data[:n] = arr.data.reshape(-1)
    if sweep.fast and arr.dtype.kind in "iu":
        sweep.whole(lambda: _scan_whole(work, m))
    else:
        stride = 1
        while stride < m:
            sweep.level(
                "scan_upsweep", lambda: _upsweep_level(work, stride),
                _upsweep_kernel, m // (2 * stride), work, stride, m,
            )
            stride *= 2
        work.data[m - 1] = 0
        left = np.empty(m // 2, dtype=arr.dtype) if sweep.fast else None
        stride = m // 2
        while stride >= 1:
            sweep.level(
                "scan_downsweep", lambda: _downsweep_level(work, stride, left),
                _downsweep_kernel, m // (2 * stride), work, stride, m,
            )
            stride //= 2
    sweep.close()
    out = device.alloc(n, arr.dtype, name=f"{arr.name}.scan")
    out.data[:] = work.data[:n]
    device.free(work)
    return out
