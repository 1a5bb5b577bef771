"""LSD radix sort on the simulated GPU.

This is the Thrust-style large-array sort the paper compares against in
Figure 7(a): excellent for one big array, but hopeless when billions of tiny
per-site arrays must be sorted one after another
(:func:`sequential_radix_sort_batches` reproduces that underutilization).
"""

from __future__ import annotations

import numpy as np

from ...errors import KernelError
from ..device import Device
from ..memory import DeviceArray
from .sweep import charge, counts_only

#: Digit width in bits for the LSD passes.
RADIX_BITS = 8
RADIX = 1 << RADIX_BITS


def _histogram_kernel(ctx, keys, hist, shift: int, n: int):
    """Thread t extracts its digit and atomically bumps the histogram."""
    active = ctx.tid < n
    k = ctx.gload(keys, ctx.tid, active=active)
    digit = (k.astype(np.int64) >> shift) & (RADIX - 1)
    ctx.instr(2, active=active)
    ctx.gatomic_add(hist, digit, 1, active=active)


def _scatter_kernel(ctx, keys, out, perm, n: int):
    """Thread t writes its key to its stable-partitioned position."""
    active = ctx.tid < n
    k = ctx.gload(keys, ctx.tid, active=active)
    pos = ctx.gload(perm, ctx.tid, active=active)
    ctx.instr(1, active=active)
    ctx.gstore(out, pos, k, active=active)


def device_radix_sort(
    device: Device, keys: DeviceArray, nbits: int | None = None
) -> DeviceArray:
    """Sort a device array of unsigned integer keys ascending.

    Runs ``ceil(bits / 8)`` LSD passes.  Each pass issues a histogram
    kernel, a 256-bin scan (negligible, folded into the histogram launch),
    and a scatter kernel whose writes are, as on real hardware, almost
    fully uncoalesced — which is precisely why radix sort needs large
    arrays to pay off.

    ``nbits`` caps the key width actually sorted: callers whose keys
    occupy only the low bits of the word (e.g. the megabatch codec's
    composite segment keys) skip the all-zero high-digit passes, exactly
    as a real radix sort configured with ``begin_bit``/``end_bit`` would.

    Off the sanitizer and the op observer the passes are counted, not
    launched (:mod:`.sweep`).
    """
    if keys.dtype.kind != "u":
        raise KernelError("device_radix_sort requires an unsigned dtype")
    n = keys.size
    width = keys.itemsize * 8
    if nbits is None:
        nbits = width
    if not 1 <= nbits <= width:
        raise KernelError(f"nbits must be in [1, {width}], got {nbits}")
    src = device.alloc(n, keys.dtype, name=f"{keys.name}.rsortA")
    src.data[:] = keys.data.reshape(-1)
    dst = device.alloc(n, keys.dtype, name=f"{keys.name}.rsortB")
    counted = counts_only(device)
    for shift in range(0, nbits, RADIX_BITS):
        digits = (src.data.astype(np.int64) >> shift) & (RADIX - 1)
        if n:
            # The 256-bin scan that consumes the histogram is folded into
            # this launch (see docstring); the host computes the actual
            # permutation below.
            hist = device.alloc(
                RADIX, np.int64, name="rsort.hist", value_free=True
            )
            if counted:
                charge(device, "radix_histogram", n, 2, ("gload", src, 0),
                       ("gatomic_add", hist, digits))
            else:
                device.launch(
                    _histogram_kernel, n, src, hist, shift, n,
                    name="radix_histogram",
                )
            # Stable partition permutation for this digit (host computes the
            # permutation; device traffic is what we account).
            perm_host = np.empty(n, dtype=np.int64)
            order = np.argsort(digits, kind="stable")
            perm_host[order] = np.arange(n)
            perm = device.to_device(perm_host, name="rsort.perm")
            if counted:
                charge(device, "radix_scatter", n, 1, ("gload", src, 0),
                       ("gload", perm, 0), ("gstore", dst, perm_host))
                dst.flat_view()[perm_host] = src.flat_view()
            else:
                device.launch(
                    _scatter_kernel, n, src, dst, perm, n,
                    name="radix_scatter",
                )
            device.free(hist)
            device.free(perm)
        src, dst = dst, src
    out = device.alloc(n, keys.dtype, name=f"{keys.name}.sorted")
    out.data[:] = src.data
    device.free(src)
    device.free(dst)
    return out


def sequential_radix_sort_batches(
    device: Device, batch: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Sort many small arrays by calling the big-array sort on each in turn.

    ``batch`` is ``(n_arrays, max_len)``; ``lengths[i]`` gives the valid
    prefix of row ``i``.  This is the Figure 7(a) strawman: every tiny sort
    occupies the whole device, so throughput collapses.
    """
    batch = np.asarray(batch)
    out = batch.copy()
    for i in range(batch.shape[0]):
        m = int(lengths[i])
        if m <= 1:
            continue
        keys = device.to_device(
            np.ascontiguousarray(batch[i, :m]), name="seqsort.row"
        )
        sorted_row = device_radix_sort(device, keys)
        out[i, :m] = sorted_row.data
        device.free(keys)
        device.free(sorted_row)
    return out
