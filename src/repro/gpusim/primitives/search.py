"""Parallel binary search (dictionary lookup for DICT encoding)."""

from __future__ import annotations

import numpy as np

from ...errors import KernelError
from ..device import Device
from ..memory import DeviceArray
from .sweep import charge, counts_only


def _search_steps(m: int) -> int:
    """Lockstep iterations of a search over ``m`` entries (every lane runs
    all of them): enough for ``lo`` to reach the insertion point."""
    return max(1, int(np.ceil(np.log2(max(m, 2)))) + 1)  # gsnp-lint: disable=GSNP102 (host-side loop bound, not a score computation)


def _counted(device, haystack: DeviceArray) -> bool:
    """A sorted constant-memory dictionary is searched by counting (the
    lockstep search and ``np.searchsorted`` agree on sorted input only)."""
    if haystack.space != "constant" or not counts_only(device):
        return False
    h = haystack.flat_view()
    return bool((h[1:] >= h[:-1]).all())


def _binary_search_kernel(ctx, needles, haystack, out, n: int, m: int):
    """Thread t binary-searches haystack (sorted, size m) for needles[t].

    All lanes run the full ceil(log2(m)) iterations in lockstep, as the
    real kernel does; the dictionary may live in constant memory, in which
    case probes hit the constant cache instead of global memory.
    """
    active = ctx.tid < n
    x = ctx.gload(needles, ctx.tid, active=active)
    lo = np.zeros(ctx.n_threads, dtype=np.int64)
    hi = np.full(ctx.n_threads, m, dtype=np.int64)
    steps = _search_steps(m)
    probe = ctx.cload if haystack.space == "constant" else ctx.gload
    for _ in range(steps):
        mid = (lo + hi) // 2
        v = probe(haystack, np.minimum(mid, m - 1), active=active)
        go_right = v < x
        lo = np.where(go_right & (hi > lo), mid + 1, lo)
        hi = np.where(~go_right & (hi > lo), mid, hi)
        ctx.instr(4, active=active)
    ctx.gstore(out, ctx.tid, lo.astype(out.dtype), active=active)


def device_binary_search(
    device: Device, needles: DeviceArray, haystack: DeviceArray
) -> DeviceArray:
    """Find the index of each needle in a sorted haystack.

    Returns a device array of int64 indices (``searchsorted`` left
    semantics); every needle is assumed to be present when used as a DICT
    lookup, but absent needles simply return their insertion point.  A
    sorted constant-memory haystack off the sanitizer and the op observer
    is counted, not launched (:mod:`.sweep`).
    """
    m = haystack.size
    if m == 0:
        raise KernelError("cannot search an empty dictionary")
    n = needles.size
    # init=False: every queried slot is written by the kernel (the n == 0
    # placeholder slot is never read).
    out = device.alloc(max(n, 1), np.int64, name="bsearch", init=False)
    if n and _counted(device, haystack):
        steps = _search_steps(m)
        charge(device, "binary_search", n, 4 * steps, ("gload", needles, 0),
               ("cload", haystack, steps), ("gstore", out, 0))
        out.flat_view()[:n] = np.searchsorted(
            haystack.flat_view(), needles.flat_view()
        )
    elif n:
        device.launch(
            _binary_search_kernel,
            n,
            needles,
            haystack,
            out,
            n,
            m,
            name="binary_search",
        )
    return out
