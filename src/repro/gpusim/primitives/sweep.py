"""Count-only launches: a primitive's kernels charged without running.

Off the sanitizer and the op observer (:func:`counts_only`), a
primitive computes its values with NumPy and merges (:func:`charge`)
the counters each of its kernels would add, computed from the index
patterns the host already holds: a ``tid``-contiguous op as a lag
(:func:`span_tx`), a block's lane-0 op as a ``range``, a data-dependent
op as its index vector, and a block's shared-memory tree in warps
(:func:`tree_warps`, which the kernel's :func:`tree_levels` charges
too).  Nothing is kept between calls: every count comes from the call's
own inputs.

The kernels stay the only route under the sanitizer and under the
calibration observer, whose hooks want one event per routed op; they
are also the oracle the tests compare the values and counts against
(``tests/test_gpusim_counted.py``).
"""

from __future__ import annotations

import numpy as np

from ...errors import KernelError
from .. import kernel
from ..counters import KernelCounters
from ..memory import count_transactions

#: Threads (and elements, one each) of a scan or reduce block, the
#: M2050's largest; its tree's level ``k`` runs ``BLOCK >> k`` threads.
BLOCK = 1024
LEVELS = range(1, BLOCK.bit_length())


def counts_only(device) -> bool:
    """True when a primitive may charge its kernels without running them:
    no sanitizer on the device and no op observer in this context."""
    return device.sanitizer is None and kernel._OBSERVER.get() is None


def require_integer(arr) -> None:
    """Scan and reduce sum integers (counts and flags), whose sums wrap,
    so any grouping gives the tree's values: any other dtype is a
    :class:`KernelError`, raised before they allocate."""
    if arr.dtype.kind not in "iu":
        raise KernelError(f"scan/reduce of {arr.dtype} array {arr.name!r}")


def charge(device, name: str, n: int, instr: int, *ops,
           shared: tuple = ()) -> None:
    """Merge one launch of kernel ``name`` over ``n`` live threads without
    running it: ``instr`` instructions a thread, then each memory op
    ``(kind, arr, idx)`` in kernel order, checked, counted and tallied as
    the routed op would be.  ``idx`` is a lag ``k`` (thread ``t`` reads
    element ``max(t - k, 0)``; ``-k`` is an offset), a ``range`` (lane 0
    of block ``b`` reads element ``idx[b]``), an index vector (negative: a
    dead lane), or for a ``cload`` the number of probes.  ``shared`` adds
    (instruction, shared-load, shared-store) warp triples: a block tree's
    from :func:`tree_warps`, and the kernel's other shared accesses."""
    entry = device.counters.get(name)  # a launch creates its entry first
    spec = device.spec
    ws = spec.warp_size
    w = -(-n // ws)
    s_inst, s_load, s_store = (sum(t) for t in zip((0, 0, 0), *shared))
    inst, cload = instr * w + s_inst, 0
    load_tx = store_tx = load_bytes = store_bytes = 0
    for kind, arr, idx in ops:
        if kind == "cload":
            arr.require_live()
            cload += idx * n
            inst += idx * w
            arr._kernel_reads += idx
            continue
        kernel.require_global(arr)
        if isinstance(idx, int):
            live, lanes, top = n, w, max(n - 1 - idx, 0)
            tx = span_tx(device, n, arr.itemsize, idx)
        elif isinstance(idx, range):
            live = lanes = tx = len(idx)
            top = idx[-1] if idx else -1
        else:
            warps = np.flatnonzero(idx >= 0) // ws
            live = warps.size
            lanes = int(np.count_nonzero(np.diff(warps))) + 1 if live else 0
            top = int(idx.max(initial=-1))
            tx = count_transactions(
                idx, arr.itemsize, ws, spec.segment_bytes
            )
        if live and top >= arr.size:
            kernel.KernelContext._bounds_check(arr, np.array([top]))
        inst += lanes
        nbytes = live * arr.itemsize
        if kind != "gstore":
            load_tx += tx
            load_bytes += nbytes
        if kind != "gload":
            store_tx += tx
            store_bytes += nbytes
        if kind == "gload":
            arr._kernel_reads += 1
        else:
            arr._writes += 1
    if entry.num_sms == spec.num_sms:
        entry.launches += 1
    else:  # adopt the spec or raise, as a merge does
        entry.merge(KernelCounters(
            name=name, num_sms=spec.num_sms, launches=1
        ))
    entry.bump_global(load_tx, store_tx, load_bytes, store_bytes, inst)
    entry.c_load += cload
    entry.s_load_warp += s_load
    entry.s_store_warp += s_store


def tree_levels(ctx, loads: int, stores: int, instr: int) -> None:
    """A block's shared-memory tree over the launch's blocks: the warps
    :func:`tree_warps` prices, then a barrier a level."""
    inst, s_load, s_store = tree_warps(
        ctx.device, ctx.n_threads // BLOCK, loads, stores, instr
    )
    ctx.counters.inst_warp += inst
    ctx.counters.s_load_warp += s_load
    ctx.counters.s_store_warp += s_store
    for _ in LEVELS:
        ctx.syncthreads()


def tree_warps(device, blocks: int, loads: int, stores: int,
               instr: int) -> tuple:
    """The (instruction, shared-load, shared-store) warps of ``blocks``
    blocks' trees: at level ``k`` the ``BLOCK >> k`` owner threads make
    ``loads``/``stores`` accesses and ``instr`` instructions."""
    ws = device.spec.warp_size
    owners = blocks * sum(-(-(BLOCK >> k) // ws) for k in LEVELS)
    return instr * owners, loads * owners, stores * owners


def span_tx(device, n: int, itemsize: int, lag: int = 0) -> int:
    """Transactions of every thread ``t < n`` loading element
    ``max(t - lag, 0)`` (a negative lag is an offset): each warp touches
    the segments between its first and its last element, a floor sum
    over warps in closed form."""
    if n <= 0:
        return 0
    ws, seg = device.spec.warp_size, device.spec.segment_bytes
    if itemsize > seg:  # then every element starts its own segment
        itemsize = seg = 1

    def segments(count: int, start: int) -> int:
        """Sum over warps ``k < count`` of the segment holding element
        ``max(start + k * ws, 0)``."""
        skip = max(0, -(start // ws))
        if count <= skip:
            return 0
        return _floor_sum(
            count - skip, seg, ws * itemsize, (start + ws * skip) * itemsize
        )

    full, tail = divmod(n, ws)
    last = segments(full, ws - 1 - lag)
    if tail:
        last += max(n - 1 - lag, 0) * itemsize // seg
    return full + (tail > 0) + last - segments(full + (tail > 0), -lag)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum(floor((a * i + b) / m) for i in range(n))`` for ``a, b >= 0``
    in O(log) steps (the Euclidean-like floor-sum reduction)."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b, m, a = top // m, top % m, a, m


__all__ = ["BLOCK", "charge", "counts_only", "require_integer",
           "tree_levels", "tree_warps"]
