"""Record and replay of the level-sweep primitives' counters.

:func:`~repro.gpusim.primitives.scan.device_exclusive_scan` and
:func:`~repro.gpusim.primitives.reduce.device_reduce` launch one kernel
per tree level.  Every index pattern of those kernels is fixed by the
array size, so what a call charges is a function of the device spec, the
size and the dtype alone.  The first call of such a key launches the
kernels and records the counters each launch added to the device's book;
later calls compute each level on NumPy slices of the work array, in the
kernel's order, and merge the level's recorded counters.

A replayed integer scan computes one exclusive ``cumsum`` and merges one
pre-summed record per kernel name.  The dictionary chain's launches are
data-dependent, so they are *counted* instead (:func:`charge`).

The kernels stay the only route under the sanitizer and under the
calibration observer, whose hooks want one event per routed op
(:func:`counts_only`); they are also the recorder and the oracle the
tests compare the slices and counts against
(``tests/test_gpusim_sweeps.py``, ``tests/test_gpusim_counted.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from .. import kernel
from ..counters import KernelCounters
from ..memory import count_transactions

#: Counter fields a launch adds to (``name``/``num_sms`` are identity).
_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(KernelCounters)
    if f.name not in ("name", "num_sms")
)

#: (primitive, size, dtype, op, spec) -> the counters each of its launches
#: added, in launch order.  A few keys per job in practice (scan keys
#: are power-of-two sizes); overflow clears, as ``_TX_CACHE`` does.
#: Lookups, inserts and the clear are single dict operations, atomic under
#: the GIL, and a key always maps to equal counters: two ``gsnp serve``
#: job threads recording one key store equal values, and a lookup that
#: races a clear only misses and records again.  The stored counters are
#: never mutated (replay merges from them), so no lock is needed.
_RECORD: dict[tuple, "_Record"] = {}
_RECORD_MAX = 256


class _Record(tuple):
    """One key's launches' counters, in launch order; ``summed`` adds
    them up per kernel name, in first-launch order (what
    :meth:`LevelSweep.whole` merges)."""

    def __new__(cls, launches):
        rec = super().__new__(cls, launches)
        by_name: dict[str, KernelCounters] = {}
        for c in rec:
            by_name.setdefault(c.name, KernelCounters(
                name=c.name, num_sms=c.num_sms
            )).merge(c)
        rec.summed = tuple(by_name.values())
        return rec


def _counts(c: Optional[KernelCounters]) -> tuple[int, ...]:
    return tuple(0 if c is None else getattr(c, f) for f in _FIELDS)


def counts_only(device) -> bool:
    """True when a primitive may charge its kernels without running them:
    no sanitizer on the device and no op observer installed."""
    return device.sanitizer is None and kernel._OP_OBSERVER is None


def charge(device, name: str, n: int, instr: int, *ops) -> None:
    """Merge one launch of kernel ``name`` over ``n`` live threads without
    running it: ``instr`` instructions a thread, then each memory op
    ``(kind, arr, idx)`` in kernel order, checked, counted and tallied as
    the routed op would be.  ``idx`` is a lag ``k`` (thread ``t`` reads
    element ``max(t - k, 0)``), an index vector (negative: a dead lane),
    or for a ``cload`` the number of probes."""
    entry = device.counters.get(name)  # a launch creates its entry first
    spec = device.spec
    ws = spec.warp_size
    w = -(-n // ws)
    inst, cload = instr * w, 0
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


def span_tx(device, n: int, itemsize: int, lag: int = 0) -> int:
    """Transactions of every thread ``t < n`` loading element
    ``max(t - lag, 0)``: each warp touches the segments between its first
    and its last element, a floor sum over warps in closed form."""
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


class LevelSweep:
    """One primitive call's levels: launched (and recorded), or replayed.

    ``fast`` is true when the key was recorded and the device runs no
    sanitizer and no op observer is installed.  :meth:`level` then runs
    the caller's NumPy version of a level and merges the counters its
    launch charged when recorded, so a call that stops at a failing
    allocation leaves the book a launched call would.  Otherwise it
    launches the kernel; on the first call of a key it also notes what
    each launch added to the book, which :meth:`close` stores once the
    call completes.
    """

    def __init__(self, device, key: Sequence[Hashable]) -> None:
        self.device = device
        self.key = (*key, device.spec)
        eligible = counts_only(device)
        self.replay = _RECORD.get(self.key) if eligible else None
        self._levels = 0
        self._charged: Optional[list[KernelCounters]] = (
            [] if eligible and self.replay is None else None
        )

    @property
    def fast(self) -> bool:
        return self.replay is not None

    def level(
        self,
        name: str,
        numpy_level: Callable[[], None],
        kernel_fn: Callable,
        n_threads: int,
        *args,
    ) -> None:
        """One level: ``numpy_level()`` plus the recorded charge, or
        ``device.launch(kernel_fn, n_threads, *args, name=name)``."""
        book = self.device.counters
        if self.replay is not None:
            entry = book.get(name)  # a launch creates its entry up front
            numpy_level()
            entry.merge(self.replay[self._levels])
        elif self._charged is None:
            self.device.launch(kernel_fn, n_threads, *args, name=name)
        else:
            before = _counts(book.entries.get(name))
            self.device.launch(kernel_fn, n_threads, *args, name=name)
            after = _counts(book.entries[name])
            self._charged.append(KernelCounters(
                name=name, num_sms=book.num_sms,
                **{f: a - b for f, a, b in zip(_FIELDS, after, before)},
            ))
        self._levels += 1

    def whole(self, numpy_call: Callable[[], None]) -> None:
        """A replayed call in one step: ``numpy_call()`` computes every
        level's values, and each kernel name merges the sum of its
        levels' records (as many launches)."""
        sums = self.replay.summed
        entries = [self.device.counters.get(c.name) for c in sums]
        numpy_call()
        for entry, total in zip(entries, sums):
            entry.merge(total)

    def close(self) -> None:
        """Store the record of a completed first call of its key."""
        if self._charged is not None:
            if len(_RECORD) >= _RECORD_MAX:
                _RECORD.clear()
            _RECORD[self.key] = _Record(self._charged)


__all__ = ["LevelSweep", "charge", "counts_only"]
