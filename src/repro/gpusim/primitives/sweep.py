"""Record and replay of the level-sweep primitives' counters.

:func:`~repro.gpusim.primitives.scan.device_exclusive_scan` and
:func:`~repro.gpusim.primitives.reduce.device_reduce` launch one kernel
per tree level.  Every index pattern of those kernels is fixed by the
array size, so what a call charges is a function of the device spec, the
size and the dtype alone.  The first call of such a key launches the
kernels and records the counters each launch added to the device's book;
later calls compute each level on NumPy slices of the work array, in the
kernel's order, and merge the level's recorded counters.

The kernels stay the only route under the sanitizer and under the
calibration observer, whose hooks want one event per routed op; they are
also the recorder and the oracle the tests compare the slices against
(``tests/test_gpusim_sweeps.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Hashable, Optional, Sequence

from .. import kernel
from ..counters import KernelCounters

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
_RECORD: dict[tuple, tuple[KernelCounters, ...]] = {}
_RECORD_MAX = 256


def _counts(c: Optional[KernelCounters]) -> tuple[int, ...]:
    return tuple(0 if c is None else getattr(c, f) for f in _FIELDS)


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
        eligible = (
            device.sanitizer is None
            and kernel._OP_OBSERVER is None
        )
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

    def close(self) -> None:
        """Store the record of a completed first call of its key."""
        if self._charged is not None:
            if len(_RECORD) >= _RECORD_MAX:
                _RECORD.clear()
            _RECORD[self.key] = tuple(self._charged)


__all__ = ["LevelSweep"]
