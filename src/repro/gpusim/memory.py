"""Simulated device memory: arrays, spaces, and coalescing analysis.

The GPU-performance claims in the paper all reduce to *how many memory
transactions a warp issues*.  On Fermi-class hardware a warp's loads are
serviced in 128-byte segments: 32 threads reading 32 consecutive 4-byte
words touch exactly one segment (coalesced), while 32 scattered reads touch
up to 32 segments (the measured 82 GB/s vs 3.2 GB/s gap of Section VI-A).
:func:`count_transactions` performs that per-warp segment analysis, fully
vectorized over all warps of a launch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import DeviceError

#: Memory spaces recognised by the simulator.
SPACES = ("global", "constant")

_SENTINEL_SEG = np.iinfo(np.int64).max
#: The offsets of a plain (non-fan) access.
_NO_FAN = np.zeros(1, dtype=np.int64)

# -- engines ------------------------------------------------------------------
#
# The coalescing analysis below has two algebraically-equivalent engines: the
# reference sentinel-sort (always correct, O(n log w) per call) and fast
# paths for the access shapes kernels actually issue: a sort-free pass for
# monotonic live indices, and one per-warp sort (shared by every offset of a
# fan-out access) for scattered ones.  Nothing is memoized: every count
# comes from its own index vector.  The reference is the oracle the property
# tests compare the fast paths against.


def _warp_boundaries(n: int, warp_size: int) -> np.ndarray:
    """bool[n-1], True where lane ``i + 1`` starts a new warp."""
    b = np.zeros(n - 1, dtype=bool)
    b[warp_size - 1 :: warp_size] = True
    return b


def _count_transactions_reference(
    idx: np.ndarray, itemsize: int, warp_size: int, segment_bytes: int
) -> int:
    """The sentinel-sort coalescing analysis (the original algorithm)."""
    n = idx.size
    pad = (-n) % warp_size
    if pad:
        idx = np.concatenate([idx, np.full(pad, -1, dtype=np.int64)])
    addr = idx.astype(np.int64) * int(itemsize)
    seg = addr // int(segment_bytes)
    seg[idx < 0] = _SENTINEL_SEG
    seg = seg.reshape(-1, warp_size)
    seg = np.sort(seg, axis=1)
    # Distinct runs per row; the sentinel run (inactive lanes) contributes
    # exactly one run when present, which we subtract back out.
    distinct = (np.diff(seg, axis=1) != 0).sum(axis=1) + 1
    distinct = distinct - (seg[:, -1] == _SENTINEL_SEG)
    return int(distinct.sum())


def _count_transactions_monotonic(
    idx: np.ndarray,
    itemsize: int,
    warp_size: int,
    segment_bytes: int,
    all_live: bool = False,
):
    """Sort-free count when the live indices are monotonic within every
    warp (all ascending, or all descending), else ``None``.

    Monotonic live lanes (``ctx.tid``-shaped loads, prefix masks, strided
    per-thread slots, and the rows of a step block, each row its own
    warps) put equal segments adjacent within each warp, so distinct
    segments per warp reduce to counting value changes between
    consecutive live lanes of the same warp — one vectorized pass instead
    of a per-warp sort.  ``all_live`` (caller-proven: no negative lane)
    skips liveness extraction.
    """
    if all_live:
        k = idx.size
        if k == 1:
            return 1
        lv = idx
        new_warp = _warp_boundaries(k, warp_size)
    else:
        live_pos = np.nonzero(idx >= 0)[0]
        k = live_pos.size
        if k == 0:
            return 0
        lv = idx[live_pos].astype(np.int64)
        if k == 1:
            return 1
        row = live_pos // warp_size
        new_warp = row[1:] != row[:-1]
    if not ((lv[1:] >= lv[:-1]) | new_warp).all():
        if not ((lv[1:] <= lv[:-1]) | new_warp).all():
            return None
    seg = lv * int(itemsize) // int(segment_bytes)
    return 1 + int(np.count_nonzero((seg[1:] != seg[:-1]) | new_warp))


def _count_transactions_fan(
    idx: np.ndarray,
    fan: np.ndarray,
    itemsize: int,
    warp_size: int,
    segment_bytes: int,
) -> int:
    """Transactions of every access ``idx + f`` (f in ``fan``), summed.

    A negative ``idx`` lane is dead at every offset; a live lane whose
    ``idx + f`` is negative issues nothing at that offset.  One per-warp
    sort serves every offset: ``x -> (x + f) * itemsize // segment_bytes``
    is monotone in ``x``, so a row sorted once is sorted for each ``f``,
    and a row's transactions are its value changes plus one.  Dead and
    pad lanes take the value of a live lane of their warp, which adds no
    segment; a warp with no live lane is subtracted back out.
    """
    n = idx.size
    live = idx >= 0
    n_live = int(np.count_nonzero(live))
    if not n_live or not fan.size:
        return 0
    lo = int(idx.min()) if n_live == n else int(idx[live].min())
    if lo + int(fan.min()) < 0:
        # Some live lane reads a negative index at some offset, where it
        # is dead: count offset by offset.
        return sum(
            _count_transactions_fan(
                np.where(live, idx + f, -1), _NO_FAN, itemsize, warp_size,
                segment_bytes,
            )
            for f in fan.tolist()
        )
    pad = (-n) % warp_size
    if n_live == n:
        rows = idx
        if pad:
            rows = np.concatenate([idx, np.full(pad, idx[-1], dtype=idx.dtype)])
        rows = rows.reshape(-1, warp_size)
        empty = 0
    else:
        rows = idx
        if pad:
            rows = np.concatenate([idx, np.full(pad, -1, dtype=idx.dtype)])
        rows = rows.reshape(-1, warp_size)
        top = rows.max(axis=1)  # a live index wherever the warp has one
        empty = int(np.count_nonzero(top < 0))
        rows = np.where(rows >= 0, rows, np.maximum(top, 0)[:, None])
    # Every address is now non-negative; int32 halves the sort's traffic.
    small = int(idx.max()) + int(fan.max()) < 1 << 31
    rows = np.sort(rows.astype(np.int32 if small else np.int64), axis=1)
    step, rem = divmod(int(segment_bytes), int(itemsize))
    changes = 0
    for f in fan.astype(rows.dtype).tolist():
        addr = rows + f if f else rows
        if rem:
            seg = addr.astype(np.int64) * int(itemsize) // int(segment_bytes)
        elif step & (step - 1) == 0:
            seg = addr >> (step.bit_length() - 1)
        else:
            seg = addr // step
        changes += int(np.count_nonzero(seg[:, 1:] != seg[:, :-1]))
    return changes + fan.size * (rows.shape[0] - empty)


def count_transactions(
    indices: np.ndarray,
    itemsize: int,
    warp_size: int = 32,
    segment_bytes: int = 128,
    all_live: bool = False,
    fan: Optional[np.ndarray] = None,
) -> int:
    """Count the memory transactions a warp-partitioned access generates.

    Parameters
    ----------
    indices:
        Flat element indices accessed by consecutive threads.  Thread ``t``
        accesses ``indices[t]``; a negative index marks an inactive lane
        (masked-off thread), which issues no transaction.
    itemsize:
        Size in bytes of one element.
    warp_size:
        Number of threads per warp (lanes coalesced together).
    segment_bytes:
        Size of one memory transaction segment.
    all_live:
        Caller-supplied proof that no index is negative (every lane live);
        lets the fast engine skip liveness extraction.  Purely an
        optimization hint — the result is identical without it.
    fan:
        Element offsets of a fan-out access: each live thread ``t``
        accesses ``indices[t] + f`` for every ``f`` in ``fan``, and the
        result is the sum of the per-offset counts (an access whose index
        ``indices[t] + f`` is negative issues no transaction, as in the
        per-offset call).  One per-warp sort serves all offsets.

    Returns
    -------
    int
        Total number of ``segment_bytes``-sized transactions summed over
        all warps (and over the offsets of ``fan``).
    """
    idx = np.asarray(indices).ravel()
    n = idx.size
    if n == 0:
        return 0
    if fan is not None:
        return _count_transactions_fan(
            idx.astype(np.int64, copy=False),
            np.asarray(fan, dtype=np.int64).ravel(), itemsize, warp_size,
            segment_bytes,
        )
    total = _count_transactions_monotonic(
        idx, itemsize, warp_size, segment_bytes, all_live=all_live
    )
    if total is None:
        # Scattered pattern: a per-warp sort is the only correct analysis.
        total = _count_transactions_fan(
            idx.astype(np.int64, copy=False), _NO_FAN, itemsize, warp_size,
            segment_bytes,
        )
    return total


class DeviceArray:
    """A typed array living in simulated device memory.

    The backing store is an ordinary NumPy array (``.data``).  Host code may
    touch ``.data`` freely when staging inputs or checking outputs; *kernel*
    code must route every access through the
    :class:`~repro.gpusim.kernel.KernelContext` so transactions are counted
    (``gsnp audit`` enforces this statically).

    Under ``Device(sanitize=True)`` each array additionally carries a
    *shadow written-bitmap* (``_shadow``): one bool per element, set when a
    kernel stores to it (or when host code touches ``.data``, which is
    conservatively treated as initializing the whole array).  Kernel loads
    from elements whose shadow bit is clear are reported as uninitialized
    reads.  ``_host_reads``/``_kernel_reads``/``_writes`` feed the device
    teardown leak check.

    A *value-free* array (``Device.alloc(..., value_free=True)``) is one
    whose values no output depends on: the simulator charges its traffic
    but never needs its bytes.  It keeps its name, shape, dtype, size,
    global-memory charge and read/write tallies, and is exempt from the
    never-read teardown check (modeled code consumes it).  Its store is
    a read-only zero-stride view (``_stored`` is false): kernel loads
    return the ``fill`` block and kernel stores write nothing.  A
    sanitizing device materializes it instead (the shadow bitmaps need
    per-element state), so sanitized runs execute every access for
    real.  Either way, host reads (``.data``, ``copy_to_host``,
    ``Device.from_device``) raise :class:`DeviceError`.
    """

    __slots__ = (
        "name",
        "_data",
        "space",
        "device",
        "_freed",
        "_shadow",
        "_host_reads",
        "_kernel_reads",
        "_writes",
        "_consumed",
        "value_free",
        "_stored",
    )

    def __init__(
        self,
        name: str,
        data: np.ndarray,
        space: str = "global",
        device: Optional[object] = None,
        value_free: bool = False,
    ) -> None:
        if space not in SPACES:
            raise DeviceError(f"unknown memory space {space!r}")
        self.name = name
        self._data = data
        self.space = space
        self.device = device
        self._freed = False
        self._shadow: Optional[np.ndarray] = None
        self._host_reads = 0
        self._kernel_reads = 0
        self._writes = 0
        self._consumed = value_free
        self.value_free = value_free
        self._stored = data.flags.writeable or not value_free

    # -- backing store ----------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The backing NumPy array (host-side access).

        Host code may read or write through this view, so in sanitize mode
        any access conservatively marks the whole array initialized.
        A value-free array has no values to give: :class:`DeviceError`.
        """
        self._require_values()
        self._host_reads += 1
        if self._shadow is not None:
            self._shadow[:] = True
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._require_values()
        self._data = value
        self._writes += 1
        if self._shadow is not None:
            self._shadow = np.ones(value.size, dtype=bool)

    def enable_shadow(self, initialized: bool) -> None:
        """Attach the sanitizer's written-bitmap (``Device(sanitize=True)``)."""
        self._shadow = np.full(self._data.size, initialized, dtype=bool)

    def mark_consumed(self) -> None:
        """Acknowledge that this array's contents are consumed by *modeled*
        device code the simulator does not execute.

        Some kernels charge realistic traffic for an output whose actual
        values the simulator then computes on the host (e.g. the GPU DICT
        encoder's binary-search result).  Calling this suppresses the
        sanitizer's ``leak-never-read`` teardown check for the array
        without inflating the read tallies.  An array whose values nothing
        reads at all is better allocated value-free (see the class
        docstring), which implies this.
        """
        self._consumed = True

    # -- inspection -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    @property
    def itemsize(self) -> int:
        return self._data.itemsize

    @property
    def freed(self) -> bool:
        return self._freed

    def require_live(self) -> None:
        """Raise :class:`DeviceError` if this array has been freed."""
        if self._freed:
            raise DeviceError(f"use of freed device array {self.name!r}")

    def _require_values(self) -> None:
        """Raise :class:`DeviceError` on a host access to a value-free
        array: no output may come to depend on its values."""
        if self.value_free:
            raise DeviceError(
                f"host access to value-free device array {self.name!r}"
            )

    def flat_view(self) -> np.ndarray:
        """Return a flat (1-D) view of the backing store.

        This is the *kernel-internal* accessor used by
        :class:`~repro.gpusim.kernel.KernelContext` after its shadow checks;
        it does not mark the shadow bitmap, unlike host ``.data`` access.
        A value-free array without a store has no view to give.
        """
        self.require_live()
        if not self._stored:
            raise DeviceError(
                f"value-free device array {self.name!r} has no store"
            )
        return self._data.reshape(-1)

    def copy_to_host(self) -> np.ndarray:
        """Raw (unaccounted) copy out; prefer ``Device.from_device``."""
        self.require_live()
        self._require_values()
        self._host_reads += 1
        return self._data.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "freed" if self._freed else f"{self.shape} {self.dtype}"
        return f"DeviceArray({self.name!r}, {self.space}, {state})"
