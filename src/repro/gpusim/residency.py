"""Persistent device residency: keyed caches for long-lived allocations.

The paper amortizes its one-time costs — the 20 MB ``new_p_matrix`` build
and upload — over an entire run (§IV-G, §VI-E).  :class:`DeviceResidency`
gives each simulated :class:`~repro.gpusim.device.Device` a keyed cache of
allocations that outlive a single pipeline run, so fixed tables are
uploaded once per device and reused across windows, shards and ``run()``
calls.  Keys are content digests (the score tables' is the calibration's,
computed once in ``calibrate()``), so a changed calibration naturally
misses and re-uploads; explicit invalidation
(:meth:`DeviceResidency.clear`) releases everything before a strict
sanitizer teardown.

Residency never touches hardware counters: cached uploads happen outside
the pipeline's phase scopes and the one serial-equivalent transfer is
charged analytically by ``calibrate()``, so per-phase counters stay bitwise
identical to the uncached engine.
"""

from __future__ import annotations


class DeviceResidency:
    """Keyed cache of device allocations that outlive one pipeline run.

    Values are arbitrary objects (e.g. a ``GsnpTables`` bundle); ``arrays``
    lists the :class:`~repro.gpusim.memory.DeviceArray` members whose
    liveness gates a hit — an entry any of whose arrays was freed behind
    the cache's back is dropped, never returned stale.
    """

    def __init__(self, device) -> None:
        self._device = device
        self._entries: dict[object, tuple[object, tuple]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The cached value for ``key``, or ``None`` (stale entries drop)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        value, arrays = entry
        if any(a.freed for a in arrays):
            del self._entries[key]
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key, value, arrays=()) -> None:
        """Make ``value`` resident under ``key``."""
        self._entries[key] = (value, tuple(arrays))

    def invalidate(self, key, free: bool = True) -> None:
        """Drop one entry, freeing its still-live device arrays."""
        entry = self._entries.pop(key, None)
        if entry is None or not free:
            return
        for arr in entry[1]:
            if not arr.freed:
                self._device.free(arr)

    def clear(self, free: bool = True) -> None:
        """Drop every entry (explicit invalidation / pre-teardown release)."""
        for key in list(self._entries):
            self.invalidate(key, free=free)


__all__ = ["DeviceResidency"]
