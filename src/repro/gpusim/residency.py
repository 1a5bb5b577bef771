"""Persistent device residency: the one slot for long-lived allocations.

The paper amortizes its one-time costs — the 20 MB ``new_p_matrix`` build
and upload — over an entire run (§IV-G, §VI-E).  :class:`DeviceResidency`
gives each simulated :class:`~repro.gpusim.device.Device` one slot for
allocations that outlive a single pipeline run, so the score tables are
uploaded once per device and reused across windows, shards and ``run()``
calls.  The key is the calibration digest (computed once in
``calibrate()``): a changed calibration misses, and putting it frees the
tables it replaces, so a device holds one table set however many
calibrations it has served.  :meth:`DeviceResidency.clear` releases the
slot before a strict sanitizer teardown.

Residency never touches hardware counters: cached uploads happen outside
the pipeline's phase scopes and the one serial-equivalent transfer is
charged analytically by ``calibrate()``, so per-phase counters stay bitwise
identical to the uncached engine.
"""

from __future__ import annotations


class DeviceResidency:
    """One device's slot for allocations that outlive one pipeline run.

    The value is arbitrary (a ``GsnpTables`` bundle); ``arrays`` lists the
    :class:`~repro.gpusim.memory.DeviceArray` members whose liveness gates
    a hit — a value any of whose arrays was freed behind the slot's back
    is a miss, never returned stale.
    """

    def __init__(self, device) -> None:
        self._device = device
        self._entry: tuple | None = None  # (key, value, arrays)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return int(self._entry is not None)

    def get(self, key):
        """The resident value for ``key``, or ``None``."""
        entry = self._entry
        if entry is None or entry[0] != key or any(
                a.freed for a in entry[2]):
            self.misses += 1
            return None
        self.hits += 1
        return entry[1]

    def put(self, key, value, arrays=()) -> None:
        """Make ``value`` resident under ``key``, freeing what the slot
        held before."""
        self.clear()
        self._entry = (key, value, tuple(arrays))

    def clear(self) -> None:
        """Empty the slot, freeing its still-live device arrays."""
        entry, self._entry = self._entry, None
        for arr in entry[2] if entry is not None else ():
            if not arr.freed:
                self._device.free(arr)


__all__ = ["DeviceResidency"]
