"""Multi-device simulation: a pool of devices behind one contended link.

The paper evaluates a single Tesla M2050, but its cluster-scale results
(Tables I/IV) assume many such devices working on one genome at once.
SOAP3-dp is the canonical precedent for splitting a short-read workload
across several GPUs *and* the host CPU simultaneously; this module models
the hardware side of that picture:

* :class:`HostLink` — the shared PCIe/host-memory interconnect.  Every
  device in a pool charges its host<->device transfers here in addition
  to its private :class:`~repro.gpusim.device.TransferLog`.  Because all
  slots funnel through one I/O hub, the link *serializes*: modeled link
  time is total bytes over the shared bandwidth plus a per-transfer
  arbitration overhead (see :class:`~repro.gpusim.spec.HostLinkSpec`),
  not N independent x16 channels.
* :class:`DevicePool` — N identically-specced devices sharing one link,
  with pool-level views that merge per-device ``KernelCounters`` and
  transfer logs into totals and summarize per-device residency (keys
  include ``device_id``, so two pool devices never alias one upload).
* :func:`acquire_device` — the construction funnel for standalone
  devices.  This module is the only place in ``repro`` that calls
  ``Device(...)``: every simulated device is obtained from the pool layer
  (a test scans the package for other construction sites).

The simulator executes kernels eagerly and deterministically, so the
pool does not interleave device execution in real time; contention is a
*model* applied by :class:`~repro.gpusim.costmodel.PoolCostModel` when
converting accumulated charges into seconds.  Scheduling across the pool
lives in :mod:`repro.exec.executor` (one thread: nothing here is locked).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from ..errors import DeviceError
from .counters import KernelCounters
from .device import Device, TransferLog
from .spec import GpuSpec, HostLinkSpec


@dataclass
class LinkUsage:
    """Per-device traffic accumulated on a shared :class:`HostLink`."""

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_count: int = 0
    d2h_count: int = 0
    #: Kernel-launch commands issued over the link (stream accounting).
    launches: int = 0

    @property
    def total_bytes(self) -> int:
        return self.h2d_bytes + self.d2h_bytes

    @property
    def total_count(self) -> int:
        return self.h2d_count + self.d2h_count


class HostLink:
    """The shared, contended host<->device interconnect of a pool.

    Not locked: the scheduler steps pool lanes one at a time on a single
    thread, so every charge to the link is already serialized.
    """

    def __init__(self, spec: Optional[HostLinkSpec] = None) -> None:
        self.spec = spec or HostLinkSpec()
        self._usage: dict[int, LinkUsage] = {}

    def _entry(self, device_id: int) -> LinkUsage:
        entry = self._usage.get(device_id)
        if entry is None:
            entry = self._usage[device_id] = LinkUsage()
        return entry

    def charge(self, device_id: int, nbytes: int, direction: str) -> None:
        """Record one transfer by ``device_id`` (called by the device)."""
        if direction not in ("h2d", "d2h"):
            raise DeviceError(f"unknown transfer direction {direction!r}")
        entry = self._entry(device_id)
        if direction == "h2d":
            entry.h2d_bytes += nbytes
            entry.h2d_count += 1
        else:
            entry.d2h_bytes += nbytes
            entry.d2h_count += 1

    def note_launch(self, device_id: int) -> None:
        """Record one kernel-launch command crossing the link."""
        self._entry(device_id).launches += 1

    def usage(self, device_id: int) -> LinkUsage:
        """A snapshot of one device's accumulated link traffic."""
        return replace(self._usage.get(device_id) or LinkUsage())

    def total(self) -> LinkUsage:
        """Aggregate traffic over every device on the link."""
        out = LinkUsage()
        for entry in self._usage.values():
            out.h2d_bytes += entry.h2d_bytes
            out.d2h_bytes += entry.d2h_bytes
            out.h2d_count += entry.h2d_count
            out.d2h_count += entry.d2h_count
            out.launches += entry.launches
        return out

    def serialized_seconds(self) -> float:
        """Modeled time for all accumulated traffic, fully serialized.

        One shared hub: total bytes over the link bandwidth plus the
        per-transfer arbitration overhead for every individual transfer,
        regardless of which device issued it.
        """
        t = self.total()
        return (
            t.total_bytes / self.spec.bandwidth
            + t.total_count * self.spec.per_transfer_overhead
        )

    def reset(self) -> None:
        self._usage.clear()


class DevicePool:
    """N identically-specced simulated devices sharing one host link.

    Devices are created eagerly with stable ``device_id`` 0..N-1 and
    live for the pool's lifetime; `device(i)` hands out the same object
    every time, so residency on each device persists across shards the
    scheduler assigns to it.
    """

    def __init__(
        self,
        n_devices: int,
        spec: Optional[GpuSpec] = None,
        sanitize: bool = False,
        enforce_memory: bool = True,
        link_spec: Optional[HostLinkSpec] = None,
    ) -> None:
        if n_devices < 1:
            raise DeviceError(f"a pool needs >= 1 device, got {n_devices}")
        self.spec = spec or GpuSpec()
        if link_spec is None:
            link_spec = HostLinkSpec(bandwidth=self.spec.pcie_bandwidth)
        self.link = HostLink(link_spec)
        self.devices: list[Device] = [
            Device(
                spec=self.spec,
                sanitize=sanitize,
                enforce_memory=enforce_memory,
                device_id=i,
                link=self.link,
            )
            for i in range(n_devices)
        ]

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices)

    def device(self, device_id: int) -> Device:
        """The pool device with the given stable id."""
        try:
            return self.devices[device_id]
        except IndexError:
            raise DeviceError(
                f"device {device_id} not in pool of {len(self.devices)}"
            ) from None

    # -- pool-level accounting views -------------------------------------

    def total_counters(self) -> KernelCounters:
        """Per-device kernel counters merged into one pool total."""
        out = KernelCounters(name="pool_total", num_sms=self.spec.num_sms)
        for dev in self.devices:
            out.merge(dev.counters.total())
        return out

    def counters_by_kernel(self) -> dict[str, KernelCounters]:
        """Pool totals keyed by kernel name (merged across devices)."""
        merged: dict[str, KernelCounters] = {}
        for dev in self.devices:
            for name, c in dev.counters.entries.items():
                entry = merged.setdefault(
                    name, KernelCounters(name=name, num_sms=self.spec.num_sms)
                )
                entry.merge(c)
        return merged

    def total_transfers(self) -> TransferLog:
        """Per-device transfer logs merged into one pool total."""
        out = TransferLog()
        for dev in self.devices:
            out.h2d_bytes += dev.transfers.h2d_bytes
            out.d2h_bytes += dev.transfers.d2h_bytes
            out.h2d_count += dev.transfers.h2d_count
            out.d2h_count += dev.transfers.d2h_count
        return out

    def per_device_stats(self) -> list[dict]:
        """One stats row per device (serve `/stats` and bench shape)."""
        rows = []
        for dev in self.devices:
            total = dev.counters.total()
            rows.append(
                {
                    "device": dev.device_id,
                    "launches": total.launches,
                    "h2d_bytes": dev.transfers.h2d_bytes,
                    "d2h_bytes": dev.transfers.d2h_bytes,
                    "h2d_count": dev.transfers.h2d_count,
                    "d2h_count": dev.transfers.d2h_count,
                    "resident_entries": len(dev.resident),
                    "resident_hits": dev.resident.hits,
                    "resident_misses": dev.resident.misses,
                }
            )
        return rows

    def resident_summary(self) -> dict[object, list[int]]:
        """Map of residency key -> device ids holding an entry for it.

        With device identity folded into cache keys every list has
        exactly one element; a key shared by two devices would mean the
        pool aliased one calibration-keyed upload across
        devices (the bug the keying fix closes).
        """
        summary: dict[object, list[int]] = {}
        for dev in self.devices:
            for key in dev.resident._entries:
                summary.setdefault(key, []).append(dev.device_id)
        return summary

    def release(self, strict_teardown: bool = False) -> None:
        """Drop residency on every device; optionally leak-check each."""
        for dev in self.devices:
            dev.resident.clear()
            if strict_teardown:
                dev.sanitize_teardown(strict=True)


def acquire_device(
    spec: Optional[GpuSpec] = None,
    sanitize: bool = False,
    enforce_memory: bool = True,
) -> Device:
    """Obtain a standalone simulated device.

    Serial pipelines, benchmark arms and probes that need a private
    device use this instead of instantiating :class:`Device` directly, so
    the pool layer stays the one construction site.  A standalone device
    has ``device_id`` 0 and no shared link.
    """
    return Device(
        spec=spec or GpuSpec(),
        sanitize=sanitize,
        enforce_memory=enforce_memory,
    )


__all__ = [
    "DevicePool",
    "HostLink",
    "LinkUsage",
    "acquire_device",
]
