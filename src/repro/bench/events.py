"""Per-component event accounting shared by both pipelines.

Every pipeline component (Figure 1 / Figure 2) records the events it
generates — CPU memory traffic, disk bytes, GPU kernel counters, PCIe
transfers — into a :class:`PhaseRecord`.  The cost models of
:mod:`repro.gpusim.costmodel` turn the records into modeled seconds, and
because all counts scale linearly with the number of sites, the same
records extrapolate to the paper's full-scale datasets
(:mod:`repro.bench.scale`).  Both pipelines time each phase with one
:class:`PhaseScope`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..gpusim.costmodel import (
    CpuCostModel,
    CpuEvents,
    DiskEvents,
    DiskModel,
    GpuCostModel,
)
from ..gpusim.counters import COUNTER_FIELDS, KernelCounters
from ..gpusim.spec import BGI_PLATFORM, PlatformSpec

if TYPE_CHECKING:
    from ..gpusim.device import Device


@dataclass
class PhaseRecord:
    """Events generated by one pipeline component."""

    name: str
    cpu: CpuEvents = field(default_factory=CpuEvents)
    disk: DiskEvents = field(default_factory=DiskEvents)
    gpu: KernelCounters = field(default_factory=KernelCounters)
    #: Host<->device bytes moved by this component.
    transfer_bytes: int = 0
    #: Measured wall-clock seconds of the (scaled) Python run.
    wall: float = 0.0
    #: Scale-independent seconds (e.g. score-table generation, which is
    #: the same work regardless of dataset size; the paper reports ~2s).
    fixed_seconds: float = 0.0

    def merge(self, other: "PhaseRecord") -> None:
        self.cpu.merge(other.cpu)
        self.disk.merge(other.disk)
        self.gpu.merge(other.gpu)
        self.transfer_bytes += other.transfer_bytes
        self.wall += other.wall

    def modeled_time(self, platform: PlatformSpec = BGI_PLATFORM) -> float:
        """Modeled seconds at the record's own scale."""
        cpu_t = CpuCostModel(platform.cpu).time(self.cpu)
        disk_t = DiskModel(platform.disk).time(self.disk)
        gpu_model = GpuCostModel(platform.gpu)
        gpu_t = gpu_model.kernel_time(self.gpu) if self.gpu.launches else 0.0
        xfer_t = gpu_model.transfer_time(self.transfer_bytes)
        return cpu_t + disk_t + gpu_t + xfer_t + self.fixed_seconds

    def scaled(self, factor: float) -> "PhaseRecord":
        """Record with all linear counts multiplied by ``factor``."""
        g = KernelCounters(
            name=self.gpu.name, num_sms=self.gpu.num_sms,
            **{f: int(getattr(self.gpu, f) * factor) for f in COUNTER_FIELDS},
        )
        # A full-scale run keeps the window *size*, so it has factor-times
        # more windows and hence factor-times more kernel launches.
        g.launches = max(1, g.launches)
        return PhaseRecord(
            name=self.name,
            cpu=self.cpu.scaled(factor),
            disk=self.disk.scaled(factor),
            gpu=g,
            transfer_bytes=int(self.transfer_bytes * factor),
            wall=self.wall * factor,
            fixed_seconds=self.fixed_seconds,  # scale-independent
        )


class PhaseScope:
    """Add one phase's wall time to its record and, given a device, the
    device's counter and transfer deltas over the scope."""

    def __init__(self, record: PhaseRecord, device: Optional[Device]) -> None:
        self.record = record
        self.device = device

    def __enter__(self):
        self.t0 = time.perf_counter()
        if self.device is not None:
            self._snap = self.device.counters.sums()
            self._xfer = (
                self.device.transfers.h2d_bytes + self.device.transfers.d2h_bytes
            )
        return self

    def __exit__(self, *exc):
        self.record.wall += time.perf_counter() - self.t0
        if self.device is not None:
            after = self.device.counters.sums()
            self.record.gpu.merge(KernelCounters(
                name=self.record.name, num_sms=self.device.counters.num_sms,
                **{f: a - b for f, a, b in zip(COUNTER_FIELDS, after,
                                                self._snap)},
            ))
            xfer_now = (
                self.device.transfers.h2d_bytes + self.device.transfers.d2h_bytes
            )
            self.record.transfer_bytes += xfer_now - self._xfer
        return False


#: Canonical component names, in Figure 1 / Table I order.
COMPONENTS = (
    "cal_p_matrix",
    "read_site",
    "counting",
    "likelihood",
    "posterior",
    "output",
    "recycle",
)


@dataclass
class RunProfile:
    """All component records of one pipeline run."""

    pipeline: str
    records: dict[str, PhaseRecord] = field(default_factory=dict)

    def phase(self, name: str) -> PhaseRecord:
        if name not in self.records:
            self.records[name] = PhaseRecord(name=name)
        return self.records[name]

    def merge(self, other: "RunProfile") -> None:
        """Fold another run's records into this one, phase by phase.

        Used by :mod:`repro.exec` to combine per-shard profiles: windows
        are independent, so summed per-phase events equal a serial run's.
        ``fixed_seconds`` is deliberately not summed (scale-independent
        one-time costs must not be charged once per shard); the caller
        accounts for them via the shared calibration record.
        """
        for name, rec in other.records.items():
            self.phase(name).merge(rec)

    def total_modeled(self, platform: PlatformSpec = BGI_PLATFORM) -> float:
        return sum(r.modeled_time(platform) for r in self.records.values())

    def total_wall(self) -> float:
        return sum(r.wall for r in self.records.values())

    def breakdown(
        self, platform: PlatformSpec = BGI_PLATFORM
    ) -> dict[str, float]:
        """Modeled seconds per component, Table I/IV style."""
        return {
            name: self.records[name].modeled_time(platform)
            for name in COMPONENTS
            if name in self.records
        }

    def scaled(self, factor: float) -> "RunProfile":
        return RunProfile(
            pipeline=self.pipeline,
            records={
                k: v.scaled(factor) for k, v in self.records.items()
            },
        )
