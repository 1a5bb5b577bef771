"""Simulated GPU substrate.

The paper runs on an NVIDIA Tesla M2050; this environment has no GPU, so the
reproduction executes every kernel *functionally* (vectorized NumPy in SIMT
lockstep) on a simulated device that performs per-warp coalescing analysis
and exposes CUDA-profiler-style hardware counters plus a roofline cost model
parameterized with the paper's measured bandwidths.  See DESIGN.md for why
this substitution preserves the paper's claims.
"""

from .counters import CounterBook, KernelCounters
from .costmodel import (
    CpuCostModel,
    CpuEvents,
    DiskEvents,
    DiskModel,
    GpuCostModel,
    LaneUsage,
    PoolCostModel,
    predict_lane_rates,
    predict_split,
)
from .device import Device, TransferLog
from .kernel import KernelContext
from .memory import DeviceArray, count_transactions
from .pool import acquire_device
from .residency import DeviceResidency
from .spec import (
    BGI_PLATFORM,
    CpuSpec,
    DiskSpec,
    GpuSpec,
    HostLinkSpec,
    PlatformSpec,
)

__all__ = [
    "BGI_PLATFORM",
    "CounterBook",
    "CpuCostModel",
    "CpuEvents",
    "CpuSpec",
    "Device",
    "DeviceArray",
    "DeviceResidency",
    "DiskEvents",
    "DiskModel",
    "DiskSpec",
    "GpuCostModel",
    "GpuSpec",
    "HostLinkSpec",
    "KernelContext",
    "KernelCounters",
    "LaneUsage",
    "PlatformSpec",
    "PoolCostModel",
    "TransferLog",
    "acquire_device",
    "count_transactions",
    "predict_lane_rates",
    "predict_split",
]
