"""Analytical cost models converting simulated event counts into seconds.

The paper itself reasons analytically about performance: Formula (1)
estimates the dense ``base_occ`` scan time as ``S * |base_occ| / B_cpu`` and
finds it explains 65-92% of the measured likelihood/recycle time.  We adopt
the same style throughout:

* :class:`GpuCostModel` — a roofline over the simulated hardware counters:
  a kernel takes ``max(instruction time, memory time)``; memory time is the
  *transaction* traffic (128-byte segments) over the coalesced bandwidth,
  which automatically prices random access at the measured ~3 GB/s
  (32 segments/warp) and sequential access at 82 GB/s (1 segment/warp).
* :class:`CpuCostModel` — sequential bytes over the measured 4.2 GB/s,
  plus latency-priced random accesses, plus instruction and ``log10`` terms.
* :class:`DiskModel` — sequential disk bytes over 90 MB/s plus per-byte
  text parse/format CPU cost.

Because every model consumes *counts* (which scale linearly with the number
of sites), full-scale times for the paper's datasets are obtained by
multiplying scaled-run counts by the dataset scale factor; see
:mod:`repro.bench.scale`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .counters import KernelCounters
from .spec import CpuSpec, DiskSpec, GpuSpec, HostLinkSpec


# ---------------------------------------------------------------------------
# GPU
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GpuCostModel:
    """Roofline time model over :class:`KernelCounters`."""

    spec: GpuSpec = field(default_factory=GpuSpec)

    def instruction_time(self, c: KernelCounters) -> float:
        """Time to issue all warp-instructions at the chip's issue rate."""
        return c.inst_warp / self.spec.warp_issue_rate

    def memory_time(self, c: KernelCounters) -> float:
        """Time to move all global-memory transactions.

        Every transaction moves one full segment regardless of how many
        bytes the warp actually uses, so scattered access is automatically
        penalized by the useful-bytes / segment-bytes ratio.
        """
        tx = c.g_load + c.g_store
        return tx * self.spec.segment_bytes / self.spec.bw_coalesced

    def shared_time(self, c: KernelCounters) -> float:
        """Time for shared-memory traffic (rarely the bottleneck)."""
        ops = c.s_load_warp + c.s_store_warp
        return ops * self.spec.warp_size / self.spec.shared_access_rate

    def kernel_time(self, c: KernelCounters) -> float:
        """Roofline: overlapped compute/memory plus launch overhead."""
        busy = max(
            self.instruction_time(c), self.memory_time(c), self.shared_time(c)
        )
        return busy + c.launches * self.spec.launch_overhead

    def transfer_time(self, nbytes: int) -> float:
        """PCIe transfer time for ``nbytes`` host<->device bytes."""
        return nbytes / self.spec.pcie_bandwidth

    def effective_bandwidth(self, c: KernelCounters) -> float:
        """Useful bytes per second achieved by a kernel (diagnostic)."""
        t = self.kernel_time(c)
        if t == 0:
            return 0.0
        return (c.g_load_bytes + c.g_store_bytes) / t


# ---------------------------------------------------------------------------
# CPU
# ---------------------------------------------------------------------------


@dataclass
class CpuEvents:
    """Event counts for a CPU-side computation phase."""

    seq_read_bytes: int = 0
    seq_write_bytes: int = 0
    random_accesses: int = 0
    instructions: int = 0
    log_calls: int = 0

    def merge(self, other: "CpuEvents") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def scaled(self, factor: float) -> "CpuEvents":
        """Return a copy with every count multiplied by ``factor``."""
        return CpuEvents(
            **{
                f.name: int(getattr(self, f.name) * factor)
                for f in fields(self)
            }
        )


@dataclass(frozen=True)
class CpuCostModel:
    """Memory-bandwidth + latency + instruction model for one CPU thread."""

    spec: CpuSpec = field(default_factory=CpuSpec)

    def time(self, e: CpuEvents) -> float:
        """Modeled seconds for the given event counts."""
        s = self.spec
        return (
            (e.seq_read_bytes + e.seq_write_bytes) / s.bw_sequential
            + e.random_accesses * s.random_latency
            + e.instructions / s.instr_rate
            + e.log_calls * s.log_cost
        )

    def base_occ_scan_time(self, n_sites: int, matrix_bytes: int) -> float:
        """Formula (1) of the paper: dense matrix scan time estimate."""
        return n_sites * matrix_bytes / self.spec.bw_sequential

    def time_parallel(
        self,
        e: CpuEvents,
        threads: int = 16,
        mem_bw_scale: float = 3.0,
    ) -> float:
        """Modeled seconds with ``threads`` worker threads.

        Compute terms (instructions, log calls) divide by the thread
        count; memory terms only improve by ``mem_bw_scale``, the
        aggregate-over-single-core bandwidth ratio of the Xeon platform.
        This reproduces the paper's observation (Section VI-A) that a
        16-thread SOAPsnp only gains 3-4x "because the algorithm is
        bounded by memory bandwidth".
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        s = self.spec
        mem_scale = min(mem_bw_scale, float(threads))
        return (
            (e.seq_read_bytes + e.seq_write_bytes)
            / (s.bw_sequential * mem_scale)
            + e.random_accesses * s.random_latency / mem_scale
            + e.instructions / (s.instr_rate * threads)
            + e.log_calls * s.log_cost / threads
        )


# ---------------------------------------------------------------------------
# Multi-device pool
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaneUsage:
    """Accumulated modeled work of one scheduler lane (device or CPU)."""

    #: Modeled seconds of on-lane compute (kernel roofline or CPU model),
    #: excluding host<->device transfer time — that is charged to the link.
    compute_seconds: float = 0.0
    #: Host<->device bytes this lane moved over the shared link.
    transfer_bytes: int = 0
    #: Number of individual transfers (each pays link arbitration).
    transfer_count: int = 0


@dataclass(frozen=True)
class PoolCostModel:
    """Makespan model for a device-pool run (one lane per device).

    Lanes compute concurrently, so compute time is the *maximum* over
    lanes; the host link is shared and serializes, so transfer time is
    the *sum* over lanes (total bytes over the one bandwidth, plus
    per-transfer arbitration).  This is deliberately conservative — a
    real node overlaps some transfer with compute — which keeps the
    modeled multi-device speedup a lower bound.
    """

    link: HostLinkSpec = field(default_factory=HostLinkSpec)

    def link_seconds(self, lanes: "list[LaneUsage]") -> float:
        """Serialized time of all lanes' traffic on the shared link."""
        total_bytes = sum(l.transfer_bytes for l in lanes)
        total_count = sum(l.transfer_count for l in lanes)
        return (
            total_bytes / self.link.bandwidth
            + total_count * self.link.per_transfer_overhead
        )

    def makespan(self, lanes: "list[LaneUsage]") -> float:
        """Modeled end-to-end seconds: slowest lane + serialized link."""
        if not lanes:
            return 0.0
        return max(l.compute_seconds for l in lanes) + self.link_seconds(lanes)


def predict_lane_rates(
    n_sites: int,
    read_bases: int,
    gpu: "GpuCostModel | None" = None,
    cpu: "CpuCostModel | None" = None,
) -> tuple[float, float]:
    """Roofline estimate of (GPU, CPU) calling throughput in sites/s.

    The heterogeneous scheduler needs an *initial* device/CPU split
    before any shard has run, so this prices one site on each engine
    from the calibrated per-phase event shapes (the same counters the
    per-run models consume, scaled per site):

    * GPU: each observation costs a handful of warp-instructions in the
      fused likelihood kernel plus ~2 coalesced table transactions per
      site; the roofline takes the max of the two terms.
    * CPU: the sparse SOAPsnp recurrence pays ~2 cache-missing table
      lookups and ~60 scalar instructions per observation plus ~10
      ``log10`` calls per site (the very structure Table III motivates
      removing on the GPU).

    Work stealing corrects any misprediction at runtime — the split
    only seeds the deques — so fidelity here buys balance, not
    correctness.
    """
    gpu = gpu or GpuCostModel()
    cpu = cpu or CpuCostModel()
    n_sites = max(n_sites, 1)
    depth = max(read_bases / n_sites, 1.0)
    # GPU per-site: ~6 warp-instructions per observation across the
    # fused pipeline (1/32 of the scalar count, warp-vectorized), and
    # ~2 table-segment transactions per site of coalesced traffic.
    per_site_inst = 6.0 * depth / gpu.spec.warp_issue_rate
    per_site_mem = 2.0 * gpu.spec.segment_bytes / gpu.spec.bw_coalesced
    gpu_site_seconds = max(per_site_inst, per_site_mem)
    # CPU per-site: latency-priced random lookups dominate, plus the
    # scalar instruction stream and the per-site log calls.
    e = CpuEvents(
        random_accesses=int(2 * depth),
        instructions=int(60 * depth),
        log_calls=10,
    )
    cpu_site_seconds = cpu.time(e)
    return 1.0 / gpu_site_seconds, 1.0 / cpu_site_seconds


def predict_split(
    n_shards: int,
    n_devices: int,
    cpu_steal: bool,
    gpu_rate: float,
    cpu_rate: float,
) -> list[int]:
    """Initial shard counts per lane: ``[gpu_0 .. gpu_{N-1}, cpu?]``.

    Shards are apportioned to lanes in proportion to their predicted
    rates, remainders going to the fastest lanes first.  The counts sum
    to ``n_shards`` exactly; a lane may receive zero.
    """
    if n_shards < 0:
        raise ValueError("n_shards must be non-negative")
    if n_devices < 1:
        raise ValueError("predict_split needs at least one device lane")
    if gpu_rate <= 0 or cpu_rate <= 0:
        raise ValueError("lane rates must be positive")
    rates = [gpu_rate] * n_devices + ([cpu_rate] if cpu_steal else [])
    total = sum(rates)
    counts = [int(n_shards * r / total) for r in rates]
    remainder = n_shards - sum(counts)
    by_speed = sorted(range(len(rates)), key=lambda i: -rates[i])
    i = 0
    while remainder > 0:
        counts[by_speed[i % len(by_speed)]] += 1
        remainder -= 1
        i += 1
    return counts


# ---------------------------------------------------------------------------
# Disk
# ---------------------------------------------------------------------------


@dataclass
class DiskEvents:
    """Event counts for a disk I/O phase."""

    read_bytes: int = 0
    read_buffered_bytes: int = 0
    write_bytes: int = 0
    parsed_bytes: int = 0
    formatted_bytes: int = 0

    def merge(self, other: "DiskEvents") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def scaled(self, factor: float) -> "DiskEvents":
        return DiskEvents(
            **{
                f.name: int(getattr(self, f.name) * factor)
                for f in fields(self)
            }
        )


@dataclass(frozen=True)
class DiskModel:
    """Sequential-disk + text parse/format cost model."""

    spec: DiskSpec = field(default_factory=DiskSpec)

    def time(self, e: DiskEvents) -> float:
        s = self.spec
        return (
            e.read_bytes / s.bw_sequential
            + e.read_buffered_bytes / s.bw_buffered
            + e.write_bytes / s.bw_sequential
            + e.parsed_bytes * s.parse_cost_per_byte
            + e.formatted_bytes * s.format_cost_per_byte
        )
