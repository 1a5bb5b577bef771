"""Hardware specifications for the simulated platform.

The defaults replicate the evaluation platform of Section VI-A: a Dell
PowerEdge M610x with an NVIDIA Tesla M2050 GPU and Intel Xeon E5630 CPUs.
All bandwidth figures are the *measured* numbers the paper reports, because
the paper's own analytical estimate (Formula 1) is built on them; using the
same constants lets our cost model reproduce the paper's reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a simulated GPU.

    Attributes mirror the quantities the paper uses when reasoning about
    performance: memory bandwidths for coalesced vs. random access, the
    warp width that drives coalescing analysis, shared/constant memory
    capacities that constrain kernel design, and an instruction issue rate
    used by the roofline cost model.
    """

    name: str = "NVIDIA Tesla M2050"
    num_sms: int = 14
    cores: int = 448
    warp_size: int = 32
    clock_ghz: float = 1.15
    global_mem_bytes: int = 3 * 1024**3
    shared_mem_per_block: int = 48 * 1024
    constant_mem_bytes: int = 64 * 1024
    l1_bytes: int = 48 * 1024
    l2_bytes: int = 768 * 1024
    #: Measured bandwidth for fully coalesced access (Section VI-A).
    bw_coalesced: float = 82e9
    #: Measured bandwidth for random access (Section VI-A).
    bw_random: float = 3.2e9
    #: Memory transaction (cache line / segment) size in bytes.
    segment_bytes: int = 128
    #: Warp-instruction issue rate of the whole chip (warp-instructions/s).
    #: 448 cores * 1.15 GHz / 32 lanes = one warp-instruction per SM-cycle.
    warp_issue_rate: float = 448 * 1.15e9 / 32
    #: Fixed overhead per kernel launch (seconds).
    launch_overhead: float = 5e-6
    #: Host <-> device transfer bandwidth (PCIe gen2 x16, effective).
    pcie_bandwidth: float = 5e9
    #: Shared-memory access throughput (accesses/s, whole chip).
    shared_access_rate: float = 448 * 1.15e9


@dataclass(frozen=True)
class HostLinkSpec:
    """The shared host<->device interconnect of a multi-GPU node.

    :class:`~repro.gpusim.costmodel.PoolCostModel` prices a device
    pool's summed transfers on one link built from this spec.  The model
    is the one SOAP3-dp's multi-GPU split assumes: each PCIe slot may be
    x16, but all slots funnel through one I/O hub and host-memory
    controller, so *concurrent* transfers from N devices serialize
    against the shared ``bandwidth`` rather than scaling it by N.  Every
    transfer additionally pays ``per_transfer_overhead`` (DMA setup and
    arbitration), which is what makes many small uploads more expensive
    than one large one even at equal byte counts.
    """

    #: Aggregate host<->device bandwidth of the shared link (bytes/s).
    #: Defaults to the single-slot PCIe gen2 x16 effective rate — the
    #: conservative "all slots share one hub" assumption.
    bandwidth: float = 5e9
    #: Fixed serialized cost per individual transfer (seconds).
    per_transfer_overhead: float = 10e-6


@dataclass(frozen=True)
class CpuSpec:
    """Static description of the host CPU used by the CPU cost model."""

    name: str = "Intel Xeon E5630 2.53 GHz"
    cores: int = 8
    threads: int = 16
    clock_ghz: float = 2.53
    main_mem_bytes: int = 64 * 1024**3
    #: Measured sequential main-memory bandwidth (Section VI-A).
    bw_sequential: float = 4.2e9
    #: Latency of a cache-missing random access (seconds).
    random_latency: float = 60e-9
    #: Sustained simple-instruction throughput for one thread (ops/s).
    instr_rate: float = 2.0e9
    #: Cost of one scalar ``log10`` call (seconds).
    log_cost: float = 30e-9


@dataclass(frozen=True)
class DiskSpec:
    """Static description of the disk and the text I/O path."""

    #: Measured sequential disk bandwidth (Section VI-A).
    bw_sequential: float = 90e6
    #: Effective bandwidth when the OS page cache absorbs a re-read
    #: (the paper notes read_site benefits from OS buffering).
    bw_buffered: float = 150e6
    #: CPU cost of formatting one output byte of plain text (seconds).
    format_cost_per_byte: float = 20e-9
    #: CPU cost of parsing one input byte of plain text (seconds).
    parse_cost_per_byte: float = 10e-9


@dataclass(frozen=True)
class PlatformSpec:
    """The full evaluation platform: GPU + CPU + disk."""

    gpu: GpuSpec = field(default_factory=GpuSpec)
    cpu: CpuSpec = field(default_factory=CpuSpec)
    disk: DiskSpec = field(default_factory=DiskSpec)


#: Effective CPU compression throughput (bytes/s) for the output codec
#: when it runs on the host instead of the device.  Section V-B motivates
#: moving RLE+DICT onto the GPU precisely because the CPU-side encoder
#: sustains only on the order of the sequential disk bandwidth it feeds
#: (~90 MB/s on the Xeon E5630 testbed), so host compression would gate
#: the whole output phase.  The pipeline charges this rate for the
#: residual host-side encode work.
CPU_COMPRESS_BW = 90e6

#: The default platform, replicating the paper's testbed.
BGI_PLATFORM = PlatformSpec()
