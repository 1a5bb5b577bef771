"""The simulated GPU device: allocation, transfers, and kernel launches.

A :class:`Device` owns simulated global and constant memory, a
:class:`~repro.gpusim.counters.CounterBook` accumulating per-kernel hardware
counters, and a transfer log accounting host<->device PCIe traffic.  It is
the single object a pipeline threads through all GPU-side components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import AllocationError, DeviceError
from ..faults.plan import fault_point
from .counters import CounterBook, KernelCounters
from .kernel import KernelContext
from .memory import DeviceArray
from .spec import GpuSpec


@dataclass
class TransferLog:
    """Accumulated host<->device transfer volume."""

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_count: int = 0
    d2h_count: int = 0

    def reset(self) -> None:
        self.h2d_bytes = self.d2h_bytes = 0
        self.h2d_count = self.d2h_count = 0


@dataclass
class Device:
    """A simulated GPU.

    Parameters
    ----------
    spec:
        Hardware description; defaults to the paper's Tesla M2050.
    enforce_memory:
        When true, allocations beyond ``spec.global_mem_bytes`` raise
        :class:`AllocationError` (mirrors a real ``cudaMalloc`` failure).
    sanitize:
        When true, runs every kernel under the runtime sanitizer
        (:mod:`repro.analyze.sanitize`): write-write race and
        read-after-write hazard detection, gstore/gatomic mixing checks,
        and uninitialized-read detection via per-array shadow bitmaps.
        Results are bitwise identical to a non-sanitized run; violations
        raise :class:`~repro.errors.SanitizerError`.
    device_id:
        Stable identity of this device within its pool (0 for a
        standalone device).  Residency cache keys include it so two pool
        devices never alias each other's uploads.
    """

    spec: GpuSpec = field(default_factory=GpuSpec)
    enforce_memory: bool = True
    sanitize: bool = False
    device_id: int = 0
    counters: CounterBook = field(init=False)
    transfers: TransferLog = field(default_factory=TransferLog)

    def __post_init__(self) -> None:
        self.counters = CounterBook(num_sms=self.spec.num_sms)
        self._global_used = 0
        self._constant_used = 0
        self._arrays: list[DeviceArray] = []
        # The one slot for allocations that outlive one pipeline run (the
        # score tables); see repro.gpusim.residency.
        from .residency import DeviceResidency

        self.resident = DeviceResidency(self)
        if self.sanitize:
            from ..analyze.sanitize import Sanitizer

            self.sanitizer = Sanitizer(self)
        else:
            self.sanitizer = None

    # -- memory management -------------------------------------------------

    @property
    def global_used(self) -> int:
        """Bytes currently allocated in global memory."""
        return self._global_used

    @property
    def constant_used(self) -> int:
        """Bytes currently allocated in constant memory."""
        return self._constant_used

    @property
    def peak_global_used(self) -> int:
        """High-water mark of global memory usage."""
        return self._peak

    _peak: int = 0

    def alloc(
        self,
        shape,
        dtype,
        name: str = "anon",
        space: str = "global",
        init: bool = True,
        value_free: bool = False,
    ) -> DeviceArray:
        """Allocate a device array.

        With ``init=True`` (default) the array is zero-initialized, like a
        ``cudaMemset``-cleared buffer.  ``init=False`` models a raw
        ``cudaMalloc``: the contents are still deterministic zeros (the
        simulator never produces garbage), but under ``sanitize=True``
        reading an element before any kernel stores to it is reported as
        an uninitialized read.

        ``value_free=True`` is for an array whose values no output depends
        on (see :class:`~repro.gpusim.memory.DeviceArray`): it is charged
        in full but, off the sanitizer, backed by no store.
        """
        if value_free and not self.sanitize:
            data = np.broadcast_to(np.zeros((), dtype=dtype), shape)
        else:
            data = np.zeros(shape, dtype=dtype)
        return self._register(
            DeviceArray(name, data, space, self, value_free=value_free),
            initialized=init,
        )

    def to_device(
        self, host: np.ndarray, name: str = "anon", space: str = "global"
    ) -> DeviceArray:
        """Copy a host array to the device, accounting PCIe traffic."""
        host = np.ascontiguousarray(host)
        arr = self._register(DeviceArray(name, host.copy(), space, self))
        arr._writes += 1
        self.transfers.h2d_bytes += host.nbytes
        self.transfers.h2d_count += 1
        return arr

    def to_constant(self, host: np.ndarray, name: str = "anon") -> DeviceArray:
        """Upload a table to constant memory (capacity-checked)."""
        if (
            self.enforce_memory
            and self._constant_used + host.nbytes > self.spec.constant_mem_bytes
        ):
            raise AllocationError(
                f"constant memory overflow: {host.nbytes} bytes for "
                f"{name!r} on top of {self._constant_used} used "
                f"(capacity {self.spec.constant_mem_bytes})"
            )
        return self.to_device(host, name, space="constant")

    def from_device(self, arr: DeviceArray) -> np.ndarray:
        """Copy a device array back to the host, accounting PCIe traffic."""
        arr.require_live()
        arr._require_values()
        self.transfers.d2h_bytes += arr.nbytes
        self.transfers.d2h_count += 1
        return arr.data.copy()

    def free(self, arr: DeviceArray) -> None:
        """Release a device array (subsequent kernel use raises)."""
        if arr.freed:
            raise DeviceError(f"double free of {arr.name!r}")
        if arr.space == "global":
            self._global_used -= arr.nbytes
        else:
            self._constant_used -= arr.nbytes
        arr._freed = True
        arr._data = np.empty(0, dtype=arr._data.dtype)
        arr._shadow = None

    def _register(
        self, arr: DeviceArray, initialized: bool = True
    ) -> DeviceArray:
        # Chaos site: a scheduled plan can make this allocation fail with
        # AllocationError, exercising the degradation rung that re-runs
        # the shard on a fresh fusion=False pipeline.
        fault_point("gpusim.device.alloc", key=arr.name)
        if arr.space == "global":
            if (
                self.enforce_memory
                and self._global_used + arr.nbytes > self.spec.global_mem_bytes
            ):
                raise AllocationError(
                    f"global memory overflow: {arr.nbytes} bytes for "
                    f"{arr.name!r} on top of {self._global_used} used "
                    f"(capacity {self.spec.global_mem_bytes})"
                )
            self._global_used += arr.nbytes
            self._peak = max(self._peak, self._global_used)
        else:
            if (
                self.enforce_memory
                and self._constant_used + arr.nbytes
                > self.spec.constant_mem_bytes
            ):
                raise AllocationError("constant memory overflow")
            self._constant_used += arr.nbytes
        if self.sanitize:
            arr.enable_shadow(initialized)
        self._arrays.append(arr)
        return arr

    # -- kernel launches ----------------------------------------------------

    def launch(
        self,
        kernel: Callable,
        n_threads: int,
        *args,
        name: Optional[str] = None,
        block_size: int = 256,
        shared_bytes: int = 0,
        **kwargs,
    ):
        """Launch a warp-vectorized kernel over ``n_threads`` threads.

        The kernel is an ordinary Python callable
        ``kernel(ctx, *args, **kwargs)`` whose body operates on all threads
        at once (NumPy vectors indexed by ``ctx.tid``) and routes device
        memory accesses through ``ctx``.  Counters accumulate into this
        device's book under ``name`` (default: the callable's name).
        """
        if n_threads < 0:
            raise DeviceError("n_threads must be non-negative")
        if block_size <= 0 or block_size % self.spec.warp_size:
            raise DeviceError(
                f"block_size must be a positive multiple of warp size "
                f"{self.spec.warp_size}, got {block_size}"
            )
        if shared_bytes > self.spec.shared_mem_per_block:
            raise DeviceError(
                f"requested {shared_bytes} bytes of shared memory; the "
                f"device offers {self.spec.shared_mem_per_block} per block"
            )
        kname = name or getattr(kernel, "__name__", "kernel")
        book_entry = self.counters.get(kname)
        local = KernelCounters(name=kname, num_sms=self.spec.num_sms)
        local.launches = 1
        ctx = KernelContext(
            device=self,
            counters=local,
            n_threads=n_threads,
            block_size=block_size,
        )
        san = self.sanitizer
        if san is not None:
            san.begin_launch(kname)
        try:
            result = kernel(ctx, *args, **kwargs)
        finally:
            if san is not None:
                san.end_launch()
        book_entry.merge(local)
        return result

    def reset_counters(self) -> None:
        """Drop accumulated counters and transfer statistics."""
        self.counters.reset()
        self.transfers.reset()

    # -- sanitizer teardown --------------------------------------------------

    def sanitize_teardown(self, strict: bool = False):
        """Run the device-teardown leak check.

        Returns the list of :class:`~repro.analyze.sanitize.SanitizerIssue`
        for arrays never freed and arrays written but never read.  With
        ``strict=True`` a non-empty report raises
        :class:`~repro.errors.SanitizerError`.  Available on any device —
        the underlying read/write tallies are kept even without
        ``sanitize=True``.
        """
        from ..analyze.sanitize import teardown_issues

        issues = teardown_issues(self)
        if strict and issues:
            from ..errors import SanitizerError

            raise SanitizerError(
                "device teardown check failed:\n"
                + "\n".join(str(i) for i in issues),
                issues=issues,
            )
        return issues
