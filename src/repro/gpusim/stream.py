"""In-order device work queues (the CUDA-stream launch interface).

The window-pipelined throughput engine expresses each phase's kernel
sequence as launches enqueued on a :class:`DeviceStream`.  The simulator
executes kernels eagerly and deterministically — there is no device-side
asynchrony to model — so a stream is a thin in-order delegate to
:meth:`~repro.gpusim.device.Device.launch` with identical counter
semantics.  It exists so pipeline code states which launches form one
ordered sequence (the shape real CUDA streaming requires), and so tooling
can find kernels statically: ``gsnp audit`` treats the first argument of
``*.enqueue(...)`` exactly like the first argument of ``*.launch(...)``.
"""

from __future__ import annotations

from typing import Callable

from .device import Device


class DeviceStream:
    """An ordered kernel queue bound to one :class:`Device`.

    ``enqueue`` has the signature and accounting of ``Device.launch``;
    ``synchronize`` is a no-op barrier (eager execution leaves nothing
    pending) kept so pipeline code reads like the CUDA idiom it models.
    """

    def __init__(self, device: Device) -> None:
        self.device = device
        #: Number of kernels enqueued on this stream.
        self.launches = 0

    def enqueue(self, kernel: Callable, n_threads: int, *args, **kwargs):
        """Launch ``kernel`` in stream order (eager, fully accounted).

        On a pooled device the launch command itself is also noted on
        the shared :class:`~repro.gpusim.pool.HostLink`: command traffic
        crosses the same hub as data transfers, and the per-device tally
        feeds the pool's contention stats.
        """
        self.launches += 1
        if self.device.link is not None:
            self.device.link.note_launch(self.device.device_id)
        return self.device.launch(kernel, n_threads, *args, **kwargs)

    def synchronize(self) -> None:
        """Wait for enqueued work — immediate, since execution is eager."""
        return None


__all__ = ["DeviceStream"]
