"""CUDA-Visual-Profiler-style hardware counters for simulated kernels.

Table III of the paper reports five counters for ``likelihood_comp``:
``#inst. PW``, ``#g_load``, ``#g_store``, ``#s_load PW`` and ``#s_store PW``,
where *PW* means the counter is given per warp on one multiprocessor.
:class:`KernelCounters` accumulates the raw quantities during simulated
execution; the ``*_pw`` properties apply the same normalization so benchmark
output is directly comparable with the paper's table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter


#: Every additive counter of :class:`KernelCounters`: what a merge sums,
#: a scope's delta subtracts and a scaled record multiplies.
COUNTER_FIELDS = (
    "launches", "inst_warp", "g_load", "g_store", "g_load_bytes",
    "g_store_bytes", "s_load_warp", "s_store_warp", "c_load",
)

_COUNTS = attrgetter(*COUNTER_FIELDS)


@dataclass
class KernelCounters:
    """Mutable counter set for one kernel (or one accumulation scope)."""

    name: str = ""
    #: Number of simulated kernel launches folded into this counter set.
    launches: int = 0
    #: Total warp-instructions issued (one vector op over a warp = 1).
    inst_warp: int = 0
    #: Global-memory load transactions (128-byte segments).
    g_load: int = 0
    #: Global-memory store transactions (128-byte segments).
    g_store: int = 0
    #: Bytes actually requested by global loads (useful bytes).
    g_load_bytes: int = 0
    #: Bytes actually requested by global stores (useful bytes).
    g_store_bytes: int = 0
    #: Shared-memory load operations, per warp.
    s_load_warp: int = 0
    #: Shared-memory store operations, per warp.
    s_store_warp: int = 0
    #: Constant-memory load operations (cached, cheap).
    c_load: int = 0
    #: Number of multiprocessors used for the PW normalization.
    num_sms: int = 14

    def _is_empty(self) -> bool:
        return not any(getattr(self, f) for f in COUNTER_FIELDS)

    def bump_global(
        self,
        load_tx: int = 0,
        store_tx: int = 0,
        load_bytes: int = 0,
        store_bytes: int = 0,
        inst: int = 0,
    ) -> None:
        """Fold one memory op's whole counter delta in a single call.

        The per-access hot path of :class:`~repro.gpusim.kernel.KernelContext`
        batches its transaction/byte/instruction updates through here.
        """
        self.g_load += load_tx
        self.g_store += store_tx
        self.g_load_bytes += load_bytes
        self.g_store_bytes += store_bytes
        self.inst_warp += inst

    def merge(self, other: "KernelCounters") -> None:
        """Fold another counter set into this one.

        The ``*_pw`` views divide by ``num_sms``, so counters gathered on
        devices with different multiprocessor counts must never be summed:
        a still-empty accumulator adopts the other side's ``num_sms``,
        while folding two non-empty mismatched sets raises.
        """
        if self.num_sms != other.num_sms and not other._is_empty():
            if self._is_empty():
                self.num_sms = other.num_sms
            else:
                from ..errors import DeviceError

                raise DeviceError(
                    f"cannot merge counters for {other.name or self.name!r} "
                    f"across device specs: num_sms {self.num_sms} != "
                    f"{other.num_sms} (PW normalization would be wrong)"
                )
        for f in COUNTER_FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))

    # -- Paper-style per-warp views -------------------------------------

    @property
    def inst_pw(self) -> float:
        """``#inst. PW``: warp-instructions per multiprocessor."""
        return self.inst_warp / self.num_sms

    @property
    def s_load_pw(self) -> float:
        """``#s_load PW``: shared loads per warp per multiprocessor."""
        return self.s_load_warp / self.num_sms

    @property
    def s_store_pw(self) -> float:
        """``#s_store PW``: shared stores per warp per multiprocessor."""
        return self.s_store_warp / self.num_sms

    def as_dict(self) -> dict[str, float]:
        """Return the Table-III-style view of this counter set."""
        return {
            "inst_pw": self.inst_pw,
            "g_load": float(self.g_load),
            "g_store": float(self.g_store),
            "s_load_pw": self.s_load_pw,
            "s_store_pw": self.s_store_pw,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        d = self.as_dict()
        body = ", ".join(f"{k}={v:.3g}" for k, v in d.items())
        return f"KernelCounters({self.name}: {body})"


@dataclass
class CounterBook:
    """A named collection of :class:`KernelCounters`, one per kernel.

    A :class:`~repro.gpusim.device.Device` owns one book; every launch
    accumulates into the entry matching the kernel name, so a pipeline can
    report per-kernel totals at the end of a run.
    """

    num_sms: int = 14
    entries: dict[str, KernelCounters] = field(default_factory=dict)

    def get(self, name: str) -> KernelCounters:
        """Return (creating if needed) the counters for ``name``."""
        if name not in self.entries:
            self.entries[name] = KernelCounters(name=name, num_sms=self.num_sms)
        return self.entries[name]

    def total(self) -> KernelCounters:
        """Return the sum over all kernels."""
        out = KernelCounters(name="total", num_sms=self.num_sms)
        for c in self.entries.values():
            out.merge(c)
        return out

    def sums(self) -> tuple[int, ...]:
        """The :data:`COUNTER_FIELDS` of :meth:`total`, summed in one pass
        without building it: a scope's snapshot."""
        rows = [_COUNTS(c) for c in self.entries.values()]
        return tuple(map(sum, zip(*rows))) or (0,) * len(COUNTER_FIELDS)

    @property
    def launches(self) -> int:
        """Launches over every kernel."""
        return sum(c.launches for c in self.entries.values())

    def reset(self) -> None:
        """Drop all accumulated counters."""
        self.entries.clear()
