"""Warp-vectorized kernel execution context.

Simulated kernels follow the *lockstep* idiom: instead of running one Python
function per thread (hopelessly slow), the kernel body is written once and
operates on NumPy vectors indexed by thread id — exactly the mental model of
SIMT execution, and exactly the "vectorize your loops" idiom the scientific
Python optimization guide prescribes.  Every device-memory access goes
through the :class:`KernelContext`, which

* performs the real gather/scatter on the backing NumPy array (a
  value-free array has none: its loads return ``fill`` and its stores
  write nothing), and
* runs per-warp coalescing analysis so the device's hardware counters
  reflect what a Fermi GPU would have done.

Inactive lanes are expressed with an ``active`` boolean mask (the SIMT
equivalent of a divergent branch): masked lanes read as 0 and issue no
transactions, but the warp still issues the instruction.

An op may also take a ``(steps, n_threads)`` index or mask, one row per
lockstep step (a *step block*): it charges exactly its per-row ops, each
row padded with dead lanes to whole warps.  Step blocks run only off the
sanitizer and the op observer.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import KernelError
from .counters import KernelCounters
from .memory import DeviceArray, count_transactions


@dataclass(frozen=True)
class OpRecord:
    """One routed memory op as observed at runtime.

    The coalescing replay (``tests/test_analyze_audit.py``) collects these
    and checks them against the static coalescing verdicts: ``(file,
    line)`` keys the record back to the audited source op.
    """

    kind: str            # gload|gstore|gatomic_add|cload
    file: str            # source file of the kernel call site
    line: int            # line of the call site
    kernel: str          # launch name (KernelCounters.name)
    array: str           # device array name
    tx: int              # memory transactions issued (0 for cload)
    n_live: int          # live lanes
    warps: int           # warps with at least one live lane
    n_threads: int
    warp_size: int
    itemsize: int
    segment_bytes: int


#: The op observer of the current context (``None``: none), set by
#: :func:`op_observer`.  A new thread starts with none, and each
#: :class:`KernelContext` reads it once, when it is built.
_OBSERVER: ContextVar[Optional[Callable[[OpRecord], None]]] = ContextVar(
    "gsnp_op_observer", default=None
)


@contextmanager
def op_observer(fn: Callable[[OpRecord], None]):
    """``with op_observer(fn): ...`` — every op the block's kernels route
    on this thread is reported to ``fn``; restored on exit."""
    token = _OBSERVER.set(fn)
    try:
        yield fn
    finally:
        _OBSERVER.reset(token)


def require_global(arr: DeviceArray) -> None:
    """Raise as a routed global op does on ``arr``: :class:`DeviceError`
    when it is freed, :class:`KernelError` when it is not in global
    memory."""
    arr.require_live()
    if arr.space != "global":
        raise KernelError(
            f"global access to array {arr.name!r} in space {arr.space!r}"
        )


def _fan_gather(flat: np.ndarray, rows: np.ndarray, fan: np.ndarray):
    """``flat[rows[:, None] + fan]`` for in-bounds rows; an evenly spaced
    ``fan`` gathers whole rows of a strided window view instead of
    building the index matrix."""
    step = int(fan[1] - fan[0]) if fan.size > 1 else 1
    if fan[0] < 0 or step < 1 or (
        fan.size > 2 and (np.diff(fan) != step).any()
    ):
        return flat[rows[:, None] + fan[None, :]]
    window = np.lib.stride_tricks.as_strided(
        flat[int(fan[0]):], shape=(flat.size - int(fan[-1]), fan.size),
        strides=(flat.strides[0], step * flat.strides[0]), writeable=False,
    )
    return window[rows]


class KernelContext:
    """Execution context handed to a simulated kernel body."""

    def __init__(
        self,
        device,
        counters: KernelCounters,
        n_threads: int,
        block_size: int = 256,
    ) -> None:
        self.device = device
        self.counters = counters
        self.n_threads = int(n_threads)
        self.block_size = int(block_size)
        self.warp_size = device.spec.warp_size
        #: Runtime sanitizer, or None (``Device(sanitize=True)`` sets it).
        self.sanitizer = getattr(device, "sanitizer", None)
        #: Op observer of the launching context, or None (:func:`op_observer`).
        self.observer = _OBSERVER.get()
        #: Global thread ids, the vector every kernel body indexes with.
        self.tid = np.arange(self.n_threads, dtype=np.int64)
        # Per-mask-object memo of (mask object, bool vector, active warps).
        # Kernels reuse one mask across many accesses (the comp kernel's
        # j-loop issues a dozen ops per mask), so the pad/reshape/any scan
        # runs once per mask instead of once per access.  The strong
        # reference pins each memoized mask, so an ``id`` can never be
        # recycled to a different object; masks must not be mutated in
        # place between accesses (lockstep kernels build fresh masks).
        self._mask_memo: dict[int, tuple] = {}
        # The last op's (index, mask, itemsize, transactions), and the step
        # blocks' padded row, flat launches, flat masks and last index.
        self._last_tx: tuple = (None, None, 0, 0)
        self._row_lanes = self.n_warps * self.warp_size
        self._views: dict[int, KernelContext] = {}
        self._block_masks: dict[tuple, tuple] = {}
        self._last_block: tuple = (None, None)

    # -- helpers ------------------------------------------------------------

    @property
    def n_warps(self) -> int:
        """Number of warps in this launch (ceil division)."""
        return -(-self.n_threads // self.warp_size)

    def _active_info(
        self, active: Optional[np.ndarray]
    ) -> tuple[Optional[np.ndarray], int]:
        """(bool mask or None, active-warp count), memoized per mask object.

        A mask with every lane live collapses to ``None``: masking with an
        all-true vector is the identity, so the downstream ops can take
        their unmasked shortcut (results and counters are unchanged — every
        warp has an active lane either way).
        """
        if active is None:
            return None, self.n_warps
        memo = self._mask_memo.get(id(active))
        if memo is not None and memo[0] is active:
            return memo[1], memo[2]
        act = np.asarray(active, dtype=bool).ravel()
        if act.size != self.n_threads:
            raise KernelError(
                f"active mask has {act.size} lanes, launch has "
                f"{self.n_threads} threads"
            )
        if act.all():
            out: tuple[Optional[np.ndarray], int] = (None, self.n_warps)
        else:
            pad = (-act.size) % self.warp_size
            padded = act
            if pad:
                padded = np.concatenate([act, np.zeros(pad, dtype=bool)])
            warps = int(padded.reshape(-1, self.warp_size).any(axis=1).sum())
            out = (act, warps)
        self._mask_memo[id(active)] = (active, out[0], out[1])
        return out

    def _active_warps(self, active: Optional[np.ndarray]) -> int:
        """Warps with at least one active lane (these issue instructions)."""
        return self._active_info(active)[1]

    def _op_info(
        self, idx: np.ndarray, active: Optional[np.ndarray]
    ) -> tuple[np.ndarray, Optional[np.ndarray], int, int]:
        """Per-access bookkeeping, computed once and shared by the op.

        Returns ``(midx, live, n_live, active_warps)`` where ``live`` is
        ``None`` when every lane is live (the all-live fast path: no boolean
        scatter needed).  ``live`` stays materialized whenever the sanitizer
        runs, since its hooks consume the mask.
        """
        act, warps = self._active_info(active)
        is_tid = idx is self.tid
        idx = np.asarray(idx, dtype=np.int64).ravel()
        if idx.size != self.n_threads:
            raise KernelError(
                f"index vector has {idx.size} lanes, launch has "
                f"{self.n_threads} threads"
            )
        if act is None:
            if (
                self.sanitizer is None
                and idx.size
                and (is_tid or int(idx.min()) >= 0)
            ):
                return idx, None, idx.size, warps
            live = idx >= 0
            return idx, live, int(np.count_nonzero(live)), warps
        # A surviving mask has a dead lane (all-true masks collapsed to
        # None above), so the all-live shortcut can never apply here.
        midx = np.where(act, idx, -1)
        live = midx >= 0
        return midx, live, int(np.count_nonzero(live)), warps

    def _count(self, idx, active, arr: DeviceArray, midx, live) -> int:
        """Transactions of one op; the same index and mask objects on an
        array of the same itemsize as the op before (a read-modify-write
        pair) reuse its count: index vectors, like masks, are never
        mutated in place."""
        last = self._last_tx
        if last[0] is idx and last[1] is active and last[2] == arr.itemsize:
            return last[3]
        tx = count_transactions(
            midx, arr.itemsize, self.warp_size,
            self.device.spec.segment_bytes, all_live=live is None,
        )
        self._last_tx = (idx, active, arr.itemsize, tx)
        return tx

    # -- step blocks ----------------------------------------------------------

    def _view(self, steps: int) -> "KernelContext":
        """The flat launch of a ``steps``-row block: rows of
        ``_row_lanes`` lanes back to back, so no warp spans two steps."""
        if steps not in self._views:
            self._views[steps] = KernelContext(
                self.device, self.counters, steps * self._row_lanes,
            )
        return self._views[steps]

    def _flat(self, a, steps: int, fill) -> np.ndarray:
        """A block operand (one row, or one per step) as the view's flat
        vector: each row padded to ``_row_lanes`` with ``fill``."""
        a = np.asarray(a)
        if a.shape[-1:] != (self.n_threads,) or a.ndim > 2 or (
            a.ndim == 2 and a.shape[0] != steps
        ):
            raise KernelError(
                f"block operand of shape {a.shape} in a {steps}-step block "
                f"of {self.n_threads} threads"
            )
        out = np.full((steps, self._row_lanes), fill, dtype=a.dtype)
        out[:, : self.n_threads] = a
        return out.reshape(-1)

    def _block_mask(self, active, steps: int) -> np.ndarray:
        """The flat mask of a block op (pad lanes dead), memoized per mask
        object like ``_mask_memo``, so the view's memo hits too."""
        memo = self._block_masks.get((id(active), steps))
        if memo is None or memo[0] is not active:
            live = np.ones(self.n_threads, bool) if active is None else active
            flat = self._flat(np.asarray(live, dtype=bool), steps, False)
            memo = self._block_masks[(id(active), steps)] = (active, flat)
        return memo[1]

    def _block_index(self, idx, steps: int) -> np.ndarray:
        """The flat index of a block op (pad lanes -1); the op after it
        reuses it (a read-modify-write pair shares its count)."""
        if self._last_block[0] is not idx:
            flat = self._flat(np.asarray(idx, dtype=np.int64), steps, -1)
            self._last_block = (idx, flat)
        return self._last_block[1]

    @staticmethod
    def _steps(*operands) -> int:
        """Rows of a block op (the first 2-D operand's), or 0 for a 1-D op."""
        for a in operands:
            if getattr(a, "ndim", 0) == 2:
                return a.shape[0]
        return 0

    def _block_op(self, op: str, steps: int, arr, idx, active, *args, fan=None):
        """Run ``op`` on a ``steps``-row block as one op of the flat view,
        with the per-row tallies.  Under a sanitizer or an op observer it
        is a :class:`KernelError`: replayed row by row, a block's ops would
        reach the hooks out of the kernel's step order (every row's load
        before any row's store)."""
        if self.sanitizer is not None or self.observer is not None:
            raise KernelError(f"{op} on a {steps}-step block: step blocks "
                              "run only off the sanitizer and op observer")
        load = op in ("gload", "cload")
        kw = {} if fan is None else {"fan": fan}
        if not load:
            args = (np.broadcast_to(np.asarray(args[0]),
                                    (steps, self.n_threads)),)
        view = self._view(steps)
        flat_idx = self._block_index(idx, steps)
        flat_act = self._block_mask(active, steps)
        if load:
            out = getattr(view, op)(arr, flat_idx, flat_act, *args, **kw)
            arr._kernel_reads += (steps - 1) * (1 if fan is None else np.size(fan))
            return out.reshape(steps, self._row_lanes, *out.shape[1:])[
                :, : self.n_threads
            ]
        getattr(view, op)(arr, flat_idx, self._flat(args[0], steps, 0), flat_act)
        arr._writes += steps - 1
        return None

    # -- instruction accounting ----------------------------------------------

    def instr(self, per_thread: int, active: Optional[np.ndarray] = None) -> None:
        """Account ``per_thread`` arithmetic/logic instructions.

        In SIMT, a warp with any active lane issues the instruction for the
        whole warp — branch divergence costs the full warp, which is why the
        paper's sparse packing (all lanes doing identical work on packed
        non-zeros) matters.
        """
        steps = self._steps(active)
        if steps:
            self._view(steps).instr(per_thread, self._block_mask(active, steps))
            return
        self.counters.inst_warp += int(per_thread) * self._active_warps(active)

    def syncthreads(self) -> None:
        """A block-wide barrier (``__syncthreads()``).

        Establishes memory ordering between the stores before it and the
        loads after it, which is what the runtime sanitizer's race and
        hazard windows key on.  No instructions are charged here: kernels
        that need barriers already fold the cost into their per-step
        ``instr`` constants (see the batch bitonic kernel).
        """
        if self.sanitizer is not None:
            self.sanitizer.barrier()

    def note_shared(
        self,
        loads: int = 0,
        stores: int = 0,
        active: Optional[np.ndarray] = None,
    ) -> None:
        """Account shared-memory traffic (per-thread op counts)."""
        steps = self._steps(active)
        if steps:
            self._view(steps).note_shared(
                loads, stores, self._block_mask(active, steps)
            )
            return
        w = self._active_warps(active)
        self.counters.s_load_warp += int(loads) * w
        self.counters.s_store_warp += int(stores) * w

    def _observe(
        self, kind: str, arr: DeviceArray, tx: int, n_live: int, warps: int,
    ) -> None:
        """Report one routed op to the calibration observer.

        Only called when an observer is installed; the first frame outside
        this module is the kernel body line that issued the op.
        """
        frame = sys._getframe(2)
        while frame.f_code.co_filename == __file__:
            frame = frame.f_back
        self.observer(OpRecord(
            kind=kind,
            file=frame.f_code.co_filename,
            line=frame.f_lineno,
            kernel=self.counters.name,
            array=arr.name,
            tx=int(tx),
            n_live=int(n_live),
            warps=int(warps),
            n_threads=self.n_threads,
            warp_size=self.warp_size,
            itemsize=int(arr.itemsize),
            segment_bytes=int(self.device.spec.segment_bytes),
        ))

    # -- global memory --------------------------------------------------------

    def gload(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        active: Optional[np.ndarray] = None,
        fill=0,
        fan: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-thread gather from global memory with coalescing analysis.

        ``idx[t]`` is the flat element index read by thread ``t``; inactive
        lanes receive ``fill``.

        ``fan`` (element offsets) makes this a fan-out gather: the result is
        ``(n_threads, len(fan))`` with column ``i`` equal to
        ``gload(arr, idx + fan[i], active, fill)``, and the op charges
        exactly the sum of those per-offset calls.  The transaction count
        takes one per-warp sort for all offsets; under the sanitizer or the
        calibration observer the op replays the per-offset loads, so every
        hook and ``OpRecord`` still sees one access per offset.  A step
        block returns ``(steps, n_threads[, len(fan)])``.
        """
        steps = self._steps(idx, active)
        if steps:
            return self._block_op(
                "gload", steps, arr, idx, active, fill, fan=fan
            )
        if fan is not None:
            return self._gload_fan(arr, idx, active, fill, fan)
        return self._gload(arr, idx, active, fill)

    def _gload(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        active: Optional[np.ndarray],
        fill,
    ) -> np.ndarray:
        self._check_global(arr)
        midx, live, n_live, warps = self._op_info(idx, active)
        tx = self._count(idx, active, arr, midx, live)
        self.counters.bump_global(
            load_tx=tx, load_bytes=n_live * arr.itemsize, inst=warps
        )
        if self.observer is not None:
            self._observe("gload", arr, tx, n_live, warps)
        if not arr._stored:
            # Value-free array: charged and checked, nothing to read.
            self._bounds_check(arr, midx if live is None else midx[live])
            arr._kernel_reads += 1
            return np.full(self.n_threads, fill, dtype=arr.dtype)
        flat = arr.flat_view()
        if live is None:
            self._bounds_check(arr, midx)
            arr._kernel_reads += 1
            return flat[midx]
        self._bounds_check(arr, midx[live])
        arr._kernel_reads += 1
        if self.sanitizer is not None:
            self.sanitizer.on_load(self, arr, midx, live)
        out = np.full(self.n_threads, fill, dtype=arr.dtype)
        out[live] = flat[midx[live]]
        return out

    def _gload_fan(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        active: Optional[np.ndarray],
        fill,
        fan: np.ndarray,
    ) -> np.ndarray:
        fan = np.asarray(fan, dtype=np.int64).ravel()
        idx = np.asarray(idx, dtype=np.int64).ravel()
        if idx.size != self.n_threads:
            raise KernelError(
                f"index vector has {idx.size} lanes, launch has "
                f"{self.n_threads} threads"
            )
        act, warps = self._active_info(active)
        # Smallest live base index (a huge value when no lane is live).
        if not idx.size:
            lo = 0
        elif act is None:
            lo = int(idx.min())
        else:
            lo = int(np.where(act, idx, np.iinfo(np.int64).max).min())
        if (
            self.sanitizer is not None
            or self.observer is not None
            or not fan.size
            or min(lo, lo + int(fan.min())) < 0
        ):
            # Replay one real load per offset: the hooks and records want
            # one access each, and a lane whose index is negative at some
            # offset is live at others only (the fast path below needs
            # every live lane live at every offset).
            out = np.empty((self.n_threads, fan.size), dtype=arr.dtype)
            for i, f in enumerate(fan):
                out[:, i] = self._gload(arr, idx + f, active, fill)
            return out
        self._check_global(arr)
        midx = idx if act is None else np.where(act, idx, -1)
        tx = count_transactions(
            midx, arr.itemsize, self.warp_size,
            self.device.spec.segment_bytes, fan=fan,
        )
        n_live = fan.size * (
            idx.size if act is None else int(np.count_nonzero(act))
        )
        # Dead lanes gather from element 0, then read ``fill``.
        rows = idx if act is None else np.maximum(midx, 0)
        if n_live and int(rows.max()) + int(fan.max()) >= arr.size:
            self._bounds_check(arr, rows[:, None] + fan[None, :])
        if n_live and arr._stored:
            out = _fan_gather(arr.flat_view(), rows, fan)
            if act is not None:
                out[~act] = fill
        else:
            out = np.full((idx.size, fan.size), fill, dtype=arr.dtype)
        self.counters.bump_global(
            load_tx=tx, load_bytes=n_live * arr.itemsize,
            inst=warps * fan.size,
        )
        arr._kernel_reads += fan.size
        return out

    def gstore(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        values: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> None:
        """Per-thread scatter to global memory with coalescing analysis.

        Lanes writing the same address are serialized in thread-id order
        (last lane wins), matching CUDA's undefined-but-single-winner
        semantics deterministically; in a step block, later rows win.
        """
        steps = self._steps(idx, active)
        if steps:
            return self._block_op("gstore", steps, arr, idx, active, values)
        self._check_global(arr)
        midx, live, n_live, warps = self._op_info(idx, active)
        tx = self._count(idx, active, arr, midx, live)
        self.counters.bump_global(
            store_tx=tx, store_bytes=n_live * arr.itemsize, inst=warps
        )
        if self.observer is not None:
            self._observe("gstore", arr, tx, n_live, warps)
        if not arr._stored:
            self._bounds_check(arr, midx if live is None else midx[live])
            arr._writes += 1
            return
        vals = np.broadcast_to(
            np.asarray(values, dtype=arr.dtype), (self.n_threads,)
        )
        if live is None:
            self._bounds_check(arr, midx)
            arr._writes += 1
            arr.flat_view()[midx] = vals
            return
        self._bounds_check(arr, midx[live])
        arr._writes += 1
        if self.sanitizer is not None:
            self.sanitizer.on_store(self, arr, midx, live)
        arr.flat_view()[midx[live]] = vals[live]

    def gatomic_add(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        values: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> None:
        """Per-thread atomic add to global memory (np.add.at semantics)."""
        steps = self._steps(idx, active)
        if steps:
            return self._block_op("gatomic_add", steps, arr, idx, active, values)
        self._check_global(arr)
        midx, live, n_live, warps = self._op_info(idx, active)
        tx = self._count(idx, active, arr, midx, live)
        # An atomic RMW costs a load and a store transaction.
        nbytes = n_live * arr.itemsize
        self.counters.bump_global(
            load_tx=tx, store_tx=tx, load_bytes=nbytes, store_bytes=nbytes,
            inst=warps,
        )
        if self.observer is not None:
            self._observe("gatomic_add", arr, tx, n_live, warps)
        if not arr._stored:
            self._bounds_check(arr, midx if live is None else midx[live])
            arr._writes += 1
            return
        vals = np.broadcast_to(
            np.asarray(values, dtype=arr.dtype), (self.n_threads,)
        )
        if live is None:
            self._bounds_check(arr, midx)
            arr._writes += 1
            np.add.at(arr.flat_view(), midx, vals)
            return
        self._bounds_check(arr, midx[live])
        arr._writes += 1
        if self.sanitizer is not None:
            self.sanitizer.on_atomic(self, arr, midx, live)
        np.add.at(arr.flat_view(), midx[live], vals[live])

    # -- constant memory --------------------------------------------------------

    def cload(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        active: Optional[np.ndarray] = None,
        fill=0,
    ) -> np.ndarray:
        """Gather from cached constant memory (no transaction counting)."""
        steps = self._steps(idx, active)
        if steps:
            return self._block_op("cload", steps, arr, idx, active, fill)
        arr.require_live()
        if arr.space != "constant":
            raise KernelError(
                f"cload on array {arr.name!r} in space {arr.space!r}"
            )
        midx, live, n_live, warps = self._op_info(idx, active)
        self.counters.c_load += n_live
        self.counters.inst_warp += warps
        if self.observer is not None:
            self._observe("cload", arr, 0, n_live, warps)
        if live is None:
            self._bounds_check(arr, midx)
            arr._kernel_reads += 1
            return arr.flat_view()[midx]
        self._bounds_check(arr, midx[live])
        arr._kernel_reads += 1
        if self.sanitizer is not None:
            self.sanitizer.on_load(self, arr, midx, live)
        out = np.full(self.n_threads, fill, dtype=arr.dtype)
        out[live] = arr.flat_view()[midx[live]]
        return out

    # -- internal -----------------------------------------------------------

    _check_global = staticmethod(require_global)

    @staticmethod
    def _bounds_check(arr: DeviceArray, idx: np.ndarray) -> None:
        if idx.size and (idx.max(initial=0) >= arr.size):
            raise KernelError(
                f"out-of-bounds access on {arr.name!r}: index "
                f"{int(idx.max())} >= size {arr.size}"
            )
