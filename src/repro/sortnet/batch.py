"""Batch-sort primitive: many equi-sized small arrays in one launch.

This is the primitive of Section IV-C: each CUDA thread block sorts one (or
several) small arrays with a bitonic network running in shared memory.  The
simulated kernel performs the real sort (in shared memory: one row sort,
identical to the network for the integer keys it sorts; in global memory:
the network, op by op) and accounts

* one coalesced global load + one coalesced global store for the batch,
* two shared loads + two shared stores per compare-exchange step when the
  arrays fit in shared memory,
* the same traffic against *global* memory otherwise (the slow path the
  multipass heuristics of [9] avoid).
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from ..gpusim.device import Device
from ..gpusim.memory import DeviceArray
from .bitonic import bitonic_steps


def _batch_bitonic_kernel(
    ctx, batch: DeviceArray, n_arrays: int, m: int, use_shared: bool
):
    """One thread per element; each block owns whole arrays.

    In the shared-memory configuration the sort runs in shared memory
    (which the simulator does not materialize — the backing store stands
    in for it), so global memory is only touched by the staging copies.
    In the global-memory configuration every compare-exchange is routed
    through ``ctx`` for real, with a barrier between network steps, so
    both the results and the accounting come from lockstep execution.
    """
    elem_idx = ctx.tid  # thread t owns element t of the flattened batch
    active = elem_idx < n_arrays * m
    col = elem_idx % m
    if use_shared:
        # Stage the batch into shared memory: coalesced read per element.
        _ = ctx.gload(batch, elem_idx, active=active)
        ctx.note_shared(stores=1, active=active)
        # Shared-memory stand-in: the backing store plays the
        # (unmaterialized) shared buffer, and one row sort produces what
        # the network does — for integer keys, bit for bit.  Each network
        # step is still charged as the lockstep network would issue it.
        view = batch.data.reshape(n_arrays, m)  # gsnp-lint: disable=GSNP101
        view.sort(axis=1)
        for _, j in bitonic_steps(m):
            # Half the threads own a pair; in lockstep the whole warp still
            # issues the instructions (divergence!).
            pair_owner = active & ((col ^ j) > col)
            ctx.note_shared(loads=2, stores=2, active=pair_owner)
            # Compare-exchange + index math + __syncthreads per step; the
            # whole warp pays even for non-owner lanes (divergence).
            ctx.instr(12, active=active)
            ctx.syncthreads()
        ctx.note_shared(loads=1, active=active)
        sorted_flat = batch.data.reshape(-1)  # gsnp-lint: disable=GSNP101 (shared-tile read-back; traffic charged via note_shared above)
        ctx.gstore(
            batch,
            elem_idx,
            sorted_flat[np.minimum(elem_idx, batch.size - 1)],
            active=active,
        )
    else:
        # Global-memory path: the pair owner loads both elements, resolves
        # the compare-exchange in registers, and stores both back.
        for k, j in bitonic_steps(m):
            pair_owner = active & ((col ^ j) > col)
            partner_idx = elem_idx - col + (col ^ j)
            ascending = (col & k) == 0
            a = ctx.gload(batch, elem_idx, active=pair_owner)
            b = ctx.gload(batch, partner_idx, active=pair_owner)
            swap = pair_owner & np.where(ascending, a > b, a < b)
            ctx.instr(4, active=pair_owner)
            ctx.gstore(batch, elem_idx, np.where(swap, b, a), active=pair_owner)
            ctx.gstore(
                batch, partner_idx, np.where(swap, a, b), active=pair_owner
            )
            # The next step reads what other lanes just wrote.
            ctx.syncthreads()


def batch_sort(
    device: Device,
    batch: np.ndarray,
    name: str = "batch_sort",
    elem_bytes: int = 4,
) -> np.ndarray:
    """Sort each row of a host batch on the simulated GPU.

    ``batch`` is ``(n_arrays, m)`` integer keys with ``m`` a power of two
    (pre-padded with sentinels).  Returns the sorted batch (host array).
    Shared memory is used when one array fits in a block's 48 KB, matching
    the heuristic of Section IV-C.  Integer keys only: the shared-memory
    body sorts with ``np.sort``, which equals the network's result for
    integers but not for floats (NaN, signed zeros).
    """
    batch = np.ascontiguousarray(batch)
    if batch.ndim != 2:
        raise KernelError("batch must be 2-D")
    if not np.issubdtype(batch.dtype, np.integer):
        raise KernelError(f"batch keys must be integers, got {batch.dtype}")
    n_arrays, m = batch.shape
    if m & (m - 1):
        raise KernelError(f"batch width must be a power of 2, got {m}")
    if n_arrays == 0 or m <= 1:
        return batch.copy()
    use_shared = m * elem_bytes <= device.spec.shared_mem_per_block
    dev_batch = device.to_device(batch.reshape(-1), name=f"{name}.data")
    device.launch(
        _batch_bitonic_kernel,
        n_arrays * m,
        dev_batch,
        n_arrays,
        m,
        use_shared,
        name=name,
    )
    out = device.from_device(dev_batch).reshape(n_arrays, m)
    device.free(dev_batch)
    return out


def pad_rows(
    rows: np.ndarray,
    lengths: np.ndarray,
    width: int,
    sentinel,
    offsets: np.ndarray,
) -> np.ndarray:
    """Gather variable-length rows from a flat array into a padded batch.

    ``rows`` is the flat storage; row ``i`` occupies
    ``rows[offsets[i] : offsets[i] + lengths[i]]``.  Positions beyond each
    row's length are filled with ``sentinel`` (which must sort after all
    real values).
    """
    n = lengths.size
    if n == 0:
        return np.empty((0, width), dtype=rows.dtype)
    if lengths.max(initial=0) > width:
        raise KernelError("row longer than batch width")
    col = np.arange(width)
    idx = offsets[:, None] + col[None, :]
    valid = col[None, :] < lengths[:, None]
    out = np.full((n, width), sentinel, dtype=rows.dtype)
    out[valid] = rows[idx[valid]]
    return out
