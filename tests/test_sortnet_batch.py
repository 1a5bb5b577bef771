"""The shared-memory batch sort body: one row sort, the network's charges.

``_batch_bitonic_kernel``'s shared-memory path sorts each row with one
``np.sort`` and still charges every network step.  The oracle
here is the lockstep network body it replaced: the same staging load,
per-step compare-exchange passes with a ``pair_owner`` mask, and the same
store.  Rows and every counter must match for each array width the
multipass buckets can produce.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import KernelError
from repro.gpusim.device import Device
from repro.sortnet.batch import batch_sort
from repro.sortnet.bitonic import (
    bitonic_sort_batch,
    bitonic_steps,
    compare_exchange_indices,
)

WIDTHS = [2 ** e for e in range(1, 9)]  # 2 .. 256


def _network_body(ctx, batch, n_arrays, m):
    """The shared-memory body as a per-step lockstep network (oracle)."""
    elem_idx = ctx.tid
    active = elem_idx < n_arrays * m
    col = elem_idx % m
    _ = ctx.gload(batch, elem_idx, active=active)
    ctx.note_shared(stores=1, active=active)
    view = batch.data.reshape(n_arrays, m)
    for k, j in bitonic_steps(m):
        i, partner, ascending = compare_exchange_indices(m, k, j)
        a = view[:, i]
        b = view[:, partner]
        swap = np.where(ascending[None, :], a > b, a < b)
        view[:, i] = np.where(swap, b, a)
        view[:, partner] = np.where(swap, a, b)
        pair_owner = active & ((col ^ j) > col)
        ctx.note_shared(loads=2, stores=2, active=pair_owner)
        ctx.instr(12, active=active)
        ctx.syncthreads()
    ctx.note_shared(loads=1, active=active)
    sorted_flat = batch.data.reshape(-1)
    ctx.gstore(
        batch, elem_idx, sorted_flat[np.minimum(elem_idx, batch.size - 1)],
        active=active,
    )


def _n_arrays_for(m, warp_size=32):
    """Array counts that leave a partial last warp (not a multiple of
    ``warp_size / m``), plus one that fills whole warps."""
    per_warp = max(warp_size // m, 1)
    return sorted({1, per_warp + 1, 3 * per_warp - 1, 2 * per_warp, 37})


CASES = [(m, n) for m in WIDTHS for n in _n_arrays_for(m)]


@pytest.mark.parametrize("m,n_arrays", CASES)
def test_body_matches_network(m, n_arrays):
    rng = np.random.default_rng(m * 1000 + n_arrays)
    batch = rng.integers(0, 1 << 12, size=(n_arrays, m)).astype(np.uint32)
    batch[:, -1] = np.iinfo(np.uint32).max  # a padding sentinel column

    device = Device()
    got = batch_sort(device, batch, name="body")

    oracle = Device()
    dev = oracle.to_device(batch.reshape(-1), name="body.data")
    oracle.launch(_network_body, n_arrays * m, dev, n_arrays, m, name="body")
    want = oracle.from_device(dev).reshape(n_arrays, m)

    assert np.array_equal(got, want)
    assert np.array_equal(got, bitonic_sort_batch(batch.copy()))
    assert dataclasses.asdict(device.counters.get("body")) == (
        dataclasses.asdict(oracle.counters.get("body"))
    )



def test_float_keys_are_refused():
    batch = np.array([[0.0, -0.0, np.nan, 1.0]])
    with pytest.raises(KernelError, match="integers"):
        batch_sort(Device(), batch)
