"""GSNP counting component: build per-site ``base_word`` segments on GPU.

One thread per aligned base: compute the site, pack the 32-bit word, and
append it into the site's segment.  The classic two-phase pattern —
histogram of per-site counts (atomic adds), exclusive scan for segment
offsets, then a scattered append — runs as simulated kernels so the
pipeline's counting costs reflect real transaction counts.  Appends land in
*arrival order* within each site, which is exactly why ``likelihood_sort``
exists (Section IV-B: "the canonical order is not preserved since aligned
bases for a site are unordered").
"""

from __future__ import annotations

import numpy as np

from ..gpusim.device import Device
from ..gpusim.memory import DeviceArray
from ..gpusim.primitives.scan import device_exclusive_scan
from ..soapsnp.observe import Observations
from .base_word import pack_words


def _histogram_kernel(ctx, sites: DeviceArray, counts: DeviceArray, n: int):
    """Thread t bumps the count of its observation's site."""
    active = ctx.tid < n
    s = ctx.gload(sites, ctx.tid, active=active)
    ctx.instr(2, active=active)
    ctx.gatomic_add(counts, s, 1, active=active)


def _scatter_kernel(
    ctx,
    sites: DeviceArray,
    words: DeviceArray,
    slots: DeviceArray,
    out: DeviceArray,
    n: int,
):
    """Thread t writes its packed word at its reserved segment slot."""
    active = ctx.tid < n
    s = ctx.gload(slots, ctx.tid, active=active)
    w = ctx.gload(words, ctx.tid, active=active)
    ctx.instr(6, active=active)  # pack + address computation
    ctx.gstore(out, s, w, active=active)


def gsnp_counting(
    device: Device, obs: Observations
) -> tuple[np.ndarray, np.ndarray]:
    """Build (words, offsets) on the simulated device.

    Returns host arrays: flat uint32 ``base_word`` storage in arrival order
    per site, and the (n_sites + 1) segment offsets.  Matches
    :func:`repro.core.base_word.words_from_observations` exactly (tested),
    while charging realistic device traffic.
    """
    n_sites = obs.n_sites
    # Arrival order: the raw input order the counting kernel sees.
    # ``arrival`` is a permutation of the observations, so inverting it is
    # one scatter; the counted entries then keep their arrival order.
    by_arrival = np.empty(obs.n_obs, dtype=np.int64)
    by_arrival[obs.arrival] = np.arange(obs.n_obs)
    sel = by_arrival[obs.counted[by_arrival]]
    m = sel.size
    if m == 0:
        return (
            np.empty(0, dtype=np.uint32),
            np.zeros(n_sites + 1, dtype=np.int64),
        )
    site_h = obs.site[sel]
    words_h = pack_words(
        obs.base[sel], obs.score[sel], obs.coord[sel], obs.strand[sel]
    )
    sites_dev = device.to_device(site_h, "obs.site")
    words_in = device.to_device(words_h, "obs.word")
    counts = device.alloc(n_sites, np.int64, "site_counts")
    device.launch(
        _histogram_kernel, m, sites_dev, counts, m, name="counting_histogram"
    )
    offsets_dev = device_exclusive_scan(device, counts)
    offsets = np.concatenate(
        [offsets_dev.data, [offsets_dev.data[-1] + counts.data[-1]]]
    ).astype(np.int64)
    # Per-site append cursors: slot = offset[site] + arrival ordinal within
    # the site (what per-site atomicAdd on a cursor array yields for
    # arrival-ordered threads).
    # site_h is NOT sorted (arrival order), so the ordinal must be computed
    # by grouping, not adjacency: one sort of the unique packed key
    # (site, arrival rank) groups each site's threads in arrival order.
    order = np.argsort(site_h.astype(np.int64) * m + np.arange(m))
    sorted_site = site_h[order]
    grp_change = np.concatenate([[True], sorted_site[1:] != sorted_site[:-1]])
    run_start = np.nonzero(grp_change)[0]
    run_id = np.cumsum(grp_change) - 1
    ordinal_sorted = np.arange(m) - run_start[run_id]
    ordinal = np.empty(m, dtype=np.int64)
    ordinal[order] = ordinal_sorted
    slots_h = offsets[site_h] + ordinal
    slots = device.to_device(slots_h, "append_slots")
    # init=False: every slot must come from the scatter, never the memset —
    # the sanitizer's uninitialized-read check verifies full coverage.
    out = device.alloc(m, np.uint32, "base_word_out", init=False)
    device.launch(
        _scatter_kernel, m, sites_dev, words_in, slots, out, m,
        name="counting_scatter",
    )
    words_out = device.from_device(out)
    for a in (sites_dev, words_in, counts, offsets_dev, slots, out):
        device.free(a)
    return words_out, offsets
