"""Fused megabatch execution of the GSNP kernel chain.

The fused path runs the per-window components of :mod:`repro.core` on a
ragged megabatch (see :mod:`repro.gpusim.launchplan`):

* :func:`merge_observations` concatenates per-window observation sets
  onto the flat site axis, so one ``gsnp_counting`` call — and one
  cross-window-rebucketed multipass sort — replaces a per-window chain.
* :func:`gsnp_likelihood_posterior_fused` is the fused
  likelihood_comp + posterior kernel: per-site genotype likelihoods stay
  in shared memory (one 32 KB ``s_type_likely`` tile per block) and only
  the posterior result row reaches global memory, eliminating the full
  ``type_likely`` store + reload per site that the unfused pair pays.
* :func:`fused_posterior_tail` / :func:`gsnp_recycle_fused` account the
  in-kernel posterior epilogue and the single megabatch recycle.

Bitwise parity: every real number is still produced by the same host
functions (``summarize_window`` on per-window slices of the same
``type_likely`` matrix), and the merged counting/sort work on per-site
segments that are disjoint across windows — so the fused path reorders
*launches*, never per-site arithmetic.
"""

from __future__ import annotations

import numpy as np

from ..constants import N_GENOTYPES
from ..gpusim.device import Device
from ..gpusim.launchplan import LaunchPlan
from ..soapsnp.observe import Observations
from ..sortnet.multipass import MULTIPASS_BOUNDS
from .likelihood import (
    GsnpTables,
    LikelihoodVariant,
    OPTIMIZED,
    _launch_comp,
)
from .posterior import RESULT_ROW_BYTES


def merge_observations(
    obs_list: list[Observations], plan: LaunchPlan
) -> Observations:
    """Concatenate per-window observations onto the flat megabatch axis.

    ``site`` is shifted by each window's ``site_offset`` and ``arrival``
    by its ``obs_offset``: window i's sites (and arrival positions) all
    precede window i+1's, so the merged set is still canonically sorted
    and :func:`repro.core.counting.gsnp_counting` on it yields exactly
    the concatenation of the per-window (words, offsets) results.

    The same holds for a sample-major cohort plan
    (:func:`repro.gpusim.launchplan.build_launch_plan` with
    ``samples=``): segments are sequentially indexed whether they came
    from one sample's W windows or S samples' S*W copies of them, so
    neither this merge nor any downstream segment kernel needs a sample
    special case — the sample axis is pure layout.
    """
    if len(obs_list) != plan.n_windows:
        raise ValueError("observation list does not match launch plan")

    def cat(field: str) -> np.ndarray:
        return np.concatenate([getattr(o, field) for o in obs_list])

    site = np.concatenate(
        [
            o.site + seg.site_offset
            for o, seg in zip(obs_list, plan.segments)
        ]
    )
    arrival = np.concatenate(
        [
            o.arrival + seg.obs_offset
            for o, seg in zip(obs_list, plan.segments)
        ]
    )
    return Observations(
        n_sites=plan.n_sites,
        site=site.astype(np.int64),
        base=cat("base"),
        score=cat("score"),
        coord=cat("coord"),
        strand=cat("strand"),
        hits=cat("hits"),
        unique=cat("unique"),
        counted=cat("counted"),
        arrival=arrival.astype(np.int64),
    )


def gsnp_likelihood_posterior_fused(
    device: Device,
    words_sorted: np.ndarray,
    offsets: np.ndarray,
    tables: GsnpTables,
    variant: LikelihoodVariant = OPTIMIZED,
    bounds=MULTIPASS_BOUNDS,
) -> np.ndarray:
    """Fused likelihood_comp + posterior over a megabatch's flat sites.

    The same kernel body as :func:`gsnp_likelihood_comp`, launched with
    ``s_type_likely`` resident in shared memory (no global ``type_likely``
    array).  Size buckets span *all* windows of the megabatch (``offsets``
    is the flat-axis segment table), so each bucket launches once per
    megabatch.  Returns the (n_sites, 10) ``type_likely`` matrix —
    identical to :func:`gsnp_likelihood_comp` output — which the host then
    slices per window for ``summarize_window``.
    """
    return _launch_comp(
        device, words_sorted, offsets, tables, variant, bounds,
        f"likelihood_posterior_fused_{variant.name}", fused=True,
    )


def fused_posterior_tail(
    device: Device, counter_name: str, n_sites: int, n_obs: int
) -> None:
    """Account one window's posterior epilogue inside the fused kernel.

    Mirrors :func:`repro.core.posterior.gsnp_posterior`'s analytic charge
    minus what the fusion eliminates: no extra launch, and the 10
    likelihoods per site arrive through shared memory instead of a global
    ``type_likely`` reload — only ref/prior bytes still come from global.
    """
    c = device.counters.get(counter_name)
    spec = device.spec
    # type_likely reads come from the shared tile (one read per genotype
    # per site, full warps).
    c.s_load_warp += N_GENOTYPES * (-(-n_sites // spec.warp_size))
    in_bytes = n_sites * 16  # ref codes + priors only
    c.g_load += -(-in_bytes // spec.segment_bytes)
    c.g_load_bytes += in_bytes
    # Per observation: allele statistics accumulation (scattered), same
    # as the unfused posterior kernel.
    c.g_load += n_obs
    c.g_store += n_obs
    c.g_load_bytes += n_obs * 4
    c.g_store_bytes += n_obs * 4
    out_bytes = n_sites * RESULT_ROW_BYTES
    c.g_store += -(-out_bytes // spec.segment_bytes)
    c.g_store_bytes += out_bytes
    c.inst_warp += n_sites * 60 + n_obs * 4


def gsnp_recycle_fused(
    device: Device, n_words: int, n_sites: int, n_windows: int
) -> None:
    """Account one megabatch's buffer re-initialization (single launch)."""
    c = device.counters.get("recycle")
    c.launches += 1
    nbytes = (
        n_words * 4  # base_word storage
        + (n_sites + n_windows) * 8  # per-window segment offsets
        + n_sites * 16 * 8  # type_likely
    )
    segments = -(-nbytes // device.spec.segment_bytes)
    c.g_store += segments
    c.g_store_bytes += nbytes
    c.inst_warp += -(-nbytes // (4 * device.spec.warp_size))


__all__ = [
    "fused_posterior_tail",
    "gsnp_likelihood_posterior_fused",
    "gsnp_recycle_fused",
    "merge_observations",
]
