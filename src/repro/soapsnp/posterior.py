"""Posterior genotype calling and per-site output statistics.

Combines the genotype log-likelihoods with the priors of
:mod:`repro.soapsnp.model`, picks the consensus genotype, and assembles the
17-column :class:`~repro.formats.cns.ResultTable`.  Both pipelines call
these exact functions on their (identical) likelihoods, so their outputs
are bitwise equal.
"""

from __future__ import annotations

import numpy as np

from ..constants import GENOTYPES, N_BASES, N_GENOTYPES
from ..formats.cns import NO_BASE, ResultTable
from ..seqsim.datasets import KnownSnpPrior
from ..stats.ranksum import rank_sum_pvalues_segmented
from .model import CallingParams, genotype_log_priors
from .observe import Observations


def call_posterior(
    type_likely: np.ndarray,
    ref_codes: np.ndarray,
    rates: np.ndarray,
    params: CallingParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior call for every site.

    Returns ``(genotype_index, quality, log_posterior)`` where quality is
    the Phred-scaled ratio of best to second-best posterior, capped at
    ``params.max_quality``.
    """
    log_prior = genotype_log_priors(ref_codes, rates, params)
    log_post = log_prior + type_likely
    order = np.argsort(log_post, axis=1, kind="stable")
    best = order[:, -1]
    second = order[:, -2]
    n = type_likely.shape[0]
    lp_best = log_post[np.arange(n), best]
    lp_second = log_post[np.arange(n), second]
    quality = np.clip(
        np.rint(10.0 * (lp_best - lp_second)), 0, params.max_quality
    ).astype(np.uint8)
    return best.astype(np.uint8), quality, log_post


def _rounded_mean(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Integer mean with half-up rounding, 0 where count is 0."""
    count_safe = np.maximum(count, 1)
    return ((2 * total + count_safe) // (2 * count_safe)).astype(np.uint8)


def summarize_window(
    obs: Observations,
    window_start: int,
    ref_codes: np.ndarray,
    prior: KnownSnpPrior,
    type_likely: np.ndarray,
    params: CallingParams,
    chrom: str,
) -> ResultTable:
    """Build the 17-column rows for one window.

    ``ref_codes`` holds the reference base of each window site;
    ``type_likely`` the (n_sites, 10) genotype log-likelihoods.
    """
    n = obs.n_sites
    positions = window_start + np.arange(n, dtype=np.int64)

    # --- allele statistics -------------------------------------------------
    # bincount on the flat (site, base) key; weighted sums come back as
    # float64, exact for these small integers.
    cell = obs.site * N_BASES + obs.base
    u = obs.unique
    u_site, u_base, u_score = obs.site[u], obs.base[u], obs.score[u]
    ucell = cell[u]
    count_all = np.bincount(cell, minlength=n * N_BASES).reshape(n, N_BASES)
    count_uni = np.bincount(ucell, minlength=n * N_BASES).reshape(n, N_BASES)
    qual_sum_uni = np.bincount(
        ucell, weights=u_score, minlength=n * N_BASES
    ).astype(np.int64).reshape(n, N_BASES)
    hits_sum = np.bincount(
        obs.site, weights=obs.hits, minlength=n
    ).astype(np.int64)
    depth = np.bincount(obs.site, minlength=n)

    # Best and second-best allele by unique count, ties broken by quality
    # mass then base code (deterministic in every implementation).
    rank_key = (
        count_uni.astype(np.float64) * 1e9
        + qual_sum_uni.astype(np.float64)
        - np.arange(N_BASES)[None, :] * 1e-3
    )
    order = np.argsort(rank_key, axis=1, kind="stable")
    best_base = order[:, -1].astype(np.uint8)
    second_base = order[:, -2].astype(np.uint8)
    rows = np.arange(n)
    cu_best = count_uni[rows, best_base]
    ca_best = count_all[rows, best_base]
    cu_second = count_uni[rows, second_base]
    ca_second = count_all[rows, second_base]
    aq_best = _rounded_mean(qual_sum_uni[rows, best_base], cu_best)
    aq_second = _rounded_mean(qual_sum_uni[rows, second_base], cu_second)

    no_best = cu_best == 0
    best_base = np.where(no_best, ref_codes, best_base).astype(np.uint8)
    no_second = cu_second == 0
    second_out = np.where(no_second, NO_BASE, second_base).astype(np.uint8)
    aq_second = np.where(no_second, 0, aq_second).astype(np.uint8)

    # --- posterior call ------------------------------------------------------
    rates = prior.rate_at(positions, params.novel_rate)
    genotype, quality, _ = call_posterior(type_likely, ref_codes, rates, params)

    # --- rank-sum test on best vs second allele qualities -------------------
    # Unique observations of the two alleles at het candidates, all sites
    # in one segmented pass; every other site keeps p = 1.
    is_best = u_base == best_base[u_site]
    keep = (cu_best > 0)[u_site] & (cu_second > 0)[u_site] & (
        is_best | (u_base == second_base[u_site])
    )
    rank_sum = rank_sum_pvalues_segmented(
        u_site[keep], u_score[keep], is_best[keep], n
    ).astype(np.float32)
    rank_sum = np.round(rank_sum.astype(np.float64), 2).astype(np.float32)

    copy_num = np.zeros(n, dtype=np.float64)
    nz = depth > 0
    copy_num[nz] = hits_sum[nz] / depth[nz]
    copy_num = np.round(copy_num, 2).astype(np.float32)

    known = np.zeros(n, dtype=np.uint8)
    if prior.n_sites:
        idx = np.searchsorted(prior.positions, positions)
        idx_c = np.minimum(idx, prior.n_sites - 1)
        known[
            (idx < prior.n_sites) & (prior.positions[idx_c] == positions)
        ] = 1

    return ResultTable(
        chrom=chrom,
        pos=positions + 1,
        ref_base=ref_codes.astype(np.uint8),
        genotype=genotype,
        quality=quality,
        best_base=best_base,
        avg_qual_best=np.where(no_best, 0, aq_best).astype(np.uint8),
        count_uni_best=cu_best.astype(np.uint16),
        count_all_best=ca_best.astype(np.uint16),
        second_base=second_out,
        avg_qual_second=aq_second,
        count_uni_second=np.where(no_second, 0, cu_second).astype(np.uint16),
        count_all_second=np.where(no_second, 0, ca_second).astype(np.uint16),
        depth=np.minimum(depth, 65535).astype(np.uint16),
        rank_sum=rank_sum,
        copy_num=copy_num,
        known_snp=known,
    )


def is_snp_call(table: ResultTable) -> np.ndarray:
    """Boolean mask: consensus genotype differs from hom-reference."""
    hom_ref = np.array(
        [GENOTYPES.index((r, r)) for r in range(N_BASES)], dtype=np.uint8
    )
    return table.genotype != hom_ref[table.ref_base]
