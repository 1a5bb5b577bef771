"""GSNP likelihood calculation on the simulated GPU (Algorithm 4).

``likelihood = likelihood_sort + likelihood_comp``:

* :func:`gsnp_likelihood_sort` restores canonical order in every site's
  ``base_word`` array with the multipass batch bitonic network
  (Section IV-C), via the score-inverting key transform.
* :func:`gsnp_likelihood_comp` runs the per-site computation with one
  thread per site (the paper's baseline parallelization), in lockstep over
  the simulated device so hardware counters reflect real coalescing.

Four kernel variants reproduce Figure 8 / Table III:

========== ============= ====================
variant     type_likely   score source
========== ============= ====================
baseline    global memory p_matrix + log10
w/ shared   shared memory p_matrix + log10
w/ table    global memory new_p_matrix lookup
optimized   shared memory new_p_matrix lookup
========== ============= ====================

All four produce **bitwise identical** results (the math is the same; the
table entries were computed by the same IEEE operations) — only the
counters differ, exactly the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..constants import (
    GENOTYPES,
    MAX_READ_LEN,
    N_BASES,
    N_GENOTYPES,
    N_SCORES,
    N_STRANDS,
    P_ALLELE_SHIFT,
)
from ..content import digest
from ..gpusim.device import Device
from ..gpusim.memory import DeviceArray
from ..soapsnp.likelihood import occurrence_ordinals
from ..soapsnp.p_matrix import p_matrix_index
from ..sortnet.multipass import MULTIPASS_BOUNDS, SortStats, multipass_sort, size_class_of
from .base_word import canonical_keys, decode_keys, extract_words
from .score_table import build_new_p_matrix, new_p_index

# Instruction-accounting constants (per aligned base element); tuned so the
# counter ratios land near Table III.  They represent addressing, loop and
# bookkeeping work that a CUDA kernel spends per element.
_INSTR_EXTRACT = 20
_INSTR_ADJUST = 6
_INSTR_PER_GENOTYPE = 8
_INSTR_LOG10 = 6
_INSTR_DEP_RESET = 32

# Element offsets of the fan-out score gathers, in GENOTYPES order: the
# ten new_p_matrix slots of one (q, coord, base) row; the p_matrix allele
# planes of each genotype's first allele, then of its second; and the
# per-thread type_likely slots (a1 << 2 | a2).
_GENOTYPE_FAN = np.arange(N_GENOTYPES, dtype=np.int64)
_ALLELE_FAN = np.array(
    [a1 << P_ALLELE_SHIFT for a1, _ in GENOTYPES]
    + [a2 << P_ALLELE_SHIFT for _, a2 in GENOTYPES],
    dtype=np.int64,
)
_TL_SLOTS = np.array([a1 << 2 | a2 for a1, a2 in GENOTYPES], dtype=np.int64)

#: Lane budget of one step block of :func:`_comp_kernel`: a launch of n
#: lanes walks its j-loop ``LANES // n`` steps at a time, so small launches
#: pay one op per block instead of one per step, and launches of more than
#: half of it walk step by step (a whole ``(width, 10, n)`` block is
#: memory-bound at 36 k lanes; DESIGN.md "Simulator fast paths").
LANES = 32768

# One 256-thread block of the fused launch keeps its s_type_likely tile
# (256 sites x 16 padded genotype slots x 8 bytes = 32 KB) in shared memory
# for the kernel's whole lifetime — within the 48 KB/block budget.
_FUSED_TILE_BYTES = 256 * 16 * 8


@dataclass(frozen=True)
class LikelihoodVariant:
    """Optimization switches of one kernel configuration."""

    name: str
    use_shared: bool
    use_table: bool


BASELINE = LikelihoodVariant("baseline", use_shared=False, use_table=False)
WITH_SHARED = LikelihoodVariant("w_shared", use_shared=True, use_table=False)
WITH_TABLE = LikelihoodVariant("w_new_table", use_shared=False, use_table=True)
OPTIMIZED = LikelihoodVariant("optimized", use_shared=True, use_table=True)

ALL_VARIANTS = (BASELINE, WITH_SHARED, WITH_TABLE, OPTIMIZED)


@dataclass
class GsnpTables:
    """Device-resident score tables (built on the host, Section IV-G)."""

    pm_host: np.ndarray  # flat (64*256*4*4,) p_matrix
    newp_host: np.ndarray  # flat new_p_matrix
    penalty_host: np.ndarray  # dependency penalty table (int32)
    pm_dev: DeviceArray
    newp_dev: DeviceArray
    penalty_dev: DeviceArray  # constant memory

    @staticmethod
    def load(
        device: Device,
        pm_flat: np.ndarray,
        penalty: np.ndarray,
        cache: bool = True,
        key: Optional[str] = None,
        new_p: Optional[np.ndarray] = None,
    ) -> "GsnpTables":
        """The ``load_table`` component of Figure 2.

        Uploads ``new_p`` (the calibration's ``new_p_flat``), building it
        from ``pm_flat`` only for a caller that has none.  With ``cache``
        (default), the bundle takes the device's one residency slot under
        ``key`` (the calibration digest): repeat loads for the same
        calibration reuse the uploaded tables instead of re-transferring
        — the paper's keep-hot-tables-resident recipe — and another key
        frees them.  ``cache=False`` always uploads fresh (the caller then
        owns the free).
        """
        key = key or digest(pm_flat, penalty)
        if cache:
            hit = device.resident.get(key)
            if hit is not None:
                return hit
        if new_p is None:
            new_p = build_new_p_matrix(
                pm_flat.reshape(N_SCORES, MAX_READ_LEN, N_BASES, N_BASES))
        # Both score tables are uploaded regardless of kernel variant (the
        # paper's GSNP keeps them resident); a run using only the
        # new_p_matrix lookup never reads p_matrix, and vice versa.
        pm_dev = device.to_device(pm_flat, "p_matrix")
        newp_dev = device.to_device(new_p, "new_p_matrix")
        penalty_dev = device.to_constant(penalty.astype(np.int32), "log_table")
        for t in (pm_dev, newp_dev, penalty_dev):
            t.mark_consumed()
        tables = GsnpTables(
            pm_host=pm_flat,
            newp_host=new_p,
            penalty_host=penalty.astype(np.int32),
            pm_dev=pm_dev,
            newp_dev=newp_dev,
            penalty_dev=penalty_dev,
        )
        if cache:
            device.resident.put(key, tables, (pm_dev, newp_dev, penalty_dev))
        return tables

    def free(self, device: Device) -> None:
        """Release the device copies (the teardown leak check flags score
        tables that outlive their pipeline run)."""
        for arr in (self.pm_dev, self.newp_dev, self.penalty_dev):
            if not arr.freed:
                device.free(arr)


def gsnp_likelihood_sort(
    device: Device | None,
    words: np.ndarray,
    offsets: np.ndarray,
) -> tuple[np.ndarray, SortStats]:
    """Sort every site's base_words into canonical order (multipass).

    Returns (sorted words, sort statistics).  ``device=None`` runs the
    same network on the CPU (the GSNP_CPU variant uses quicksort instead;
    see :mod:`repro.sortnet.cpu_sort`).
    """
    keys = canonical_keys(words)
    sorted_keys, stats = multipass_sort(keys, offsets, device=device)
    return decode_keys(sorted_keys), stats


def dep_count_ranks(words: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The value ``dep_count`` holds right after each word is counted.

    Algorithm 4 zeroes a lane's ``dep_count`` when its base advances past
    the lane's running maximum (lines 8-10; for sorted words, the base
    itself), then bumps slot ``strand*read_len + coord``: the value read
    back is the word's 1-based rank among the lane's words sharing (base
    epoch, strand, coord) — no per-lane 512-slot mirror needed.
    """
    base, _, coord, strand = extract_words(words)
    site = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    lane_base = site * N_BASES
    epoch = np.maximum.accumulate(lane_base + base) - lane_base
    ranks = occurrence_ordinals(site, epoch, coord, strand) + 1
    return ranks.astype(np.int32)


def _comp_kernel(
    ctx,
    words_dev: DeviceArray,
    starts: np.ndarray,
    lens: np.ndarray,
    width: int,
    tables: GsnpTables,
    tl_dev: DeviceArray | None,
    dep_dev: DeviceArray,
    dep_rank: np.ndarray,
    variant: LikelihoodVariant,
    acc_out: np.ndarray,
):
    """One bucket launch of likelihood_comp: thread t owns site t.

    ``acc_out`` (rows, 10) receives the per-site log-likelihood sums;
    the lockstep j-loop walks each site's sorted base_words sequentially,
    so accumulation order matches the dense CPU algorithm bit for bit.

    ``tl_dev=None`` is the fused likelihood_comp + posterior launch:
    ``s_type_likely`` never leaves shared memory (no global accumulate
    traffic, no copy-out); the posterior epilogue consumes the tile
    in-kernel, accounted by :func:`repro.core.fused.fused_posterior_tail`.

    ``dep_rank`` (:func:`dep_count_ranks`, indexed like ``words_dev``) is
    what the ``dep_count`` read-modify-write yields.  ``dep_dev`` and the
    unfused ``tl_dev`` are value-free arrays: their loads and stores are
    still issued, so counters and the sanitizer see the real traffic,
    but no value of either is kept (the results come home via ``acc``).
    """
    n = ctx.n_threads
    tid = ctx.tid
    in_shared = tl_dev is None or variant.use_shared
    acc = np.zeros((n, N_GENOTYPES), dtype=np.float64)
    last_base = np.zeros(n, dtype=np.int64)
    # Steps per block: one under the sanitizer or an op observer, whose
    # hooks and records want one op per step.
    block = max(1, LANES // max(n, 1))
    if ctx.sanitizer is not None or ctx.observer is not None:
        block = 1
    for j0 in range(0, width, block):
        # The block's steps j are its rows (one step: plain 1-D ops).
        # Out-of-range lanes are masked inactive, never clamped: a clamped
        # phantom gather would issue real transactions and inflate g_load /
        # g_load_bytes with reads no thread performs.
        j = j0 if block == 1 else np.arange(j0, min(j0 + block, width))[:, None]
        word_idx = starts + j
        active = (j < lens) & (word_idx < words_dev.size)
        w = ctx.gload(words_dev, word_idx, active=active)
        base, score, coord, strand = extract_words(w)
        base_i = base.astype(np.int64)
        ctx.instr(_INSTR_EXTRACT, active=active)

        # Algorithm 4 lines 8-10: reset dep_count when the base advances
        # past the lane's running maximum (masked lanes read base 0, which
        # never raises it).
        prev = np.empty_like(base_i)
        for before, row in zip(prev.reshape(-1, n), base_i.reshape(-1, n)):
            before[:] = last_base
            last_base = np.maximum(last_base, row)
        ctx.instr(_INSTR_DEP_RESET, active=active & (base_i > prev))

        # dep_count[strand*read_len + coord] += 1 (global memory array).
        slot = strand.astype(np.int64) * MAX_READ_LEN + coord
        dep_idx = tid * (N_STRANDS * MAX_READ_LEN) + slot
        _ = ctx.gload(dep_dev, dep_idx, active=active)
        k = dep_rank[np.where(active, word_idx, 0)]
        ctx.gstore(dep_dev, dep_idx, k, active=active)

        # adjust(): penalty table lives in constant memory (log_table).
        pen = ctx.cload(
            tables.penalty_dev,
            np.minimum(k - 1, tables.penalty_host.size - 1),
            active=active,
        )
        q_adj = np.maximum(0, score.astype(np.int64) - pen.astype(np.int64))
        ctx.instr(_INSTR_ADJUST, active=active)

        # All ten genotypes at once: one fan-out gather per step returns
        # the (n, 10) score block (Algorithm 3's ten table reads, or the
        # baseline's twenty p_matrix reads), charged as the per-genotype
        # loads it replaces.
        if variant.use_table:
            val = ctx.gload(
                tables.newp_dev, new_p_index(q_adj, coord, base_i, 0),
                active=active, fan=_GENOTYPE_FAN,
            )
        else:
            p = ctx.gload(
                tables.pm_dev, p_matrix_index(q_adj, coord, 0, base_i),
                active=active, fan=_ALLELE_FAN,
            )
            with np.errstate(divide="ignore"):
                # The baseline variant computes log10 on the fly — the
                # very cost the log-free score table removes (Table III).
                val = np.log10(0.5 * p[..., :N_GENOTYPES] + 0.5 * p[..., N_GENOTYPES:])  # gsnp-lint: disable=GSNP102 (het strands average in probability space; log_table only covers single-p lookups)
            ctx.instr(_INSTR_LOG10 * N_GENOTYPES, active=active)
        # One step at a time, in j order (§IV-G): inactive lanes contribute
        # nothing (their rows keep acc as is); ``sums`` keeps each step's
        # sums for the global type_likely stores.
        rows = active.reshape(-1, n)
        sums = None if in_shared else np.empty(rows.shape + (N_GENOTYPES,))
        for r, v in enumerate(val.reshape(rows.shape + (N_GENOTYPES,))):
            np.add(acc, v, out=acc, where=rows[r][:, None])
            if sums is not None:
                sums[r] = acc
        if in_shared:
            ctx.note_shared(
                loads=N_GENOTYPES, stores=N_GENOTYPES, active=active
            )
        else:
            _ = ctx.gload(tl_dev, tid * 16, active=active, fan=_TL_SLOTS)
            for gi, (a1, a2) in enumerate(GENOTYPES):
                tl_idx = tid * 16 + (a1 << 2 | a2)
                ctx.gstore(
                    tl_dev, tl_idx, sums[..., gi].reshape(active.shape),
                    active=active,
                )
        ctx.instr(_INSTR_PER_GENOTYPE * N_GENOTYPES, active=active)

    if tl_dev is not None and variant.use_shared:
        # Copy s_type_likely to global memory through coalesced writes;
        # every lane participates, hence the explicit full-warp mask.
        for gi in range(N_GENOTYPES):
            ctx.note_shared(loads=1)
            ctx.gstore(tl_dev, tid * 16 + gi, acc[:, gi], active=None)
    acc_out[:] = acc


def _launch_comp(
    device: Device,
    words_sorted: np.ndarray,
    offsets: np.ndarray,
    tables: GsnpTables,
    variant: LikelihoodVariant,
    bounds,
    name: str,
    fused: bool,
) -> np.ndarray:
    """Launch ``_comp_kernel`` once per multipass-style size bucket, so
    lockstep lanes stay balanced; ``fused`` launches without a global
    ``type_likely`` array (see ``_comp_kernel``)."""
    n_sites = offsets.size - 1
    out = np.zeros((n_sites, N_GENOTYPES), dtype=np.float64)
    lengths = np.diff(offsets)
    if words_sorted.size == 0 or n_sites == 0:
        return out
    words_dev = device.to_device(words_sorted, "base_word")
    dep_rank = dep_count_ranks(words_sorted, offsets)
    classes = size_class_of(lengths, bounds)
    uppers = list(bounds) + [int(lengths.max(initial=1))]
    for ci in range(len(bounds) + 1):
        rows = np.nonzero((classes == ci) & (lengths > 0))[0]
        if rows.size == 0:
            continue
        width = int(uppers[ci])
        n = rows.size
        tl_dev = None
        if not fused:
            # The kernel stores the real global-memory output here (charged
            # as traffic); the simulator hands results back through ``acc``.
            tl_dev = device.alloc(
                n * 16, np.float64, "type_likely", value_free=True
            )
        dep_dev = device.alloc(
            n * N_STRANDS * MAX_READ_LEN, np.int32, "dep_count",
            value_free=True,
        )
        acc = np.empty((n, N_GENOTYPES), dtype=np.float64)
        device.launch(
            _comp_kernel,
            n,
            words_dev,
            offsets[:-1][rows],
            lengths[rows],
            width,
            tables,
            tl_dev,
            dep_dev,
            dep_rank,
            variant,
            acc,
            name=name,
            shared_bytes=_FUSED_TILE_BYTES if fused else 0,
        )
        out[rows] = acc
        if tl_dev is not None:
            device.free(tl_dev)
        device.free(dep_dev)
    device.free(words_dev)
    return out


def gsnp_likelihood_comp(
    device: Device,
    words_sorted: np.ndarray,
    offsets: np.ndarray,
    tables: GsnpTables,
    variant: LikelihoodVariant = OPTIMIZED,
    bounds=MULTIPASS_BOUNDS,
    kernel_name: str = "likelihood_comp",
) -> np.ndarray:
    """Run likelihood_comp over all sites; returns (n_sites, 10) float64."""
    return _launch_comp(
        device, words_sorted, offsets, tables, variant, bounds,
        f"{kernel_name}_{variant.name}", fused=False,
    )


def gpu_dense_likelihood_counters(
    device: Device, n_sites: int, m_counted: int
) -> None:
    """Analytic counters for the dense-representation GPU strawman (Fig. 5).

    One thread block scans one site's 131,072-cell matrix with coalesced
    loads (the best dense implementation available); the non-zero cells
    then pay the same per-element work as the baseline sparse kernel.
    Records into the device's counter book under ``likelihood_gpu_dense``.
    """
    c = device.counters.get("likelihood_gpu_dense")
    c.launches += 1
    # Coalesced scan: 131,072 one-byte cells per site, 128 bytes/segment.
    c.g_load += n_sites * (131072 // 128)
    c.g_load_bytes += n_sites * 131072
    # Scan instructions: one compare/branch per cell per warp.
    c.inst_warp += n_sites * (131072 // 32)
    # Non-zero cells do baseline-variant work (20 p_matrix loads etc.).
    c.g_load += 22 * m_counted
    c.g_load_bytes += 22 * 8 * m_counted
    c.g_store += 11 * m_counted
    c.g_store_bytes += 11 * 8 * m_counted
    c.inst_warp += (
        _INSTR_EXTRACT
        + _INSTR_ADJUST
        + N_GENOTYPES * (_INSTR_PER_GENOTYPE + _INSTR_LOG10)
    ) * m_counted
