"""The GSNP pipeline (Figure 2), GPU-accelerated with per-phase accounting.

Workflow: ``cal_p_matrix`` reads the input once, builds ``p_matrix`` *and*
writes a compressed temporary copy of the input (Section V-A);
``load_table`` expands the host-computed score tables onto the device;
then per window: ``read_site`` (decompress temp) -> ``counting`` (GPU
base_word append) -> ``likelihood`` (multipass sort + comp kernel) ->
``posterior`` -> ``output`` (GPU columnar compression) -> ``recycle``.

``mode='cpu'`` runs the identical sparse algorithm without the device
(GSNP_CPU in the evaluation): quicksort for likelihood_sort, the table
lookups evaluated on the host.  All three pipelines (SOAPsnp, GSNP_CPU,
GSNP) produce bitwise identical result tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..align.records import AlignmentBatch
from ..bench.events import PhaseRecord, RunProfile
from ..constants import DEFAULT_WINDOW_GSNP
from ..errors import PipelineError
from ..formats.cns import ResultTable
from ..formats.soap import soap_line_bytes
from ..formats.window import WindowReader
from ..compress.columnar import encode_alignments, encode_table
from ..gpusim.counters import KernelCounters
from ..gpusim.device import Device
from ..gpusim.launchplan import (
    FUSION_DEFAULT,
    MEGABATCH_WINDOWS,
    LaunchTally,
    build_cohort_plan,
    build_launch_plan,
    chunk_windows,
)
from ..gpusim.pool import acquire_device
from ..gpusim.spec import CPU_COMPRESS_BW
from ..seqsim.datasets import SimulatedDataset
from ..soapsnp.likelihood import (
    adjust_scores,
    occurrence_ordinals,
    sequential_site_sums,
)
from ..soapsnp.model import CallingParams
from ..soapsnp.observe import extract_observations
from ..soapsnp.p_matrix import build_p_matrix, flatten_p_matrix
from ..soapsnp.posterior import summarize_window
from ..sortnet.cpu_sort import quicksort_per_site
from .base_word import canonical_keys, decode_keys, extract_words, words_from_observations
from .counting import gsnp_counting
from .likelihood import (
    OPTIMIZED,
    GsnpTables,
    LikelihoodVariant,
    gsnp_likelihood_comp,
    gsnp_likelihood_sort,
)
from .fused import (
    fused_posterior_tail,
    gsnp_likelihood_posterior_fused,
    gsnp_recycle_fused,
    merge_observations,
)
from .posterior import gsnp_posterior
from .prefetch import PREFETCH_DEPTH, OutputDrain, prefetched_windows
from .recycle import gsnp_recycle
from .score_table import cached_new_p_matrix, table_contributions

# CPU_COMPRESS_BW now lives with the other M2050/testbed model numbers in
# repro.gpusim.spec; re-exported here for backwards compatibility.
__all__ = ["CPU_COMPRESS_BW", "GsnpCalibration", "GsnpPipeline", "GsnpResult"]


@dataclass
class GsnpResult:
    """Output of one GSNP run."""

    table: ResultTable
    profile: RunProfile
    compressed_output: bytes = b""
    output_bytes: int = 0
    temp_input_bytes: int = 0
    sort_stats: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


@dataclass
class GsnpCalibration:
    """Product of the one-time ``cal_p_matrix`` input pass.

    Sharded execution (:mod:`repro.exec`) computes this once in the parent
    and shares it with every shard, so calibration work — and its event
    record — is charged exactly once, as in a serial run.
    """

    params: CallingParams
    pm_flat: np.ndarray
    penalty: np.ndarray
    #: Expanded host tables for ``mode='cpu'`` (None in GPU mode).
    new_p_flat: Optional[np.ndarray]
    #: Compressed temporary copy of the input (Section V-A).
    temp_blob: bytes
    #: Length of ``temp_blob`` — kept separately so :meth:`strip` can drop
    #: the blob before pickling to workers without losing the size that
    #: the per-window ``read_site`` accounting needs.
    temp_len: int
    input_bytes: int
    total_reads: int
    #: The ``cal_p_matrix`` phase events (wall, disk, cpu, table upload).
    record: PhaseRecord

    def strip(self) -> "GsnpCalibration":
        """Copy without the temp blob (cheap to ship to worker processes)."""
        return GsnpCalibration(
            params=self.params,
            pm_flat=self.pm_flat,
            penalty=self.penalty,
            new_p_flat=self.new_p_flat,
            temp_blob=b"",
            temp_len=self.temp_len,
            input_bytes=self.input_bytes,
            total_reads=self.total_reads,
            record=self.record,
        )


class _PhaseScope:
    """Capture wall time + device counter/transfer deltas for one phase."""

    def __init__(self, record: PhaseRecord, device: Optional[Device]) -> None:
        self.record = record
        self.device = device

    def __enter__(self):
        self.t0 = time.perf_counter()
        if self.device is not None:
            self._snap = self.device.counters.total()
            self._xfer = (
                self.device.transfers.h2d_bytes + self.device.transfers.d2h_bytes
            )
        return self

    def __exit__(self, *exc):
        self.record.wall += time.perf_counter() - self.t0
        if self.device is not None:
            after = self.device.counters.total()
            delta = KernelCounters(
                name=self.record.name, num_sms=after.num_sms
            )
            delta.launches = after.launches - self._snap.launches
            delta.inst_warp = after.inst_warp - self._snap.inst_warp
            delta.g_load = after.g_load - self._snap.g_load
            delta.g_store = after.g_store - self._snap.g_store
            delta.g_load_bytes = after.g_load_bytes - self._snap.g_load_bytes
            delta.g_store_bytes = after.g_store_bytes - self._snap.g_store_bytes
            delta.s_load_warp = after.s_load_warp - self._snap.s_load_warp
            delta.s_store_warp = after.s_store_warp - self._snap.s_store_warp
            self.record.gpu.merge(delta)
            xfer_now = (
                self.device.transfers.h2d_bytes + self.device.transfers.d2h_bytes
            )
            self.record.transfer_bytes += xfer_now - self._xfer
        return False


class GsnpPipeline:
    """The GPU-accelerated SNP caller (or its CPU twin, ``mode='cpu'``)."""

    def __init__(
        self,
        params: Optional[CallingParams] = None,
        window_size: int = DEFAULT_WINDOW_GSNP,
        mode: str = "gpu",
        variant: LikelihoodVariant = OPTIMIZED,
        device: Optional[Device] = None,
        prefetch: bool = True,
        cache: bool = True,
        fusion: bool = FUSION_DEFAULT,
        megabatch: int = MEGABATCH_WINDOWS,
    ) -> None:
        if mode not in ("gpu", "cpu"):
            raise PipelineError(f"unknown mode {mode!r}")
        if megabatch < 1:
            raise PipelineError("megabatch must be >= 1")
        self.params = params
        self.window_size = window_size
        self.mode = mode
        self.variant = variant
        self.device = device
        #: Double-buffered window streaming (read_site decode of window N+1
        #: overlaps compute of window N; output writes drain in background).
        self.prefetch = prefetch
        #: Persistent device residency: keep the device and its uploaded
        #: score tables across run() calls (tables load once per process
        #: per calibration instead of once per run/shard).
        self.cache = cache
        #: Fused ragged-megabatch execution: concatenate ``megabatch``
        #: windows into one flat launch plan so every kernel chain
        #: (counting, cross-window-rebucketed sort, fused
        #: likelihood+posterior, segmented output codec, recycle)
        #: launches once per megabatch instead of once per window.
        #: GPU mode only; results stay bitwise identical.
        self.fusion = fusion
        self.megabatch = megabatch
        self._cached_device: Optional[Device] = None

    def calibrate(
        self, dataset: SimulatedDataset, reads: Optional[AlignmentBatch] = None
    ) -> GsnpCalibration:
        """The ``cal_p_matrix`` pass: read the whole input once, build the
        score tables and the compressed temporary input copy.

        Charges the pass's events (including the device table upload in GPU
        mode) to the returned :attr:`GsnpCalibration.record`, so a sharded
        run that shares one calibration reports the same counters as a
        serial run that calibrates inline.
        """
        if reads is None:
            reads = AlignmentBatch.from_read_set(dataset.reads)
        params = self.params or CallingParams(read_len=reads.read_len or 100)
        input_bytes = reads.n_reads * soap_line_bytes(reads.read_len)
        rec = PhaseRecord(name="cal_p_matrix")
        with _PhaseScope(rec, None):
            p_matrix = build_p_matrix(reads, dataset.reference, params)
            pm_flat = flatten_p_matrix(p_matrix)
            penalty = params.penalty_table()
            temp_blob = encode_alignments(reads)
            if self.mode == "gpu":
                # Charge the one serial-equivalent load_table upload
                # analytically — run() performs the single real upload
                # (outside any phase scope), so nothing is built or
                # transferred twice just to record the bytes.
                rec.transfer_bytes += GsnpTables.upload_bytes(pm_flat, penalty)
                newp_flat = None
            else:
                newp_flat = cached_new_p_matrix(pm_flat)
        rec.disk.read_bytes += input_bytes
        rec.disk.parsed_bytes += input_bytes
        rec.disk.write_bytes += len(temp_blob)
        rec.cpu.instructions += reads.n_reads * reads.read_len * 4
        # Score-table generation + upload is dataset-size independent; the
        # paper measures ~2s for new_p_matrix + log_table (Section VI-E).
        rec.fixed_seconds += 2.0
        return GsnpCalibration(
            params=params,
            pm_flat=pm_flat,
            penalty=penalty,
            new_p_flat=newp_flat,
            temp_blob=temp_blob,
            temp_len=len(temp_blob),
            input_bytes=input_bytes,
            total_reads=reads.n_reads,
            record=rec,
        )

    def run(
        self,
        dataset: SimulatedDataset,
        output_path=None,
        *,
        site_range: Optional[tuple[int, int]] = None,
        calibration: Optional[GsnpCalibration] = None,
        reads: Optional[AlignmentBatch] = None,
    ) -> GsnpResult:
        """Call SNPs; optionally write the compressed result file.

        ``site_range`` restricts the run to the windows covering
        ``[start, stop)`` (shard execution); ``calibration`` supplies a
        shared precomputed ``cal_p_matrix`` product, in which case the
        calibration phase is neither re-run nor re-charged here; ``reads``
        overrides the alignment batch (e.g. a streamed shard batch holding
        only the reads overlapping ``site_range``).
        """
        if reads is None:
            reads = AlignmentBatch.from_read_set(dataset.reads)
        profile = RunProfile(
            pipeline="gsnp" if self.mode == "gpu" else "gsnp_cpu"
        )
        device = self.device
        if self.mode == "gpu" and device is None:
            # Persistent residency: reuse one device (and its uploaded
            # tables) across run() calls; without caching, each run gets a
            # fresh device exactly as before.
            if self.cache and self._cached_device is not None:
                device = self._cached_device
            else:
                device = acquire_device()
                if self.cache:
                    self._cached_device = device

        own_calibration = calibration is None
        if own_calibration:
            calibration = self.calibrate(dataset, reads=reads)
            profile.records["cal_p_matrix"] = calibration.record
        params = calibration.params
        pm_flat = calibration.pm_flat
        penalty = calibration.penalty
        newp_flat = calibration.new_p_flat
        temp_len = calibration.temp_len
        total_reads = calibration.total_reads
        # Residency stays off on sanitizing devices: the strict teardown
        # leak check must see every allocation of the run freed.
        use_cache = self.cache and not (
            device is not None and device.sanitizer is not None
        )
        if self.mode == "gpu":
            # Shared-calibration runs load outside any phase scope: the one
            # serial-equivalent upload is already charged to the record.
            # With caching, repeat runs hit the device-resident bundle and
            # transfer nothing — also outside any scope, so per-phase
            # records are identical either way.
            tables = GsnpTables.load(device, pm_flat, penalty, cache=use_cache)

        start, stop = site_range if site_range is not None else (0, dataset.n_sites)
        reader = WindowReader(
            reads, dataset.n_sites, self.window_size, start=start, stop=stop
        )
        use_fusion = self.fusion and self.mode == "gpu"
        # With fusion the compute loop consumes a whole megabatch at a
        # time, so the decode pipeline must run at least that far ahead.
        depth = max(PREFETCH_DEPTH, self.megabatch) if use_fusion else PREFETCH_DEPTH
        windows = prefetched_windows(reader, self.prefetch, depth=depth)
        tables_out: list[ResultTable] = []
        sort_stats = []
        blobs: list[bytes] = []
        out_f = None
        out_cm = None
        drain = None
        if output_path is not None:
            if self.prefetch:
                drain = OutputDrain(output_path)
            else:
                # Same crash-safety as the drain: write <path>.part and
                # rename only once every window's blob is flushed.
                from ..faults.journal import atomic_output

                out_cm = atomic_output(output_path)
                out_f = out_cm.__enter__()
        out_committed = False
        fusion_info = None
        try:
            if use_fusion:
                fusion_info = self._run_fused(
                    windows, device, tables, profile, dataset, params,
                    temp_len, total_reads, out_f, drain,
                    tables_out, sort_stats, blobs,
                )
                windows = ()  # the fused loop consumed the window stream
            for window in windows:
                frac = window.reads.n_reads / max(total_reads, 1)

                # ---- read_site: decompress the temp input ------------------
                rec = profile.phase("read_site")
                with _PhaseScope(rec, device):
                    win_reads = window.reads
                rec.disk.read_buffered_bytes += int(temp_len * frac)
                rec.cpu.instructions += win_reads.n_reads * 8

                # ---- counting: per-site base_word segments -----------------
                # The per-window launch chain below is the fusion parity
                # baseline (and the mode='cpu' path); GSNP107 suppressions
                # mark each launcher the megabatch path replaces.
                rec = profile.phase("counting")
                with _PhaseScope(rec, device):
                    obs = extract_observations(window)
                    if self.mode == "gpu":
                        words, offsets = gsnp_counting(device, obs)  # gsnp-lint: disable=GSNP107 (per-window parity baseline for fusion)
                    else:
                        words, offsets = words_from_observations(obs)
                rec.cpu.instructions += obs.n_obs * 4
                if self.mode == "cpu":
                    rec.cpu.random_accesses += obs.n_obs

                # ---- likelihood: sort + comp --------------------------------
                rec = profile.phase("likelihood")
                with _PhaseScope(rec, device):
                    if self.mode == "gpu":
                        wsorted, stats = gsnp_likelihood_sort(  # gsnp-lint: disable=GSNP107 (per-window parity baseline for fusion)
                            device, words, offsets
                        )
                        sort_stats.append(stats)
                        type_likely = gsnp_likelihood_comp(  # gsnp-lint: disable=GSNP107 (per-window parity baseline for fusion)
                            device, wsorted, offsets, tables, self.variant
                        )
                    else:
                        keys = canonical_keys(words)
                        skeys = quicksort_per_site(keys, offsets)
                        wsorted = decode_keys(skeys)
                        base, score, coord, strand = extract_words(wsorted)
                        site = np.repeat(
                            np.arange(offsets.size - 1), np.diff(offsets)
                        )
                        ordinal = occurrence_ordinals(site, base, coord, strand)
                        q_adj = adjust_scores(score, ordinal, penalty)
                        contrib = table_contributions(
                            newp_flat, q_adj, coord, base
                        )
                        type_likely = sequential_site_sums(contrib, offsets)
                if self.mode == "cpu":
                    m = words.size
                    lens = np.diff(offsets)
                    nl = lens[lens > 1]
                    rec.cpu.instructions += int(
                        (nl * np.log2(nl) * 12).sum()
                    ) + 30 * m
                    rec.cpu.random_accesses += 10 * m + 2 * m
                    rec.cpu.seq_read_bytes += 8 * m

                # ---- posterior ------------------------------------------------
                rec = profile.phase("posterior")
                with _PhaseScope(rec, device):
                    ref_codes = dataset.reference.codes[
                        window.start : window.end
                    ]
                    if self.mode == "gpu":
                        table = gsnp_posterior(  # gsnp-lint: disable=GSNP107 (per-window parity baseline for fusion)
                            device, obs, window.start, ref_codes,
                            dataset.prior, type_likely, params,
                            chrom=dataset.reference.name,
                        )
                    else:
                        table = summarize_window(
                            obs, window.start, ref_codes, dataset.prior,
                            type_likely, params,
                            chrom=dataset.reference.name,
                        )
                        rec.cpu.instructions += window.n_sites * 100
                        rec.cpu.random_accesses += window.n_sites * 5

                # ---- output: customized columnar compression ----------------
                rec = profile.phase("output")
                with _PhaseScope(rec, device):
                    blob = encode_table(  # gsnp-lint: disable=GSNP107 (per-window parity baseline for fusion)
                        table, device=device if self.mode == "gpu" else None
                    )
                    if out_f is not None:
                        out_f.write(blob)
                    elif drain is not None:
                        drain.submit(blob)
                blobs.append(blob)
                rec.disk.write_bytes += len(blob)
                if self.mode == "gpu":
                    # Compressed blob comes back over PCIe.
                    rec.transfer_bytes += len(blob)
                else:
                    # CPU codecs: sequential-scan compression cost.
                    raw = table.n_sites * 40
                    rec.cpu.instructions += int(
                        raw * (2.0e9 / CPU_COMPRESS_BW)
                    )
                tables_out.append(table)

                # ---- recycle -------------------------------------------------
                rec = profile.phase("recycle")
                with _PhaseScope(rec, device):
                    if self.mode == "gpu":
                        gsnp_recycle(device, words.size, window.n_sites)  # gsnp-lint: disable=GSNP107 (per-window parity baseline for fusion)
                if self.mode == "cpu":
                    rec.cpu.seq_write_bytes += words.size * 4 + window.n_sites * 88
        except BaseException as exc:
            # A failed window can leave partial allocations on the device;
            # drop the persistent residency rather than reuse that device.
            if self.mode == "gpu" and use_cache:
                self.release_cache()
            if out_cm is not None:
                # Abandon the partial .part file — never a torn output.
                out_committed = True
                out_cm.__exit__(type(exc), exc, exc.__traceback__)
            raise
        finally:
            if out_cm is not None and not out_committed:
                out_cm.__exit__(None, None, None)
            if drain is not None:
                drain.close()
            if self.mode == "gpu" and not use_cache:
                tables.free(device)

        full = tables_out[0]
        for t in tables_out[1:]:
            full = full.concat(t)
        compressed = b"".join(blobs)
        return GsnpResult(
            table=full,
            profile=profile,
            compressed_output=compressed,
            output_bytes=len(compressed),
            temp_input_bytes=temp_len,
            sort_stats=sort_stats,
            extras={
                "input_bytes": calibration.input_bytes,
                "device": device,
                "peak_gpu_bytes": device.peak_global_used if device else 0,
                **({"fusion": fusion_info} if fusion_info is not None else {}),
            },
        )

    def _run_fused(
        self,
        windows,
        device: Device,
        tables: GsnpTables,
        profile: RunProfile,
        dataset: SimulatedDataset,
        params: CallingParams,
        temp_len: int,
        total_reads: int,
        out_f,
        drain,
        tables_out: list,
        sort_stats: list,
        blobs: list,
    ) -> dict:
        """Fused megabatch loop: one launch chain per ``megabatch`` windows.

        Phase names and per-phase accounting match the per-window loop —
        each :class:`_PhaseScope` just covers a megabatch's worth of the
        phase at once — so phase-level event records stay comparable
        across the fusion toggle while the device sees ~``megabatch``x
        fewer launches.
        """
        from ..compress.fusedcodec import encode_tables_fused

        tally = LaunchTally()
        n_megabatches = 0
        fused_name = f"likelihood_posterior_fused_{self.variant.name}"
        for group in chunk_windows(windows, self.megabatch):
            n_megabatches += 1

            # ---- read_site: decompress the temp input ----------------------
            rec = profile.phase("read_site")
            with _PhaseScope(rec, device):
                group_reads = [w.reads for w in group]
            for win_reads in group_reads:
                frac = win_reads.n_reads / max(total_reads, 1)
                rec.disk.read_buffered_bytes += int(temp_len * frac)
                rec.cpu.instructions += win_reads.n_reads * 8

            # ---- counting: merged megabatch base_word segments -------------
            rec = profile.phase("counting")
            with _PhaseScope(rec, device):
                obs_list = [extract_observations(w) for w in group]
                plan = build_launch_plan(group, [o.n_obs for o in obs_list])
                merged = merge_observations(obs_list, plan)
                with tally.measure(device, "counting", plan.n_windows):
                    words, offsets = gsnp_counting(device, merged)
            rec.cpu.instructions += merged.n_obs * 4

            # ---- likelihood: cross-window sort + fused comp+posterior ------
            rec = profile.phase("likelihood")
            with _PhaseScope(rec, device):
                with tally.measure(device, "likelihood_sort", plan.n_windows):
                    wsorted, stats = gsnp_likelihood_sort(
                        device, words, offsets
                    )
                sort_stats.append(stats)
                with tally.measure(device, fused_name, plan.n_windows):
                    type_likely = gsnp_likelihood_posterior_fused(
                        device, wsorted, offsets, tables, self.variant
                    )

            # ---- posterior: host summaries + in-kernel epilogue charge -----
            rec = profile.phase("posterior")
            with _PhaseScope(rec, device):
                group_tables = []
                for seg, obs_w in zip(plan.segments, obs_list):
                    ref_codes = dataset.reference.codes[seg.start:seg.end]
                    group_tables.append(summarize_window(
                        obs_w, seg.start, ref_codes, dataset.prior,
                        type_likely[seg.site_slice], params,
                        chrom=dataset.reference.name,
                    ))
                    fused_posterior_tail(
                        device, fused_name, seg.n_sites, obs_w.n_obs
                    )

            # ---- output: segmented columnar compression --------------------
            rec = profile.phase("output")
            with _PhaseScope(rec, device):
                with tally.measure(device, "output_compress", plan.n_windows):
                    group_blobs = encode_tables_fused(device, group_tables)
                for blob in group_blobs:
                    if out_f is not None:
                        out_f.write(blob)
                    elif drain is not None:
                        drain.submit(blob)
            for blob in group_blobs:
                blobs.append(blob)
                rec.disk.write_bytes += len(blob)
                rec.transfer_bytes += len(blob)
            tables_out.extend(group_tables)

            # ---- recycle ---------------------------------------------------
            rec = profile.phase("recycle")
            with _PhaseScope(rec, device):
                with tally.measure(device, "recycle", plan.n_windows):
                    gsnp_recycle_fused(
                        device, words.size, plan.n_sites, plan.n_windows
                    )
        return {
            "megabatch_windows": self.megabatch,
            "megabatches": n_megabatches,
            "launches": tally.total_launches(),
            "stages": tally.summary(),
        }

    def run_cohort(
        self,
        dataset: SimulatedDataset,
        sample_reads,
        output_paths=None,
        *,
        site_range: Optional[tuple[int, int]] = None,
        calibration: Optional[GsnpCalibration] = None,
    ):
        """Call SNPs for an S-sample cohort sharing one reference.

        All samples share the same fixed-size reference windows, one
        pooled calibration (one ``pm_flat`` fingerprint, one resident
        score-table set per device) and — with fusion — one sample-major
        launch chain per megabatch, so launches per stage stay
        O(megabatches) rather than O(S * megabatches).

        Without fusion (or in CPU mode) the cohort degrades to S solo
        :meth:`run` calls sharing the pooled calibration; that loop *is*
        the bitwise parity baseline the fused path is tested against.

        ``output_paths``, when given, supplies one output file per
        sample (entries may be None).  Returns a
        :class:`repro.core.cohort.CohortResult`.
        """
        from .cohort import CohortResult, pooled_batch

        sample_reads = list(sample_reads)
        n_samples = len(sample_reads)
        if n_samples == 0:
            raise PipelineError("cohort needs at least one sample")
        if output_paths is not None and len(output_paths) != n_samples:
            raise PipelineError("output_paths must align with samples")
        profile = RunProfile(
            pipeline="gsnp" if self.mode == "gpu" else "gsnp_cpu"
        )
        own_calibration = calibration is None
        if own_calibration:
            calibration = self.calibrate(
                dataset, reads=pooled_batch(sample_reads)
            )
            profile.records["cal_p_matrix"] = calibration.record

        use_fusion = self.fusion and self.mode == "gpu"
        if not use_fusion:
            # Parity baseline: S solo runs sharing the pooled calibration
            # (the per-sample loop GSNP111 exists to flag is a loop over
            # *launchers*; a loop over whole runs is the baseline, not
            # the anti-pattern).
            sample_results = []
            for si, batch in enumerate(sample_reads):
                res = self.run(
                    dataset,
                    output_path=(
                        output_paths[si] if output_paths is not None else None
                    ),
                    site_range=site_range,
                    calibration=calibration,
                    reads=batch,
                )
                profile.merge(res.profile)
                sample_results.append(res)
            return CohortResult(
                samples=sample_results,
                profile=profile,
                extras={
                    "cohort": {"samples": n_samples, "fused": False},
                    "input_bytes": calibration.input_bytes,
                },
            )

        device = self.device
        if device is None:
            if self.cache and self._cached_device is not None:
                device = self._cached_device
            else:
                device = acquire_device()
                if self.cache:
                    self._cached_device = device
        use_cache = self.cache and not (
            device is not None and device.sanitizer is not None
        )
        tables = GsnpTables.load(
            device, calibration.pm_flat, calibration.penalty, cache=use_cache
        )
        start, stop = (
            site_range if site_range is not None else (0, dataset.n_sites)
        )
        # Window boundaries depend only on (n_sites, window_size, start,
        # stop), so S lockstep readers always agree on the reference
        # window each step covers.
        readers = [
            WindowReader(
                batch, dataset.n_sites, self.window_size,
                start=start, stop=stop,
            )
            for batch in sample_reads
        ]
        depth = max(PREFETCH_DEPTH, self.megabatch)
        streams = [
            prefetched_windows(r, self.prefetch, depth=depth) for r in readers
        ]
        per_tables: list[list] = [[] for _ in range(n_samples)]
        per_blobs: list[list[bytes]] = [[] for _ in range(n_samples)]
        sort_stats: list = []
        try:
            fusion_info = self._run_cohort_fused(
                zip(*streams), n_samples, device, tables, profile, dataset,
                calibration.params, calibration.temp_len,
                calibration.total_reads, per_tables, sort_stats, per_blobs,
            )
        except BaseException:
            if use_cache:
                self.release_cache()
            raise
        finally:
            if not use_cache:
                tables.free(device)

        if output_paths is not None:
            from ..faults.journal import atomic_output

            for si, path in enumerate(output_paths):
                if path is None:
                    continue
                with atomic_output(path) as f:
                    for blob in per_blobs[si]:
                        f.write(blob)

        sample_results = []
        for si in range(n_samples):
            full = per_tables[si][0]
            for t in per_tables[si][1:]:
                full = full.concat(t)
            compressed = b"".join(per_blobs[si])
            sample_results.append(
                GsnpResult(
                    table=full,
                    # Cohort-level events live on the cohort profile; the
                    # shared launch chain is not faked per sample.
                    profile=RunProfile(pipeline="gsnp"),
                    compressed_output=compressed,
                    output_bytes=len(compressed),
                    temp_input_bytes=calibration.temp_len,
                    sort_stats=sort_stats if si == 0 else [],
                )
            )
        return CohortResult(
            samples=sample_results,
            profile=profile,
            extras={
                "cohort": {"samples": n_samples, "fused": True},
                "fusion": fusion_info,
                "input_bytes": calibration.input_bytes,
                "device": device,
                "peak_gpu_bytes": device.peak_global_used if device else 0,
            },
        )

    def _run_cohort_fused(
        self,
        window_tuples,
        n_samples: int,
        device: Device,
        tables: GsnpTables,
        profile: RunProfile,
        dataset: SimulatedDataset,
        params: CallingParams,
        temp_len: int,
        total_reads: int,
        per_tables: list,
        sort_stats: list,
        per_blobs: list,
    ) -> dict:
        """Sample-major fused megabatch loop for a cohort.

        ``window_tuples`` yields S-tuples of :class:`Window`, one per
        sample, all covering the same reference window.  Each megabatch
        flattens its W reference windows x S samples sample-major onto
        one flat site axis (:func:`build_cohort_plan`); from there the
        launch chain is byte-for-byte the solo fused chain — the kernels
        are segment-local and never distinguish a sample boundary from a
        window boundary.  The tally counts *reference* windows, so
        ``launches / windows`` exposes the per-reference-window cost the
        sample axis amortises.
        """
        from ..compress.fusedcodec import encode_tables_fused

        tally = LaunchTally()
        n_megabatches = 0
        fused_name = f"likelihood_posterior_fused_{self.variant.name}"
        for group in chunk_windows(window_tuples, self.megabatch):
            n_megabatches += 1
            n_ref_windows = len(group)

            # ---- read_site: decompress the pooled temp input ---------------
            rec = profile.phase("read_site")
            with _PhaseScope(rec, device):
                group_reads = [[w.reads for w in tup] for tup in group]
            for tup_reads in group_reads:
                n = sum(r.n_reads for r in tup_reads)
                frac = n / max(total_reads, 1)
                rec.disk.read_buffered_bytes += int(temp_len * frac)
                rec.cpu.instructions += n * 8

            # ---- counting: sample-major merged megabatch -------------------
            rec = profile.phase("counting")
            with _PhaseScope(rec, device):
                flat_windows = [
                    group[wi][si]
                    for si in range(n_samples)
                    for wi in range(n_ref_windows)
                ]
                flat_samples = [
                    si
                    for si in range(n_samples)
                    for _ in range(n_ref_windows)
                ]
                obs_list = [extract_observations(w) for w in flat_windows]
                plan = build_cohort_plan(
                    flat_windows, [o.n_obs for o in obs_list], flat_samples
                )
                merged = merge_observations(obs_list, plan)
                with tally.measure(device, "counting", n_ref_windows):
                    words, offsets = gsnp_counting(device, merged)
            rec.cpu.instructions += merged.n_obs * 4

            # ---- likelihood: cross-sample sort + fused comp+posterior ------
            rec = profile.phase("likelihood")
            with _PhaseScope(rec, device):
                with tally.measure(device, "likelihood_sort", n_ref_windows):
                    wsorted, stats = gsnp_likelihood_sort(
                        device, words, offsets
                    )
                sort_stats.append(stats)
                with tally.measure(device, fused_name, n_ref_windows):
                    type_likely = gsnp_likelihood_posterior_fused(
                        device, wsorted, offsets, tables, self.variant
                    )

            # ---- posterior: host summaries + in-kernel epilogue charge -----
            rec = profile.phase("posterior")
            with _PhaseScope(rec, device):
                seg_tables = []
                for seg, obs_w in zip(plan.segments, obs_list):
                    ref_codes = dataset.reference.codes[seg.start:seg.end]
                    seg_tables.append(summarize_window(
                        obs_w, seg.start, ref_codes, dataset.prior,
                        type_likely[seg.site_slice], params,
                        chrom=dataset.reference.name,
                    ))
                    fused_posterior_tail(
                        device, fused_name, seg.n_sites, obs_w.n_obs
                    )

            # ---- output: segmented compression, routed per sample ----------
            rec = profile.phase("output")
            with _PhaseScope(rec, device):
                with tally.measure(device, "output_compress", n_ref_windows):
                    group_blobs = encode_tables_fused(device, seg_tables)
            for seg, table, blob in zip(plan.segments, seg_tables, group_blobs):
                per_tables[seg.sample].append(table)
                per_blobs[seg.sample].append(blob)
                rec.disk.write_bytes += len(blob)
                rec.transfer_bytes += len(blob)

            # ---- recycle ---------------------------------------------------
            rec = profile.phase("recycle")
            with _PhaseScope(rec, device):
                with tally.measure(device, "recycle", n_ref_windows):
                    gsnp_recycle_fused(
                        device, words.size, plan.n_sites, plan.n_windows
                    )
        return {
            "megabatch_windows": self.megabatch,
            "megabatches": n_megabatches,
            "samples": n_samples,
            "launches": tally.total_launches(),
            "stages": tally.summary(),
        }

    def release_cache(self) -> None:
        """Free the persistent residency: resident tables + cached device.

        The next :meth:`run` uploads tables afresh.  Call this before a
        strict sanitizer teardown — resident arrays are intentionally
        long-lived and would otherwise be reported as leaks.
        """
        for dev in (self.device, self._cached_device):
            if dev is not None:
                dev.resident.clear(free=True)
        self._cached_device = None
