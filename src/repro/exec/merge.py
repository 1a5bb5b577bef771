"""Reassemble per-shard results into one coherent serial-equivalent run.

Shards complete in arbitrary order; this module restores genomic order,
verifies the shards tile the site range with no gaps, concatenates the
result tables and compressed blobs, and folds the per-shard event profiles
plus the one shared calibration record into a single
:class:`~repro.bench.events.RunProfile` — so the bench harness and the
cost models see exactly the counters a serial run would have produced
(invariant 1: bitwise consistency; invariant 6: window invariance).
"""

from __future__ import annotations

from functools import reduce
from typing import Optional

import numpy as np

from ..bench.events import RunProfile
from ..core.pipeline import GsnpResult
from ..errors import PipelineError
from ..faults.journal import atomic_output
from ..formats.cns import ResultTable, format_rows
from ..soapsnp.pipeline import SoapsnpResult
from .shard import ShardResult


def _ordered(results: list[ShardResult]) -> list[ShardResult]:
    results = sorted(results, key=lambda r: r.shard.index)
    for prev, cur in zip(results, results[1:]):
        if cur.shard.start != prev.shard.end:
            raise PipelineError(
                f"shard results do not tile the site range: "
                f"{prev.shard} then {cur.shard}"
            )
    return results


def merge_profiles(
    results: list[ShardResult], calibration_record=None
) -> RunProfile:
    """Sum per-shard phase events; charge calibration exactly once."""
    profile = RunProfile(pipeline=results[0].profile.pipeline)
    if calibration_record is not None:
        rec = profile.phase("cal_p_matrix")
        rec.merge(calibration_record)
        rec.fixed_seconds = calibration_record.fixed_seconds
    for sr in results:
        profile.merge(sr.profile)
    return profile


def merge_shard_results(
    results: list[ShardResult],
    calibration,
    output_path=None,
    exec_meta: Optional[dict] = None,
    device=None,
):
    """Merge shard results into the engine's own result type.

    Returns a :class:`~repro.core.pipeline.GsnpResult`,
    :class:`~repro.soapsnp.pipeline.SoapsnpResult` or (when the shards
    carry per-sample tables) :class:`~repro.core.cohort.CohortResult`,
    indistinguishable from a whole-job pipeline run's except for
    wall-clock timings and the exec metadata in ``extras``; ``device`` is
    reported as ``extras["device"]``.  Sample ``i``'s merged output is
    exactly what its solo run (with the pooled calibration) would have
    produced.

    This is the one writer of result files.  When ``output_path`` is
    given, every sample's bytes — compressed blobs for the GSNP engines,
    ``.cns`` text for SOAPsnp — go to ``cohort_output_path(output_path,
    i)`` (sample 0 at ``output_path`` itself, sample ``i`` at
    ``<output_path>.s<i>``), each written atomically.
    """
    from ..core.cohort import CohortResult, cohort_output_path

    if not results:
        raise PipelineError("no shard results to merge")
    results = _ordered(results)
    cohort = results[0].sample_tables is not None
    n_samples = len(results[0].sample_tables) if cohort else 1
    if cohort and any(
        len(sr.sample_tables or ()) != n_samples for sr in results
    ):
        raise PipelineError("shard results disagree on cohort size")
    family = results[0].profile.pipeline
    text = family not in ("gsnp", "gsnp_cpu")

    samples = []
    for si in range(n_samples):
        tables = [sr.sample_tables[si] if cohort else sr.table
                  for sr in results]
        table = reduce(ResultTable.concat, tables)
        compressed = b"".join(
            sr.sample_compressed[si] if cohort else sr.compressed
            for sr in results
        )
        if output_path is not None:
            with atomic_output(cohort_output_path(output_path, si)) as f:
                f.writelines(map(format_rows, tables) if text
                             else [compressed])
        samples.append((table, compressed))

    extras = {
        "input_bytes": calibration.input_bytes,
        "shards": [sr.metrics() for sr in results],
        "device": device,
        "peak_gpu_bytes": max(sr.peak_gpu_bytes for sr in results),
    }
    if exec_meta:
        extras["exec"] = dict(exec_meta)
    profile = merge_profiles(results, calibration.record)
    if text:
        table, _ = samples[0]
        nnz_parts = [sr.nnz for sr in results if sr.nnz is not None]
        return SoapsnpResult(
            table=table,
            profile=profile,
            nnz=np.concatenate(nnz_parts) if nnz_parts else None,
            output_bytes=sum(sr.output_bytes for sr in results),
            p_matrix=calibration.p_matrix,
            extras=extras,
        )
    members = [
        GsnpResult(
            table=table,
            # A cohort's events live on its own profile, as in a pipeline
            # run; the shared launch chain is not faked per sample.
            profile=profile if not cohort else RunProfile(pipeline=family),
            compressed_output=compressed,
            output_bytes=len(compressed),
            temp_input_bytes=calibration.temp_len,
            sort_stats=(
                [s for sr in results for s in sr.sort_stats] if si == 0
                else []
            ),
            extras={} if cohort else extras,
        )
        for si, (table, compressed) in enumerate(samples)
    ]
    if not cohort:
        return members[0]
    extras["cohort"] = {"samples": n_samples}
    return CohortResult(samples=members, profile=profile, extras=extras)
