"""Reassemble per-shard results into one coherent serial-equivalent run.

Shards complete in arbitrary order; this module restores genomic order,
verifies the shards tile the site range with no gaps, concatenates each
sample's result tables, compressed blobs and sort statistics, and folds
the per-shard event profiles plus the one shared calibration record into
a single :class:`~repro.bench.events.RunProfile` — so the bench harness
and the cost models see exactly the counters a serial run would have
produced (invariant 1: bitwise consistency; invariant 6: window
invariance).  It writes no files.
"""

from __future__ import annotations

from functools import reduce
from typing import Optional

import numpy as np

from ..bench.events import RunProfile
from ..core.cohort import CohortResult, solo_result
from ..core.pipeline import GsnpResult
from ..errors import PipelineError
from ..formats.cns import ResultTable
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
    *,
    cohort: bool,
    exec_meta: Optional[dict] = None,
    device=None,
):
    """Merge shard results into the engine's own result type.

    One loop over the samples concatenates each one's tables, blobs and
    sort statistics in genomic order: sample ``i``'s merged output is
    exactly what its solo run (with the pooled calibration) would have
    produced.  With ``cohort`` (the job has ``sample_reads``; a cohort of
    one stays a cohort) the result is a
    :class:`~repro.core.cohort.CohortResult`, else the one sample's
    :class:`~repro.core.pipeline.GsnpResult` or
    :class:`~repro.soapsnp.pipeline.SoapsnpResult` — each
    indistinguishable from a whole-job pipeline run's except for wall
    clock and the exec metadata in ``extras`` (``device`` is reported as
    ``extras["device"]``).  Files are written by
    :func:`repro.serve.runner.write_job_output`, not here.
    """
    if not results:
        raise PipelineError("no shard results to merge")
    results = _ordered(results)
    n_samples = len(results[0].samples)
    if any(len(sr.samples) != n_samples for sr in results):
        raise PipelineError("shard results disagree on cohort size")
    family = results[0].profile.pipeline
    text = family not in ("gsnp", "gsnp_cpu")

    members = []
    for parts in zip(*(sr.samples for sr in results)):
        table = reduce(ResultTable.concat, [p.table for p in parts])
        # A sample's events live on the run's profile, as in a pipeline
        # run; the shared launch chain is not faked per sample.
        own = RunProfile(pipeline=family)
        output_bytes = sum(p.output_bytes for p in parts)
        if text:
            nnz = [p.nnz for p in parts if p.nnz is not None]
            member = SoapsnpResult(
                table=table,
                profile=own,
                nnz=np.concatenate(nnz) if nnz else None,
                output_bytes=output_bytes,
                p_matrix=calibration.p_matrix,
            )
        else:
            member = GsnpResult(
                table=table,
                profile=own,
                compressed_output=b"".join(p.compressed for p in parts),
                output_bytes=output_bytes,
                temp_input_bytes=calibration.temp_len,
                sort_stats=[s for p in parts for s in p.sort_stats],
            )
        members.append(member)

    extras = {
        "input_bytes": calibration.input_bytes,
        "shards": [sr.metrics() for sr in results],
        "device": device,
        "peak_gpu_bytes": max(sr.peak_gpu_bytes for sr in results),
        "cohort": {"samples": n_samples},
    }
    if exec_meta:
        extras["exec"] = dict(exec_meta)
    merged = CohortResult(
        samples=members,
        profile=merge_profiles(results, calibration.record),
        extras=extras,
    )
    return merged if cohort else solo_result(merged)
