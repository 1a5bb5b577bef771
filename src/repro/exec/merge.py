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

from typing import Optional

from ..bench.events import RunProfile
from ..errors import PipelineError
from ..formats.cns import ResultTable
from ..soapsnp.pipeline import CallResult, SampleCalls
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
    exec_meta: Optional[dict] = None,
    device=None,
) -> CallResult:
    """Merge shard results into one :class:`CallResult`.

    One loop over the samples concatenates each one's tables, blobs and
    sort statistics in genomic order: sample ``i``'s merged output is
    exactly what its solo run (with the pooled calibration) would have
    produced, and the result is indistinguishable from a whole-job
    pipeline run's except for wall clock and the exec metadata in
    ``extras`` (``device`` is reported as ``extras["device"]``).  Files
    are written by :func:`repro.serve.runner.write_job_output`, not here.
    """
    if not results:
        raise PipelineError("no shard results to merge")
    results = _ordered(results)
    n_samples = len(results[0].samples)
    if any(len(sr.samples) != n_samples for sr in results):
        raise PipelineError("shard results disagree on cohort size")

    samples = [
        SampleCalls(
            table=ResultTable.concat_all([p.table for p in parts]),
            compressed_output=b"".join(p.compressed_output for p in parts),
            output_bytes=sum(p.output_bytes for p in parts),
            temp_input_bytes=calibration.temp_len,
            sort_stats=[s for p in parts for s in p.sort_stats],
        )
        for parts in zip(*(sr.samples for sr in results))
    ]
    extras = {
        "shards": [sr.metrics() for sr in results],
        "device": device,
        "peak_gpu_bytes": max(sr.peak_gpu_bytes for sr in results),
    }
    if exec_meta:
        extras["exec"] = dict(exec_meta)
    return CallResult(
        samples=samples,
        profile=merge_profiles(results, calibration.record),
        extras=extras,
    )
