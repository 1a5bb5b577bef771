"""Metric declarations and their extraction from results and spans.

``BENCHMARK.json`` at the repository root is the single declaration of the
metric names, units, directions and bounds; this module reads it and
computes the values.  Three kinds of number:

* **timed** (``wall_s``, ``cpu_s``, span ``busy_s``/``self_s``): host time of
  the Python simulator, subject to sandbox noise;
* **exact** (``modeled_s``, ``output_bytes``, every simulated ``gpusim.*``
  statistic, launch/steal counts): deterministic for a seed, read from the
  result object's public fields — two commits compare exactly;
* **derived ratios** of the above.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Figure 1 / Table I component order (``repro.bench.events.COMPONENTS``).
PHASES = (
    "cal_p_matrix", "read_site", "counting", "likelihood", "posterior",
    "output", "recycle",
)

_COUNTER_FIELDS = (
    "inst_warp", "g_load", "g_store", "g_load_bytes", "g_store_bytes",
    "s_load_warp", "s_store_warp",
)

#: End-to-end metrics that are exact for a seed (compared at 1e-9 relative
#: by ``--compare`` when both sides ran the same seed and sizes).
EXACT_END_TO_END = (
    "modeled_s", "output_bytes", "snp_precision", "snp_recall",
)

#: Per-layer metrics the tracer must not perturb: asserted equal between
#: the traced and the untraced repetitions of one run.
EXACT_PER_LAYER = tuple(f"gpusim.{f}" for f in _COUNTER_FIELDS) + (
    "gpusim.transfer_bytes", "gpusim.peak_device_mb",
    "gpusim.residency.hits", "gpusim.residency.misses",
    "gpusim.pool.launches", "gpusim.link.h2d_bytes", "gpusim.link.d2h_bytes",
    "exec.hetero.steals", "exec.hetero.makespan_s", "exec.hetero.link_s",
    "exec.hetero.compute_max_s", "exec.hetero.initial_split_skew",
    "exec.n_shards", "exec.retries", "sortnet.padding_ratio",
    "compress.temp_input_bytes",
    "compress.output_bytes_per_site",
) + tuple(f"modeled.{p}_s" for p in PHASES)


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _phase_modeled(record) -> float:
    """Modeled seconds of one phase without the scale-independent constant
    (the 2.0 s table-generation term would otherwise drown everything)."""
    return record.modeled_time() - record.fixed_seconds


def exact_metrics(result, n_sites: int, n_samples: int) -> dict:
    """Every exact metric of one job, from the result's public fields."""
    records = result.profile.records
    extras = result.extras
    exec_meta = extras.get("exec") or {}
    #: Scheduler metadata of a multi-device run, else None.
    hetero = exec_meta.get("hetero")
    pool = hetero or {}
    out = {}

    # -- modeled clock, per paper phase ------------------------------------
    for phase in PHASES:
        rec = records.get(phase)
        out[f"modeled.{phase}_s"] = _phase_modeled(rec) if rec else 0.0
    if hetero is None:
        out["modeled_s"] = sum(out[f"modeled.{p}_s"] for p in PHASES)
    else:
        # Lanes overlap: the pool's makespan model replaces the phase sum.
        out["modeled_s"] = (
            out["modeled.cal_p_matrix_s"]
            + hetero["modeled"]["makespan_seconds"]
        )

    # -- simulated device statistics ---------------------------------------
    for name in _COUNTER_FIELDS:
        out[f"gpusim.{name}"] = sum(
            getattr(r.gpu, name) for r in records.values()
        )
    out["gpusim.transfer_bytes"] = sum(
        r.transfer_bytes for r in records.values()
    )
    out["gpusim.peak_device_mb"] = extras.get("peak_gpu_bytes", 0) / 2**20
    device = extras.get("device")
    if hetero is not None:
        hits = sum(d["resident_hits"] for d in hetero["per_device"])
        misses = sum(d["resident_misses"] for d in hetero["per_device"])
    elif device is not None:
        hits, misses = device.resident.hits, device.resident.misses
    else:
        hits = misses = 0  # process-pool workers own their devices
    out["gpusim.residency.hits"] = hits
    out["gpusim.residency.misses"] = misses

    # -- output / codec sizes ----------------------------------------------
    members = getattr(result, "samples", None) or [result]
    out["output_bytes"] = sum(int(m.output_bytes) for m in members)
    out["compress.output_bytes_per_site"] = (
        out["output_bytes"] / (n_sites * n_samples)
    )
    out["compress.temp_input_bytes"] = int(members[0].temp_input_bytes)
    stats = [s for m in members for s in m.sort_stats]
    real = sum(s.real_elements for s in stats)
    out["sortnet.padding_ratio"] = (
        sum(s.padded_elements for s in stats) / real if real else 0.0
    )

    # -- exec: shard plan and scheduler counters ---------------------------
    out["exec.n_shards"] = exec_meta.get("n_shards", 0)
    out["exec.retries"] = exec_meta.get("retries", 0)
    link = pool.get("link", {})
    modeled = pool.get("modeled", {})
    split = pool.get("initial_split") or []
    out["exec.hetero.steals"] = pool.get("steals", 0)
    out["exec.hetero.makespan_s"] = modeled.get("makespan_seconds", 0.0)
    out["exec.hetero.link_s"] = modeled.get("link_seconds", 0.0)
    out["exec.hetero.compute_max_s"] = modeled.get("compute_seconds_max", 0.0)
    out["exec.hetero.initial_split_skew"] = (
        max(split) / (sum(split) / len(split)) if split else 0.0
    )
    out["gpusim.pool.launches"] = pool.get("pool_launches", 0)
    out["gpusim.link.h2d_bytes"] = link.get("h2d_bytes", 0)
    out["gpusim.link.d2h_bytes"] = link.get("d2h_bytes", 0)
    return out


def timed_from_result(result) -> dict:
    """Timed numbers the result itself reports: per-shard / per-lane walls
    (work the parent's tracer cannot see in worker processes, or sees as
    threads) and the pipeline's own per-phase wall clock."""
    extras = result.extras
    shards = extras.get("shards") or []
    hetero = (extras.get("exec") or {}).get("hetero")
    walls = [s["wall"] for s in shards]
    if hetero is not None:
        per_worker = [lane["wall"] for lane in hetero["lanes"]]
    else:
        by_pid: dict = {}
        for s in shards:
            by_pid[s["pid"]] = by_pid.get(s["pid"], 0.0) + s["wall"]
        per_worker = list(by_pid.values())
    mean = sum(per_worker) / len(per_worker) if per_worker else 0.0
    return {
        "exec.shard.wall_sum_s": sum(walls),
        "exec.shard.wall_max_s": max(walls, default=0.0),
        "exec.shard.imbalance": max(per_worker) / mean if mean else 0.0,
        "exec.hetero.lane_wall_max_s": (
            max(per_worker) if hetero is not None else 0.0
        ),
        **{
            f"phase.{p}.wall_s": (
                result.profile.records[p].wall
                if p in result.profile.records else 0.0
            )
            for p in PHASES
        },
    }


#: Per-layer metrics read straight off the tracer: "<span name>.<field>"
#: with field one of n / busy_s / self_s.
SPAN_METRICS = (
    "gpusim.launch.n",
    "gpusim.launch.self_s",
    "gpusim.count_transactions.n",
    "gpusim.count_transactions.self_s",
    "gpusim.alloc_free.n",
    "gpusim.alloc_free.self_s",
    "gpusim.transfer.self_s",
    "core.counting.self_s",
    "core.likelihood_sort.busy_s",
    "core.likelihood_comp.busy_s",
    "core.posterior.busy_s",
    "core.merge_observations.self_s",
    "core.tables_load.busy_s",
    "core.recycle.busy_s",
    "sortnet.multipass_sort.n",
    "sortnet.multipass_sort.self_s",
    "soapsnp.build_p_matrix.self_s",
    "soapsnp.extract_observations.n",
    "soapsnp.extract_observations.self_s",
    "soapsnp.summarize_window.n",
    "soapsnp.summarize_window.self_s",
    "compress.encode_alignments.self_s",
    "compress.encode_table.n",
    "compress.encode_table.self_s",
    "compress.encode_tables_fused.n",
    "compress.encode_tables_fused.self_s",
    "compress.decode.busy_s",
    "formats.read_soap.busy_s",
    "formats.read_fasta.busy_s",
    "cli.dataset_from_files.busy_s",
    "cli.main_call.busy_s",
    "serve.write_job_output.busy_s",
    "exec.calibrate.busy_s",
    "exec.execute.self_s",
    "exec.merge.busy_s",
)


def span_metrics(aggregate: dict, n_jobs: int) -> dict:
    """Span-derived per-layer metrics, averaged per traced repetition."""
    out = {}
    for metric in SPAN_METRICS:
        span, _, field = metric.rpartition(".")
        out[metric] = aggregate[span][field] / n_jobs
    launches = aggregate["gpusim.launch"]
    out["gpusim.launch.self_us_per_launch"] = (
        1e6 * launches["self_s"] / launches["n"] if launches["n"] else 0.0
    )
    return out
