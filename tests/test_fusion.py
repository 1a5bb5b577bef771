"""Ragged-megabatch kernel fusion: parity, launch reduction, traffic.

The fused path must be invisible in the output: ResultTable rows and
compressed bytes bitwise identical to the per-window launch chain (the
toggle combinations — shard cuts, workers, sanitizer — are pinned cases
of ``test_job_matrix``), while launching strictly fewer
kernels and moving strictly fewer global-memory bytes through the
likelihood/posterior stage.
"""

import numpy as np
import pytest

from repro.api import JobSpec, create_pipeline
from repro.core.detector import GsnpDetector
from repro.core.fused import merge_observations
from repro.core.counting import gsnp_counting
from repro.formats.window import WindowReader
from repro.gpusim.device import Device
from repro.gpusim.launchplan import (
    LaunchPlan,
    build_launch_plan,
    chunk_windows,
)
from repro.seqsim.datasets import DatasetSpec, generate_dataset
from repro.soapsnp.observe import extract_observations


@pytest.fixture(scope="module")
def ds():
    return generate_dataset(DatasetSpec(
        name="fusion-t", n_sites=1600, depth=6.0, coverage=0.92,
        read_len=40, seed=31,
    ))


FUSED_KERNEL = "likelihood_posterior_fused_optimized"


def stage_launches(res) -> dict:
    """Launches per fused stage of a run on a fresh device: each phase
    record's ``gpu.launches``, the likelihood phase split into its sort
    and the fused kernel by the device's per-kernel counter book."""
    records = res.profile.records
    fused = res.extras["device"].counters.entries[FUSED_KERNEL].launches
    return {
        "counting": records["counting"].gpu.launches,
        FUSED_KERNEL: fused,
        "likelihood_sort": records["likelihood"].gpu.launches - fused,
        "output_compress": records["output"].gpu.launches,
        "recycle": records["recycle"].gpu.launches,
    }


def _run(ds, **kw):
    pipe = create_pipeline(
        spec=JobSpec(**({"engine": "gsnp", "window": 256} | kw)))
    res = pipe.run(ds)
    if hasattr(pipe, "release_cache"):
        pipe.release_cache()
    return res


class TestDefaultPathParity:
    """A plain ``JobSpec()`` takes the fused path; the explicitly
    requested ``fusion=False`` per-window chain is its parity oracle."""

    @pytest.fixture(scope="class")
    def ds36k(self):
        return generate_dataset(DatasetSpec(
            name="fusion-default", n_sites=36_000, depth=3.0, coverage=0.85,
            seed=47,
        ))

    # 12 windows of 3000 sites (one megabatch), then one default window.
    @pytest.mark.parametrize("job", [{"window": 3_000}, {}], ids=str)
    def test_default_equals_per_window_oracle(self, ds36k, job):
        assert JobSpec().fusion is True
        default = GsnpDetector(spec=JobSpec(**job)).run(ds36k)
        oracle = GsnpDetector(spec=JobSpec(fusion=False, **job)).run(ds36k)
        # The fused chain launches once per megabatch, not per window.
        launches = [res.extras["device"].counters.total().launches
                    for res in (default, oracle)]
        assert launches[0] < launches[1]
        assert default.table.equals(oracle.table)
        assert default.compressed_output == oracle.compressed_output


class TestLaunchReduction:
    def test_fused_launches_strictly_lower(self, ds):
        unfused = _run(ds, fusion=False)
        fused = _run(ds, fusion=True)
        n0 = unfused.extras["device"].counters.total().launches
        n1 = fused.extras["device"].counters.total().launches
        assert n1 < n0
        # ~megabatch windows collapse into one launch chain; even this
        # small dataset must show a clear multiple.
        assert n0 / n1 > 2.0

    def test_stage_launches_do_not_grow_with_windows_per_megabatch(self):
        """Launches are O(megabatches), not O(windows): four times the
        windows inside one megabatch add at most half again to any stage.
        A launcher called once per window scales every stage with the
        windows instead (one window per megabatch: 3.9x in total, 4x for
        counting)."""

        def launches_at(n_windows):
            ds = generate_dataset(DatasetSpec(
                name="mb-launch", n_sites=500 * n_windows, depth=12.0,
                coverage=0.9, seed=7,
            ))
            return stage_launches(_run(ds, window=500, fusion=True))

        few, many = launches_at(3), launches_at(12)
        assert few == {
            "counting": 5, "likelihood_posterior_fused_optimized": 5,
            "likelihood_sort": 4, "output_compress": 108, "recycle": 1,
        }
        assert many == {
            "counting": 5, "likelihood_posterior_fused_optimized": 5,
            "likelihood_sort": 4, "output_compress": 130, "recycle": 1,
        }
        for stage, launches in many.items():
            assert launches <= 1.5 * few[stage], stage

    def test_stage_launches_are_the_device_book(self, ds):
        """The fused stages account for every launch the run's device
        made: the phase records' launches sum to the device book."""
        res = _run(ds, fusion=True)
        stages = stage_launches(res)
        assert min(stages.values()) > 0
        assert sum(stages.values()) \
            == res.extras["device"].counters.total().launches

    def test_fused_kernel_moves_fewer_global_bytes(self, ds):
        # The fused likelihood+posterior keeps per-site genotype
        # likelihoods in shared memory: the full type_likely store+load
        # round trip (n_sites * 10 genotypes * 8 bytes each way)
        # disappears from the global-traffic counters.
        unfused = _run(ds, fusion=False)
        fused = _run(ds, fusion=True)

        def lp_bytes(res):
            tot_load = tot_store = 0
            for name, c in res.extras["device"].counters.entries.items():
                if "likelihood_comp" in name or "posterior" in name:
                    tot_load += c.g_load_bytes
                    tot_store += c.g_store_bytes
            return tot_load, tot_store

        u_load, u_store = lp_bytes(unfused)
        f_load, f_store = lp_bytes(fused)
        # Only covered sites pass through the comp kernel (depth-0 rows
        # stay zero), so the vanished store is covered * 10 * 8 bytes;
        # the posterior's vanished read spans every site's row.
        covered = int((unfused.table.depth > 0).sum())
        assert u_store - f_store >= covered * 10 * 8
        assert u_load - f_load >= ds.n_sites * 10 * 8


class TestLaunchPlan:
    def test_plan_layout(self):
        class W:  # minimal stand-in with the fields the plan reads
            def __init__(self, start, end):
                self.start, self.end = start, end
                self.n_sites = end - start

        windows = [W(0, 100), W(100, 250), W(250, 260)]
        plan = build_launch_plan(windows, [40, 90, 3])
        assert plan.n_windows == 3
        assert plan.n_sites == 260 and plan.n_obs == 133
        assert [s.site_offset for s in plan.segments] == [0, 100, 250]
        assert plan.segments[1].obs_offset == 40
        assert plan.segments[2].site_slice == slice(250, 260)
        assert {s.sample for s in plan.segments} == {0}

        # A sample axis is pure layout: same offsets, tagged segments.
        cohort = build_launch_plan(windows, [40, 90, 3], samples=[0, 0, 1])
        assert [s.index for s in cohort.segments] == [0, 1, 2]
        assert [s.site_offset for s in cohort.segments] == [0, 100, 250]
        assert [s.sample for s in cohort.segments] == [0, 0, 1]
        assert cohort.segments[2].obs_offset == 130
        with pytest.raises(ValueError, match="sample-major"):
            build_launch_plan(windows, [40, 90, 3], samples=[0, 1, 0])
        with pytest.raises(ValueError, match="must align"):
            build_launch_plan(windows, [40, 90, 3], samples=[0, 0])
        with pytest.raises(ValueError, match="must align"):
            build_launch_plan(windows, [40, 90])

    def test_chunk_windows(self):
        groups = list(chunk_windows(iter(range(7)), 3))
        assert groups == [[0, 1, 2], [3, 4, 5], [6]]
        with pytest.raises(ValueError):
            list(chunk_windows(iter(range(3)), 0))


class TestMergedCounting:
    def test_merge_equals_per_window_concat(self, ds):
        reads = ds.reads
        reader = WindowReader(reads, ds.n_sites, 256)
        windows = list(reader)
        obs_list = [extract_observations(w) for w in windows]
        plan = build_launch_plan(windows, [o.n_obs for o in obs_list])
        merged = merge_observations(obs_list, plan)
        assert merged.n_sites == ds.n_sites
        assert merged.n_obs == sum(o.n_obs for o in obs_list)

        words_m, offsets_m = gsnp_counting(Device(), merged)
        # Per-window counting, then concatenate: must be bitwise equal.
        parts, off_parts, base = [], [0], 0
        for w, o in zip(windows, obs_list):
            ww, wo = gsnp_counting(Device(), o)
            parts.append(ww)
            off_parts.extend((wo[1:] + base).tolist())
            base += ww.size
        assert np.array_equal(words_m, np.concatenate(parts))
        assert np.array_equal(offsets_m, np.array(off_parts))
