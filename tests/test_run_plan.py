"""The one plan-driven run loop: what folding four loops into one must
not move.

``GsnpPipeline.run`` is ``_run_plan`` at S=1 and ``run_cohort`` is
``_run_plan`` as is; the fused chain is a launch batch per megabatch and
the per-window chains (GPU and host) are launch batches of one.  These
tests pin the accounting that differs *between* those chains (and so
could silently drift once they share a body), the output-file contract of
``write_job_output``, the one writer of every chain's files (the dense
baseline's too), and that a serial run of any chain stays on the calling
thread.
"""

import threading
import warnings
from dataclasses import replace

import pytest

from repro.api import JobSpec, create_pipeline
from repro.core import pipeline as pipeline_mod
from repro.core.cohort import cohort_output_path
from repro.core.detector import GsnpDetector
from repro.core.pipeline import GsnpPipeline
from repro.errors import ShardError
from repro.exec.shard import Shard, ShardResult
from repro.faults import DegradationWarning
from repro.formats.cns import format_rows
from repro.formats.window import WindowReader
from repro.gpusim.counters import COUNTER_FIELDS, KernelCounters
from repro.gpusim.pool import acquire_device
from repro.seqsim.datasets import DatasetSpec, generate_dataset
from repro.seqsim.reads import simulate_reads
from repro.serve.runner import write_job_output
from repro.soapsnp import pipeline as soapsnp_pipeline_mod

WINDOW = 256
N_WINDOWS = 7  # ceil(1600 / 256)


@pytest.fixture(scope="module")
def ds():
    return generate_dataset(DatasetSpec(
        name="plan-t", n_sites=1600, depth=6.0, coverage=0.92,
        read_len=40, seed=31,
    ))


@pytest.fixture(scope="module")
def batches(ds):
    """Three cohort members: the dataset's reads + two fresh runs."""
    out = [ds.reads]
    for seed in (1031, 2031):
        out.append(simulate_reads(
            ds.diploid, depth=6.0, coverage=0.92, read_len=40, seed=seed,
        ))
    return out


def _pipe(**job):
    job.setdefault("engine", "gsnp")
    return create_pipeline(spec=JobSpec(window=WINDOW, **job))


def _events(profile):
    """Per-phase records with the measured wall clock blanked: gpu
    counters, cpu, disk, transfer bytes and fixed seconds all compare."""
    return {k: replace(r, wall=0.0) for k, r in profile.records.items()}


class TestSoloIsCohortOfOne:
    @pytest.mark.parametrize("engine,fusion,megabatch", [
        ("gsnp", True, 1),
        ("gsnp", True, 3),
        ("gsnp", True, 16),
        ("gsnp", False, 16),
        ("gsnp_cpu", False, 16),
    ])
    def test_records_bytes_and_sort_stats_identical(
        self, ds, batches, engine, fusion, megabatch, monkeypatch
    ):
        """At any group size: ``MEGABATCH_WINDOWS`` is patched to cut the
        7 windows into groups of 1, 3 or 16.  Only the fused gsnp chain
        groups windows; the per-window chain and the host engine run one
        window at a time whatever the group size."""
        monkeypatch.setattr(pipeline_mod, "MEGABATCH_WINDOWS", megabatch)
        pipe = _pipe(engine=engine, fusion=fusion)
        cal = pipe.calibrate(ds, reads=batches[0])
        for kw in ({}, {"site_range": (512, 1280), "calibration": cal}):
            solo = pipe.run(ds, **kw)
            cohort = pipe.run_cohort(ds, [batches[0]], **kw)
            (one,), (member,) = solo.samples, cohort.samples
            assert _events(solo.profile) == _events(cohort.profile), kw
            assert one.compressed_output == member.compressed_output, kw
            assert one.table.equals(member.table), kw
            assert one.sort_stats == member.sort_stats, kw
            assert one.temp_input_bytes == member.temp_input_bytes, kw
        pipe.release_cache()

    def test_solo_calibration_is_fed_the_reads_themselves(
        self, ds, batches, monkeypatch
    ):
        """No pooled copy (and no re-sort) of a single sample."""
        seen = []
        real = GsnpPipeline.calibrate

        def spy(self, dataset, reads=None):
            seen.append(reads)
            return real(self, dataset, reads=reads)

        monkeypatch.setattr(GsnpPipeline, "calibrate", spy)
        pipe = _pipe()
        pipe.run(ds, reads=batches[1])
        pipe.run_cohort(ds, [batches[1]])
        pipe.release_cache()
        assert seen[0] is batches[1] and seen[1] is batches[1]


class TestChainAccounting:
    """What legitimately differs between a megabatch launch batch and a
    launch batch of one.  Megabatches of 3 windows (``MEGABATCH_WINDOWS``
    patched) cut the 7 windows into three groups."""

    @pytest.fixture(scope="class")
    def cohort_runs(self, ds, batches):
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline_mod, "MEGABATCH_WINDOWS", 3)
            for fusion in (False, True):
                pipe = _pipe(fusion=fusion)
                out[fusion] = pipe.run_cohort(ds, batches)
                pipe.release_cache()
        return out

    @pytest.fixture(scope="class")
    def detector_runs(self, ds, batches):
        """The same cohorts through the executor: one shard per lane
        payload, merged per sample."""
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline_mod, "MEGABATCH_WINDOWS", 3)
            for fusion in (False, True):
                detector = GsnpDetector(
                    spec=JobSpec(window=WINDOW, fusion=fusion)
                )
                detector.sample_batches = batches
                out[fusion] = detector.run(ds)
        return out

    def test_read_site_charge_rounds_once_per_launch_batch_member(
        self, ds, batches, cohort_runs
    ):
        """The temp-input share ``int(temp_len * n / total_reads)`` is
        rounded once per *reference window* (pooled over samples) when
        fused and once per *(window, sample)* when not."""
        per_window = [
            [w.reads.n_reads for w in WindowReader(b, ds.n_sites, WINDOW)]
            for b in batches
        ]
        total = sum(b.n_reads for b in batches)
        temp_len = cohort_runs[True].samples[0].temp_input_bytes
        pooled = sum(
            int(temp_len * (sum(ns) / total)) for ns in zip(*per_window)
        )
        split = sum(
            int(temp_len * (n / total)) for ns in per_window for n in ns
        )
        assert pooled != split  # the dataset tells the two roundings apart
        read = {
            fusion: res.profile.records["read_site"].disk.read_buffered_bytes
            for fusion, res in cohort_runs.items()
        }
        assert read == {True: pooled, False: split}

    def test_fused_chain_launches_per_megabatch(self, cohort_runs):
        """Three samples, seven windows, megabatches of three: the recycle
        launches once per megabatch (ceil(7 / 3)) when fused, once per
        (window, sample) otherwise, and only the fused chain runs the
        fused kernel."""
        fused = "likelihood_posterior_fused_optimized"
        launches = {
            fusion: (
                fused in res.extras["device"].counters.entries,
                res.profile.records["recycle"].gpu.launches,
            )
            for fusion, res in cohort_runs.items()
        }
        assert launches == {True: (True, 3), False: (False, 3 * N_WINDOWS)}

    def test_fused_sort_stats_ride_on_sample_zero(
        self, cohort_runs, detector_runs
    ):
        """On the pipeline and through the executor's per-sample shard
        payload alike (the executor used to keep sample 0's only)."""
        for route, runs in (("pipeline", cohort_runs),
                            ("executor", detector_runs)):
            fused = [len(s.sort_stats) for s in runs[True].samples]
            assert fused == [3, 0, 0], route  # one sort per megabatch
            unfused = [len(s.sort_stats) for s in runs[False].samples]
            assert unfused == [N_WINDOWS] * 3, route

    def test_unfused_cohort_reports_its_device(self, cohort_runs):
        """Regression: the degraded rung's cohort shards used to read
        ``peak_gpu_bytes == 0`` because the unfused cohort path dropped
        ``device`` / ``peak_gpu_bytes`` from ``extras``."""
        res = cohort_runs[False]
        sr = ShardResult.from_run(
            Shard(0, 0, 1600), res, wall=1.0, attempts=1, pid=0
        )
        assert sr.peak_gpu_bytes == res.extras["device"].peak_global_used > 0
        assert sr.samples is res.samples
        assert [s.table.n_sites for s in sr.samples] == [1600] * 3

    @pytest.mark.parametrize("fusion", [False, True])
    def test_phase_records_sum_to_the_device_book(self, ds, fusion):
        """Every counter a kernel bumps reaches a phase record: summed over
        the phases, the records equal the device book, field by field
        (constant-memory loads included)."""
        device = acquire_device()
        pipe = GsnpPipeline(window_size=WINDOW, fusion=fusion, device=device)
        res = pipe.run(ds)
        pipe.release_cache()
        summed = KernelCounters()
        for rec in res.profile.records.values():
            summed.merge(rec.gpu)
        book = device.counters.total()
        assert book.c_load > 0
        assert {f: getattr(summed, f) for f in COUNTER_FIELDS} \
            == {f: getattr(book, f) for f in COUNTER_FIELDS}


#: Job fields of every run chain: the GSNP fused and per-window chains,
#: the host chain and the dense baseline.
CHAINS = {
    "fused": {"fusion": True},
    "per-window": {"fusion": False},
    "gsnp_cpu": {"engine": "gsnp_cpu"},
    "soapsnp": {"engine": "soapsnp"},
}


def _release(pipe):
    if hasattr(pipe, "release_cache"):
        pipe.release_cache()


class TestOutputFiles:
    """One write path, ``write_job_output``'s: every sample's file appears
    complete, after the job, or not at all."""

    @pytest.mark.parametrize("n_samples", [1, 2])
    @pytest.mark.parametrize("fusion", [False, True])
    @pytest.mark.parametrize("host", [False, True])
    def test_written_once_complete_or_not_at_all(
        self, ds, batches, tmp_path, monkeypatch, host, fusion, n_samples
    ):
        """GSNP on the GPU or the host, fused (megabatches of two windows,
        ``MEGABATCH_WINDOWS`` patched) or per window, solo or a cohort of
        two."""
        monkeypatch.setattr(pipeline_mod, "MEGABATCH_WINDOWS", 2)
        job = {"engine": "gsnp_cpu" if host else "gsnp", "fusion": fusion}
        self._check(ds, batches, tmp_path, monkeypatch, job, n_samples)

    def test_dense_baseline_written_once_complete_or_not_at_all(
        self, ds, batches, tmp_path, monkeypatch
    ):
        """The dense baseline has no cohort: solo only."""
        job = CHAINS["soapsnp"]
        self._check(ds, batches, tmp_path, monkeypatch, job, 1)

    @staticmethod
    def _check(ds, batches, tmp_path, monkeypatch, job, n_samples):
        out = tmp_path / "out"
        text = job["engine"] == "soapsnp"
        spec = JobSpec(window=WINDOW, output=str(out), compressed=not text,
                       **job)
        detector = GsnpDetector(spec=spec)
        if n_samples > 1:
            detector.sample_batches = batches[:n_samples]
        res = detector.run(ds)
        write_job_output(res, spec)
        for i, member in enumerate(res.samples):
            want = format_rows(member.table) if text \
                else member.compressed_output
            assert cohort_output_path(out, i).read_bytes() == want
        for path in tmp_path.iterdir():
            path.unlink()

        # From the fifth window decoded on, every window fails: earlier
        # launch batches have already produced output on every chain, and
        # the shard's retries fail too until the budget is spent.
        module = soapsnp_pipeline_mod if text else pipeline_mod
        real = module.extract_observations
        calls = []

        def flaky(window):
            calls.append(window)
            if len(calls) >= 5:
                raise RuntimeError("window 5 failed")
            return real(window)

        monkeypatch.setattr(module, "extract_observations", flaky)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradationWarning)
            with pytest.raises(ShardError, match="3 attempts") as raised:
                write_job_output(detector.run(ds), spec)
        assert str(raised.value.__cause__) == "window 5 failed"
        assert list(tmp_path.iterdir()) == []  # no file, no .part litter


class TestCallingThread:
    def test_serial_run_starts_no_thread(self, ds, batches, monkeypatch):
        """The simulator runs on the calling thread: a serial run of any
        chain, solo or a cohort of two, starts no thread."""

        def refuse(thread):
            raise AssertionError(f"a serial run started {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for chain, job in CHAINS.items():
            pipe = _pipe(**job)
            pipe.run(ds)
            if chain == "fused":
                pipe.run_cohort(ds, batches[:2])
            _release(pipe)
