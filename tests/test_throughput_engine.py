"""Throughput engine: device residency never changes results.

Persistent device residency is a pure wall-clock optimization: a run that
hits the resident score tables must produce bitwise-identical tables,
compressed output and per-phase event counters to a fresh pipeline's run,
and the simulator's fast transaction engine must agree with the reference
sentinel sort and a brute-force oracle.  These tests pin that invariant at
the serial pipeline and the transaction counter, plus the once-per-worker
residency guarantee.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JobSpec, create_pipeline
from repro.core import likelihood, pipeline
from repro.exec import execute
from repro.gpusim.device import Device
from repro.gpusim.memory import (
    _count_transactions_reference,
    count_transactions,
)

WINDOW = 512


def _counters(profile):
    """Event counters of a profile, excluding measured wall seconds."""
    out = {}
    for name, rec in profile.records.items():
        gpu = rec.gpu.as_dict() if hasattr(rec.gpu, "as_dict") else vars(rec.gpu)
        out[name] = {
            "cpu": dict(vars(rec.cpu)),
            "disk": dict(vars(rec.disk)),
            "gpu": dict(gpu),
            "transfer_bytes": rec.transfer_bytes,
            "fixed_seconds": rec.fixed_seconds,
        }
    return out


class TestTogglesParity:
    """A run that hits residency is bitwise a fresh pipeline's run."""

    def test_serial_pipeline_on_vs_off(self, small_dataset):
        spec = JobSpec(engine="gsnp", window=WINDOW)
        warm = create_pipeline(spec=spec)
        fresh = create_pipeline(spec=spec)
        try:
            warm.run(small_dataset)
            # The second run hits the resident tables and must still match
            # a fresh pipeline's first run bit for bit.
            hit = warm.run(small_dataset)
            assert warm._cached_device.resident.hits == 1
            ref = fresh.run(small_dataset)
        finally:
            warm.release_cache()
            fresh.release_cache()
        assert hit.table.equals(ref.table)
        assert hit.compressed_output == ref.compressed_output
        assert _counters(hit.profile) == _counters(ref.profile)


class TestResidency:
    """Score tables are built and uploaded exactly once per job."""

    def _upload_counter(self, monkeypatch):
        counts = {"new_p_matrix": 0}
        orig = Device.to_device

        def counting(self, host, name="anon", space="global"):
            if name == "new_p_matrix":
                counts["new_p_matrix"] += 1
            return orig(self, host, name, space)

        monkeypatch.setattr(Device, "to_device", counting)
        return counts

    def test_uploaded_once_per_worker(self, small_dataset, monkeypatch):
        counts = self._upload_counter(monkeypatch)
        builds = []
        build = pipeline.build_new_p_matrix

        def counting_build(p_matrix):
            builds.append(1)
            return build(p_matrix)

        # Every module that can build the table: the calibration, and the
        # upload's fallback for callers without one.
        for module in (pipeline, likelihood):
            monkeypatch.setattr(module, "build_new_p_matrix", counting_build)
        # The serial lane runs all 4 shards in-process: one calibration,
        # one build, one lane, one pipeline, one upload — despite four
        # shard runs.  A second job builds and uploads once more.
        spec = JobSpec(engine="gsnp", window=WINDOW, shard_size=1024)
        for job in (1, 2):
            execute(small_dataset, spec=spec)
            assert (counts["new_p_matrix"], len(builds)) == (job, job)

    def test_release_cache_frees_resident_tables(self, small_dataset):
        pipe = create_pipeline(
            spec=JobSpec(engine="gsnp", window=WINDOW)
        )
        pipe.run(small_dataset)
        device = pipe._cached_device
        assert device is not None and len(device.resident) == 1
        pipe.release_cache()
        assert len(device.resident) == 0
        assert pipe._cached_device is None


def _oracle(indices, itemsize, warp_size, segment_bytes=128):
    """Brute-force per-warp set-of-touched-segments."""
    idx = np.asarray(indices).ravel()
    total = 0
    for w0 in range(0, idx.size, warp_size):
        segs = set()
        for i in idx[w0:w0 + warp_size]:
            if i >= 0:
                segs.add((int(i) * itemsize) // segment_bytes)
        total += len(segs)
    return total


class TestTransactionFastPaths:
    """Fast transaction engines vs the reference vs the brute oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1, max_size=300,
        ),
        itemsize=st.sampled_from([1, 4, 8]),
        warp_size=st.sampled_from([8, 32]),
    )
    def test_all_live_hint_matches_oracle(self, indices, itemsize, warp_size):
        idx = np.array(indices, dtype=np.int64)
        got = count_transactions(
            idx, itemsize, warp_size=warp_size, all_live=True
        )
        assert got == _oracle(idx, itemsize, warp_size)
        assert got == _count_transactions_reference(
            idx, itemsize, warp_size, 128
        )

    @settings(max_examples=150, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=-1, max_value=5000),
            min_size=0, max_size=300,
        ),
        itemsize=st.sampled_from([1, 2, 4, 8]),
        warp_size=st.sampled_from([4, 8, 32]),
    )
    def test_fast_engine_matches_reference(self, indices, itemsize, warp_size):
        idx = np.array(indices, dtype=np.int64)
        fast = count_transactions(idx, itemsize, warp_size=warp_size)
        assert fast == _count_transactions_reference(
            idx, itemsize, warp_size, 128
        )
        assert fast == _oracle(idx, itemsize, warp_size)

    @settings(max_examples=100, deadline=None)
    @given(
        indices=st.lists(
            st.integers(min_value=0, max_value=20_000),
            min_size=1, max_size=400,
        ),
        descending=st.booleans(),
        itemsize=st.sampled_from([2, 4]),
    )
    def test_monotonic_patterns(self, indices, descending, itemsize):
        idx = np.sort(np.array(indices, dtype=np.int64))
        if descending:
            idx = idx[::-1].copy()
        got = count_transactions(idx, itemsize, all_live=True)
        assert got == _oracle(idx, itemsize, 32)

    def test_memo_survives_repeat_queries(self):
        idx = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
        first = count_transactions(idx, 4, warp_size=4)
        again = count_transactions(idx, 4, warp_size=4)
        assert first == again == _oracle(idx, 4, 4)
