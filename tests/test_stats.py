"""The host-side penalty table and the rank-sum test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.stats import (
    dependency_penalty_table,
    rank_sum_pvalue,
    rank_sum_statistic,
)
from repro.stats.ranksum import rank_sum_pvalues_segmented


class TestPenaltyTable:
    def test_first_observation_unpenalized(self):
        t = dependency_penalty_table()
        assert t[0] == 0

    def test_default_three_phred_per_duplicate(self):
        t = dependency_penalty_table(pcr_dependency=0.5)
        assert t[1] == 3  # 10*log10(2) ~ 3.01
        assert t[2] == 6

    def test_monotone_nondecreasing(self):
        t = dependency_penalty_table()
        assert np.all(np.diff(t) >= 0)

    def test_no_dependency_no_penalty(self):
        t = dependency_penalty_table(pcr_dependency=1.0)
        assert np.all(t == 0)

    def test_invalid_coefficient(self):
        with pytest.raises(ValueError):
            dependency_penalty_table(pcr_dependency=0.0)
        with pytest.raises(ValueError):
            dependency_penalty_table(pcr_dependency=1.5)

    def test_integer_dtype(self):
        assert dependency_penalty_table().dtype == np.int32


class TestRankSum:
    def test_identical_samples_high_pvalue(self):
        x = np.array([30, 31, 32, 33] * 5)
        assert rank_sum_pvalue(x, x) > 0.9

    def test_separated_samples_low_pvalue(self):
        x = np.full(15, 38.0)
        y = np.full(15, 5.0)
        assert rank_sum_pvalue(x, y) < 0.01

    def test_empty_sample_degenerate(self):
        assert rank_sum_pvalue(np.array([]), np.array([1.0])) == 1.0
        assert rank_sum_statistic(np.array([]), np.array([1.0])) == 0.0

    def test_all_tied_degenerate(self):
        x = np.full(5, 7.0)
        assert rank_sum_pvalue(x, x) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 40, 12).astype(float)
        y = rng.integers(0, 40, 8).astype(float)
        assert rank_sum_pvalue(x, y) == pytest.approx(rank_sum_pvalue(y, x))

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy(self, seed):
        """Tie-corrected normal approximation equals scipy.ranksums
        (scipy uses the same approximation without tie correction, so
        compare on tie-free samples)."""
        rng = np.random.default_rng(seed)
        x = rng.permutation(100)[:12].astype(float)
        y = rng.permutation(100)[60:75].astype(float) + 0.5
        ours = rank_sum_pvalue(x, y)
        theirs = sps.ranksums(x, y).pvalue
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_pvalue_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.integers(0, 41, rng.integers(1, 20)).astype(float)
            y = rng.integers(0, 41, rng.integers(1, 20)).astype(float)
            p = rank_sum_pvalue(x, y)
            assert 0.0 <= p <= 1.0


class TestRankSumSegmented:
    """One segmented pass == the scalar test applied segment by segment."""

    # Each segment is a pair of samples; tiny value ranges force heavy
    # ties, and empty / single-element / all-tied samples are all drawn.
    _sample = st.lists(st.integers(0, 5), min_size=0, max_size=12)
    _segments = st.lists(st.tuples(_sample, _sample), min_size=0, max_size=8)

    @staticmethod
    def _flatten(segments, rng):
        seg, val, in_x = [], [], []
        for i, (x, y) in enumerate(segments):
            seg += [i] * (len(x) + len(y))
            val += x + y
            in_x += [True] * len(x) + [False] * len(y)
        order = rng.permutation(len(seg))  # element order must not matter
        return (
            np.array(seg, dtype=np.int64)[order],
            np.array(val, dtype=np.uint8)[order],
            np.array(in_x, dtype=bool)[order],
        )

    @given(_segments, st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_per_segment_scalar(self, segments, seed):
        seg, val, in_x = self._flatten(segments, np.random.default_rng(seed))
        got = rank_sum_pvalues_segmented(seg, val, in_x, len(segments))
        want = np.array(
            [rank_sum_pvalue(np.array(x), np.array(y)) for x, y in segments],
            dtype=np.float64,
        )
        assert np.array_equal(got, want)

    def test_named_degenerate_segments(self):
        segments = [
            ([], [3, 3]),            # empty sample
            ([7] * 5, [7] * 4),      # all values tied
            ([2], [9]),              # single elements
            ([], []),                # nothing at all
            ([1, 1, 2, 40], [1, 2, 2, 2, 3]),
        ]
        seg, val, in_x = self._flatten(segments, np.random.default_rng(0))
        got = rank_sum_pvalues_segmented(seg, val, in_x, len(segments))
        assert got[0] == got[1] == got[3] == 1.0
        for i, (x, y) in enumerate(segments):
            assert got[i] == rank_sum_pvalue(np.array(x), np.array(y))
