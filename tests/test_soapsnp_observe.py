"""Observation extraction: canonical order, uniqueness, the 255 cap."""

import numpy as np
import pytest

from repro.align.records import AlignmentBatch
from repro.formats.window import Window, WindowReader
from repro.soapsnp.base_occ import (
    build_base_occ,
    build_base_occ_site,
    nonzero_counts,
    sparsity_histogram,
)
from repro.constants import DEFAULT_WINDOW_GSNP
from repro.soapsnp.observe import canonical_key, extract_observations


class TestExtraction:
    def test_observation_count(self, small_obs, small_batch, small_dataset):
        # Single window over everything: every read base is one observation.
        assert small_obs.n_obs == small_batch.n_reads * small_batch.read_len

    def test_canonical_order_within_site(self, small_obs):
        o = small_obs
        # Composite canonical key must be non-decreasing.
        key = (
            o.site.astype(np.int64) << 20
            | o.base.astype(np.int64) << 18
            | (63 - o.score.astype(np.int64)) << 12
            | o.coord.astype(np.int64) << 2
            | o.strand.astype(np.int64)
        )
        assert np.all(np.diff(key) >= 0)

    def test_unique_flag_matches_hits(self, small_obs):
        assert np.array_equal(small_obs.unique, small_obs.hits == 1)

    def test_counted_subset_of_unique(self, small_obs):
        assert np.all(small_obs.counted <= small_obs.unique)

    def test_no_cap_hit_at_realistic_depth(self, small_obs):
        assert np.array_equal(small_obs.counted, small_obs.unique)

    def test_arrival_is_permutation(self, small_obs):
        a = np.sort(small_obs.arrival)
        assert np.array_equal(a, np.arange(small_obs.n_obs))

    def test_empty_window(self, small_batch):
        w = Window(start=0, end=10, reads=AlignmentBatch.empty("x", 100))
        obs = extract_observations(w)
        assert obs.n_obs == 0
        sel, offsets = obs.counted_offsets()
        assert offsets.size == 11 and offsets[-1] == 0

    def test_window_restriction(self, small_dataset, small_batch):
        reader = WindowReader(small_batch, small_dataset.n_sites, 500)
        windows = list(reader)
        total = sum(extract_observations(w).n_obs for w in windows)
        # Every aligned base lands in exactly one window.
        assert total == small_batch.n_reads * small_batch.read_len
        for w in windows:
            obs = extract_observations(w)
            if obs.n_obs:
                assert obs.site.min() >= 0
                assert obs.site.max() < w.n_sites

    def test_coord_is_machine_cycle(self, small_dataset, small_batch):
        w = Window(start=0, end=small_dataset.n_sites, reads=small_batch)
        obs = extract_observations(w)
        # Reverse-strand observations at the read's first forward offset
        # must carry machine cycle read_len-1 somewhere; check bounds.
        assert obs.coord.max() < small_batch.read_len

    def test_offsets_partition_counted(self, small_obs):
        sel, offsets = small_obs.counted_offsets()
        assert offsets[-1] == sel.size
        assert np.all(np.diff(offsets) >= 0)
        # Every selected observation's site matches its segment.
        site_of = np.repeat(
            np.arange(small_obs.n_sites), np.diff(offsets)
        )
        assert np.array_equal(small_obs.site[sel], site_of)


class TestPackedKey:
    """One stable argsort of the packed key is the five-key lexsort."""

    @staticmethod
    def _fields(rng, n, site_max):
        # Small domains force ties on every field prefix; the extremes
        # (score 0/63, coord 255, base 3, strand 1, the last window
        # site) are always present.
        site = rng.integers(0, site_max + 1, n)
        site[:4] = site_max
        base = rng.integers(0, 4, n).astype(np.uint8)
        score = rng.choice(np.array([0, 1, 30, 62, 63], dtype=np.uint8), n)
        coord = rng.choice(np.array([0, 1, 128, 254, 255], dtype=np.uint8), n)
        strand = rng.integers(0, 2, n).astype(np.uint8)
        base[:2], score[:2], coord[:2], strand[:2] = 3, 63, 255, 1
        return site, base, score, coord, strand

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("site_max", [0, 7, DEFAULT_WINDOW_GSNP])
    def test_order_equals_lexsort(self, seed, site_max):
        rng = np.random.default_rng(seed)
        site, base, score, coord, strand = self._fields(rng, 5000, site_max)
        want = np.lexsort(
            (strand, coord, 63 - score.astype(np.int16), base, site)
        )
        key = canonical_key(site, base, score, coord, strand)
        assert np.array_equal(np.argsort(key, kind="stable"), want)

    def test_equal_keys_are_equal_observations(self):
        rng = np.random.default_rng(9)
        fields = self._fields(rng, 4000, 3)
        key = canonical_key(*fields)
        order = np.argsort(key, kind="stable")
        rows = np.stack([f.astype(np.int64) for f in fields], axis=1)[order]
        key = key[order]
        assert np.array_equal(
            key[1:] != key[:-1], np.any(rows[1:] != rows[:-1], axis=1)
        )


class TestCap255:
    def _window_with_duplicates(self, copies):
        """Many identical reads stacking the same cell."""
        n = copies
        batch = AlignmentBatch(
            chrom="c", read_len=4,
            pos=np.zeros(n, dtype=np.int64),
            strand=np.zeros(n, dtype=np.uint8),
            hits=np.ones(n, dtype=np.uint8),
            bases=np.tile(np.array([0, 1, 2, 3], dtype=np.uint8), (n, 1)),
            quals=np.full((n, 4), 30, dtype=np.uint8),
        )
        return Window(start=0, end=4, reads=batch)

    def test_under_cap_all_counted(self):
        obs = extract_observations(self._window_with_duplicates(200))
        assert obs.counted.sum() == 200 * 4

    def test_over_cap_drops_extras(self):
        obs = extract_observations(self._window_with_duplicates(300))
        # Each of the 4 cells capped at 255.
        assert obs.counted.sum() == 255 * 4
        assert obs.unique.sum() == 300 * 4


class TestBaseOcc:
    def test_dense_matrix_counts(self, small_obs):
        occ = build_base_occ(small_obs)
        assert occ.sum() == small_obs.counted.sum()

    def test_single_site_view_consistent(self, small_obs):
        occ = build_base_occ(small_obs)
        for s in (0, 100, 2000):
            site_occ = build_base_occ_site(small_obs, s)
            assert np.array_equal(site_occ.reshape(-1), occ[s])

    def test_nonzero_counts_match_dense(self, small_obs):
        nnz = nonzero_counts(small_obs)
        occ = build_base_occ(small_obs)
        assert np.array_equal(nnz, (occ > 0).sum(axis=1))

    def test_sparsity_is_paper_regime(self, small_obs):
        """Fig 4b: non-zero share of base_occ ~0.01-0.1%."""
        nnz = nonzero_counts(small_obs)
        pct = 100.0 * nnz.mean() / 131072
        assert 0.001 < pct < 0.1

    def test_sparsity_histogram_sums_to_100(self, small_obs):
        hist = sparsity_histogram(nonzero_counts(small_obs))
        assert sum(hist.values()) == pytest.approx(100.0)

    def test_histogram_mass_in_tens_bucket(self, small_obs):
        """Most sites have tens of non-zeros (Fig 4b)."""
        nnz = nonzero_counts(small_obs)
        assert ((nnz >= 1) & (nnz <= 64)).mean() > 0.5
