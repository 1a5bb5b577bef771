"""Likelihood: literal Algorithm 1 oracle vs the vectorized canonical engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import N_GENOTYPES
from repro.formats.window import Window
from repro.soapsnp import (
    adjust_scores,
    build_base_occ_site,
    direct_contributions,
    extract_observations,
    likelihood_site_reference,
    nonzero_counts,
    occurrence_ordinals,
    sequential_site_sums,
    window_type_likely,
)
from repro.soapsnp.likelihood import adjust_score_scalar
from repro.stats.tables import dependency_penalty_table


@pytest.fixture(scope="module")
def tiny_setup(tiny_dataset):
    from repro.soapsnp.model import CallingParams
    from repro.soapsnp.p_matrix import build_p_matrix, flatten_p_matrix

    batch = tiny_dataset.reads
    params = CallingParams(read_len=batch.read_len)
    pm = build_p_matrix(batch, tiny_dataset.reference, params)
    pm_flat = flatten_p_matrix(pm)
    penalty = params.penalty_table()
    window = Window(start=0, end=tiny_dataset.n_sites, reads=batch)
    obs = extract_observations(window)
    return tiny_dataset, obs, pm, pm_flat, penalty


class TestAdjust:
    def test_first_observation_unchanged(self):
        pen = dependency_penalty_table()
        assert adjust_score_scalar(30, 1, pen) == 30

    def test_duplicates_penalized(self):
        pen = dependency_penalty_table()
        assert adjust_score_scalar(30, 2, pen) == 27
        assert adjust_score_scalar(30, 3, pen) == 24

    def test_floor_at_zero(self):
        pen = dependency_penalty_table()
        assert adjust_score_scalar(2, 5, pen) == 0

    def test_vectorized_matches_scalar(self):
        pen = dependency_penalty_table()
        scores = np.array([30, 30, 2, 40])
        ordinals = np.array([0, 1, 4, 63])
        got = adjust_scores(scores, ordinals, pen)
        expected = [
            adjust_score_scalar(int(s), int(o) + 1, pen)
            for s, o in zip(scores, ordinals)
        ]
        assert np.array_equal(got, expected)

    def test_ordinal_beyond_table_clamped(self):
        pen = dependency_penalty_table(max_count=4)
        got = adjust_scores(np.array([40]), np.array([100]), pen)
        assert got[0] == max(0, 40 - pen[3])


class TestOccurrenceOrdinals:
    def test_simple_groups(self):
        site = np.array([0, 0, 0, 1])
        base = np.array([0, 0, 1, 0])
        coord = np.array([5, 5, 5, 5])
        strand = np.array([0, 0, 0, 0])
        # First two share (site, base, coord, strand).
        got = occurrence_ordinals(site, base, coord, strand)
        assert list(got) == [0, 1, 0, 0]

    def test_order_within_group_follows_input(self):
        site = np.zeros(4, dtype=np.int64)
        base = np.zeros(4, dtype=np.int64)
        coord = np.array([7, 3, 7, 7])
        strand = np.zeros(4, dtype=np.int64)
        got = occurrence_ordinals(site, base, coord, strand)
        assert list(got) == [0, 0, 1, 2]

    def test_strand_separates_groups(self):
        site = np.zeros(2, dtype=np.int64)
        base = np.zeros(2, dtype=np.int64)
        coord = np.array([5, 5])
        strand = np.array([0, 1])
        assert list(occurrence_ordinals(site, base, coord, strand)) == [0, 0]

    def test_empty(self):
        e = np.empty(0, dtype=np.int64)
        assert occurrence_ordinals(e, e, e, e).size == 0

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_property_counts_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        site = np.sort(rng.integers(0, 10, n))
        base = rng.integers(0, 4, n)
        coord = rng.integers(0, 8, n)
        strand = rng.integers(0, 2, n)
        got = occurrence_ordinals(site, base, coord, strand)
        # Brute force: ordinal = #prior elements with the same key.
        seen = {}
        for i in range(n):
            k = (site[i], base[i], coord[i], strand[i])
            assert got[i] == seen.get(k, 0)
            seen[k] = seen.get(k, 0) + 1


class TestEngineVsOracle:
    """The central correctness property: the vectorized engine equals the
    literal Algorithm 1 loop bit for bit."""

    def test_bitwise_equal_on_busy_sites(self, tiny_setup):
        ds, obs, pm, pm_flat, penalty = tiny_setup
        tl = window_type_likely(obs, pm_flat, penalty)
        nnz = nonzero_counts(obs)
        # The 8 busiest sites plus 4 random ones.
        sites = list(np.argsort(nnz)[-8:]) + [3, 17, 100, 400]
        for s in sites:
            occ = build_base_occ_site(obs, int(s))
            ref = likelihood_site_reference(
                occ, pm, penalty, read_len=ds.reads.read_len
            )
            assert np.array_equal(ref, tl[s]), f"site {s} diverged"

    def test_empty_site_zero_likelihood(self, tiny_setup):
        ds, obs, pm, pm_flat, penalty = tiny_setup
        tl = window_type_likely(obs, pm_flat, penalty)
        nnz = nonzero_counts(obs)
        empty_sites = np.nonzero(nnz == 0)[0]
        if empty_sites.size:
            assert np.all(tl[empty_sites] == 0.0)

    def test_likelihoods_nonpositive(self, tiny_setup):
        _, obs, _, pm_flat, penalty = tiny_setup
        tl = window_type_likely(obs, pm_flat, penalty)
        assert np.all(tl <= 0.0)

    def test_hom_truth_gets_best_likelihood_mostly(self, tiny_setup):
        """Sanity: at high-depth clean sites, the true genotype should win
        the likelihood (before priors)."""
        ds, obs, _, pm_flat, penalty = tiny_setup
        tl = window_type_likely(obs, pm_flat, penalty)
        nnz = nonzero_counts(obs)
        busy = np.nonzero(nnz >= 20)[0][:100]
        correct = 0
        from repro.constants import GENOTYPES

        for s in busy:
            truth = tuple(sorted((int(ds.diploid.hap1[s]),
                                  int(ds.diploid.hap2[s]))))
            if GENOTYPES.index(truth) == int(tl[s].argmax()):
                correct += 1
        assert correct / max(len(busy), 1) > 0.9


class TestSequentialSiteSums:
    def test_matches_python_sum_order(self, rng):
        m, n_sites = 500, 37
        site_lengths = rng.multinomial(m, np.ones(n_sites) / n_sites)
        offsets = np.concatenate([[0], np.cumsum(site_lengths)]).astype(np.int64)
        contrib = rng.standard_normal((m, N_GENOTYPES))
        got = sequential_site_sums(contrib, offsets)
        for s in range(n_sites):
            acc = np.zeros(N_GENOTYPES)
            for j in range(offsets[s], offsets[s + 1]):
                acc += contrib[j]
            assert np.array_equal(got[s], acc)

    def test_empty(self):
        out = sequential_site_sums(
            np.empty((0, N_GENOTYPES)), np.zeros(4, dtype=np.int64)
        )
        assert out.shape == (3, N_GENOTYPES)
        assert np.all(out == 0)


class TestDirectContributions:
    def test_shape_and_finite(self, tiny_setup):
        _, obs, _, pm_flat, penalty = tiny_setup
        sel, _ = obs.counted_offsets()
        q = np.full(sel.size, 30, dtype=np.int64)
        out = direct_contributions(
            pm_flat, q, obs.coord[sel], obs.base[sel]
        )
        assert out.shape == (sel.size, N_GENOTYPES)
        assert np.all(np.isfinite(out))

    def test_matching_genotype_scores_best(self, tiny_setup):
        _, _, _, pm_flat, _ = tiny_setup
        from repro.constants import GENOTYPES

        # Single high-quality A observation: genotypes containing A win.
        out = direct_contributions(
            pm_flat,
            np.array([38]),
            np.array([0]),
            np.array([0]),
        )[0]
        aa = GENOTYPES.index((0, 0))
        tt = GENOTYPES.index((3, 3))
        assert out[aa] > out[tt]
