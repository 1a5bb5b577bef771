"""Sequencing simulation: reference, diploid, quality, reads, datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import BASES, COMPLEMENT_CODE
from repro.seqsim import (
    CH1_SPEC,
    CH21_SPEC,
    DatasetSpec,
    QualityModel,
    covered_blocks,
    dataset_summary,
    generate_dataset,
    simulate_diploid,
    simulate_reads,
    synthesize_reference,
    whole_genome_specs,
)
from repro.seqsim.datasets import HG_CHROM_MBP, KnownSnpPrior
from repro.seqsim.reads import reverse_complement_view
from repro.seqsim.reference import Reference


class TestReference:
    def test_length_and_codes(self):
        ref = synthesize_reference("x", 10_000, seed=1)
        assert ref.length == 10_000
        assert ref.codes.max() <= 3

    def test_gc_content_respected(self):
        ref = synthesize_reference("x", 200_000, gc_content=0.41, seed=2)
        gc = np.isin(ref.codes, [1, 2]).mean()
        assert abs(gc - 0.41) < 0.01

    def test_deterministic_by_seed(self):
        a = synthesize_reference("x", 1000, seed=7)
        b = synthesize_reference("x", 1000, seed=7)
        assert np.array_equal(a.codes, b.codes)

    def test_string_roundtrip(self):
        ref = synthesize_reference("x", 500, seed=3)
        text = "".join(BASES[c] for c in ref.codes)
        back = Reference.from_string("x", text)
        assert np.array_equal(back.codes, ref.codes)

    def test_invalid_char_rejected(self):
        with pytest.raises(ValueError):
            Reference.from_string("x", "ACGX")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            synthesize_reference("x", 0)
        with pytest.raises(ValueError):
            synthesize_reference("x", 10, gc_content=1.5)


class TestDiploid:
    @pytest.fixture(scope="class")
    def diploid(self):
        ref = synthesize_reference("x", 50_000, seed=4)
        return simulate_diploid(ref, snp_rate=2e-3, seed=5)

    def test_snp_count_near_rate(self, diploid):
        assert 60 <= diploid.n_snps <= 140  # 100 expected

    def test_haplotypes_differ_only_at_snps(self, diploid):
        ref = diploid.reference.codes
        diff1 = np.nonzero(diploid.hap1 != ref)[0]
        diff2 = np.nonzero(diploid.hap2 != ref)[0]
        snps = set(diploid.snp_positions.tolist())
        assert set(diff1.tolist()) <= snps
        assert set(diff2.tolist()) <= snps

    def test_genotypes_ordered(self, diploid):
        g = diploid.snp_genotypes
        assert np.all(g[:, 0] <= g[:, 1])

    def test_every_snp_alters_some_haplotype(self, diploid):
        ref = diploid.reference.codes
        for p in diploid.snp_positions:
            assert (
                diploid.hap1[p] != ref[p] or diploid.hap2[p] != ref[p]
            )

    def test_snp_genotypes_match_haplotypes(self, diploid):
        for p, g in zip(diploid.snp_positions[:20],
                        diploid.snp_genotypes[:20]):
            hap = sorted([int(diploid.hap1[p]), int(diploid.hap2[p])])
            assert [int(g[0]), int(g[1])] == hap

    def test_transition_bias(self):
        ref = synthesize_reference("x", 200_000, seed=6)
        d = simulate_diploid(ref, snp_rate=5e-3, titv=4.0, seed=7)
        transitions = 0
        for p, (a1, a2) in zip(d.snp_positions, d.snp_genotypes):
            r = ref.codes[p]
            alt = a2 if a1 == r else a1
            if {int(r), int(alt)} in ({0, 2}, {1, 3}):
                transitions += 1
        # titv=4 -> ~2/3 transitions among alts.
        assert transitions / d.n_snps > 0.5

    def test_invalid_rates_rejected(self):
        ref = synthesize_reference("x", 100, seed=1)
        with pytest.raises(ValueError):
            simulate_diploid(ref, snp_rate=1.5)
        with pytest.raises(ValueError):
            simulate_diploid(ref, het_fraction=-0.1)


class TestQualityModel:
    def test_scores_in_range(self, rng):
        qm = QualityModel()
        q = qm.sample(100, 100, rng)
        assert q.min() >= qm.min_q and q.max() <= qm.max_q

    def test_decay_along_read(self, rng):
        qm = QualityModel()
        q = qm.sample(3000, 100, rng)
        assert q[:, :10].mean() > q[:, -10:].mean() + 5

    def test_quality_runs_exist(self, rng):
        """Binned qualities plateau (the RLE-DICT prerequisite)."""
        qm = QualityModel()
        q = qm.sample(200, 100, rng)
        changes = (np.diff(q.astype(int), axis=1) != 0).mean()
        assert changes < 0.5  # average run length > 2

    def test_error_rate_second_generation(self):
        """~2% error rate regime of second-generation sequencing."""
        qm = QualityModel()
        rate = np.mean(10.0 ** (-qm.cycle_means(100) / 10.0))
        assert 0.002 < rate < 0.05

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            QualityModel(min_q=10, max_q=5)
        with pytest.raises(ValueError):
            QualityModel(max_q=64)

    def test_read_len_one(self, rng):
        q = QualityModel().sample(5, 1, rng)
        assert q.shape == (5, 1)


class TestCoveredBlocks:
    def test_full_coverage_single_block(self, rng):
        blocks = covered_blocks(1000, 1.0, 100, 50, rng)
        assert np.array_equal(blocks, [[0, 1000]])

    def test_partial_coverage_fraction(self, rng):
        blocks = covered_blocks(100_000, 0.7, 2000, 100, rng)
        covered = (blocks[:, 1] - blocks[:, 0]).sum()
        assert abs(covered / 100_000 - 0.7) < 0.05

    def test_invalid_coverage(self, rng):
        with pytest.raises(ValueError):
            covered_blocks(1000, 0.0, 100, 50, rng)


class TestReads:
    @pytest.fixture(scope="class")
    def setup(self):
        ref = synthesize_reference("x", 30_000, seed=8)
        d = simulate_diploid(ref, seed=9)
        rs = simulate_reads(d, depth=10.0, coverage=0.8, read_len=100, seed=10)
        return d, rs

    def test_depth_matches(self, setup):
        d, rs = setup
        depth = rs.n_reads * rs.read_len / d.reference.length
        assert abs(depth - 10.0) < 0.5

    def test_sorted_by_position(self, setup):
        _, rs = setup
        assert np.all(np.diff(rs.pos) >= 0)

    def test_reads_fit_reference(self, setup):
        d, rs = setup
        assert rs.pos.min() >= 0
        assert rs.pos.max() + rs.read_len <= d.reference.length

    def test_error_rate_low(self, setup):
        d, rs = setup
        idx = rs.pos[:, None] + np.arange(rs.read_len)[None, :]
        ref_matches = (rs.bases == d.hap1[idx]) | (rs.bases == d.hap2[idx])
        assert ref_matches.mean() > 0.95

    def test_both_strands_present(self, setup):
        _, rs = setup
        assert 0.4 < rs.strand.mean() < 0.6

    def test_multihit_fraction(self, setup):
        _, rs = setup
        assert 0.02 < (rs.hits > 1).mean() < 0.10

    def test_validate_catches_bad_scores(self, setup):
        _, rs = setup
        bad = rs.quals.copy()
        bad[0, 0] = 80
        import dataclasses

        broken = dataclasses.replace(rs, quals=bad)
        with pytest.raises(ValueError):
            broken.validate()

    def test_reverse_complement_view(self, setup):
        _, rs = setup
        rev = np.nonzero(rs.strand == 1)[0]
        i = int(rev[0])
        b, q = reverse_complement_view(rs, i)
        assert np.array_equal(b, COMPLEMENT_CODE[rs.bases[i][::-1]])
        assert np.array_equal(q, rs.quals[i][::-1])

    def test_read_len_longer_than_reference_rejected(self):
        ref = synthesize_reference("x", 50, seed=1)
        d = simulate_diploid(ref, seed=1)
        with pytest.raises(ValueError):
            simulate_reads(d, depth=5, read_len=100)


class TestDatasets:
    def test_table2_ch21_replica(self):
        ds = generate_dataset(CH21_SPEC)
        s = dataset_summary(ds)
        assert s["sites"] == 47_000
        assert abs(s["depth"] - 9.6) < 0.3
        assert abs(s["coverage"] - 0.68) < 0.04

    def test_table2_specs_match_paper(self):
        assert CH1_SPEC.n_sites == 247_000 and CH1_SPEC.depth == 11.0
        assert CH21_SPEC.coverage == 0.68

    def test_whole_genome_24_sequences(self):
        specs = whole_genome_specs()
        assert len(specs) == 24
        assert len(HG_CHROM_MBP) == 24
        names = {s.name for s in specs}
        assert "chr1-sim" in names and "chrY-sim" in names

    def test_prior_contains_mostly_real_snps(self):
        ds = generate_dataset(
            DatasetSpec(name="t", n_sites=60_000, depth=8, coverage=0.9,
                        snp_rate=2e-3, seed=77)
        )
        planted = set(ds.diploid.snp_positions.tolist())
        known = set(ds.prior.positions.tolist())
        overlap = len(known & planted) / max(len(known), 1)
        assert overlap > 0.5  # known SNPs plus decoys

    def test_prior_rate_lookup(self):
        prior = KnownSnpPrior(
            positions=np.array([10, 20], dtype=np.int64),
            rates=np.array([0.3, 0.4]),
        )
        out = prior.rate_at(np.array([5, 10, 20, 30]), novel_rate=0.001)
        assert np.allclose(out, [0.001, 0.3, 0.4, 0.001])

    def test_prior_rate_lookup_empty(self):
        prior = KnownSnpPrior(
            positions=np.empty(0, dtype=np.int64),
            rates=np.empty(0, dtype=np.float64),
        )
        out = prior.rate_at(np.array([1, 2]), novel_rate=0.01)
        assert np.allclose(out, 0.01)

    def test_generation_deterministic(self):
        spec = DatasetSpec(name="t", n_sites=5000, depth=5, coverage=0.9, seed=3)
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        assert np.array_equal(a.reads.bases, b.reads.bases)
        assert np.array_equal(a.prior.positions, b.prior.positions)
