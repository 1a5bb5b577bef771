"""Aligner substrate: k-mer index, pigeonhole alignment, batch records."""

import numpy as np
import pytest

from repro.align import Aligner, AlignmentBatch, KmerIndex, encode_kmers
from repro.constants import COMPLEMENT_CODE
from repro.seqsim import simulate_diploid, synthesize_reference


@pytest.fixture(scope="module")
def reference():
    return synthesize_reference("chrA", 20_000, seed=31)


@pytest.fixture(scope="module")
def aligner(reference):
    return Aligner(reference, seed_len=13, max_mismatches=2)


class TestKmerEncoding:
    def test_encode_values(self):
        codes = np.array([0, 1, 2, 3], dtype=np.uint8)  # ACGT
        keys = encode_kmers(codes, 2)
        # AC=0b0001=1, CG=0b0110=6, GT=0b1011=11
        assert list(keys) == [1, 6, 11]

    def test_short_sequence_empty(self):
        assert encode_kmers(np.zeros(3, dtype=np.uint8), 5).size == 0

    def test_index_lookup(self, reference):
        idx = KmerIndex.build(reference, 13)
        key = int(encode_kmers(reference.codes[100:113], 13)[0])
        assert 100 in idx.lookup(key).tolist()

    def test_lookup_missing_returns_empty(self, reference):
        idx = KmerIndex.build(reference, 13)
        # A key guaranteed absent: 4^13 is out of the 2-bit packing range.
        assert idx.lookup(-1).size == 0


class TestAlignRead:
    def test_exact_forward_read(self, reference, aligner):
        read = reference.codes[500:600]
        alns = aligner.align_read(read)
        best = alns[0]
        assert best.pos == 500 and best.strand == 0 and best.mismatches == 0

    def test_exact_reverse_read(self, reference, aligner):
        read = COMPLEMENT_CODE[reference.codes[700:800][::-1]]
        alns = aligner.align_read(read)
        best = alns[0]
        assert best.pos == 700 and best.strand == 1 and best.mismatches == 0

    def test_read_with_mismatches(self, reference, aligner):
        read = reference.codes[1000:1100].copy()
        read[10] = (read[10] + 1) % 4
        read[60] = (read[60] + 2) % 4
        alns = aligner.align_read(read)
        assert alns[0].pos == 1000 and alns[0].mismatches == 2

    def test_too_many_mismatches_not_found(self, reference, aligner):
        read = reference.codes[2000:2100].copy()
        for j in (5, 30, 55, 80):
            read[j] = (read[j] + 1) % 4
        hits = [a for a in aligner.align_read(read) if a.pos == 2000]
        assert not hits

    def test_random_read_usually_unaligned(self, aligner, rng):
        read = rng.integers(0, 4, 100).astype(np.uint8)
        # A random 100-mer almost surely matches nowhere.
        assert len(aligner.align_read(read)) == 0

    def test_max_mismatch_zero(self, reference):
        strict = Aligner(reference, max_mismatches=0)
        read = reference.codes[300:400].copy()
        assert strict.align_read(read)[0].mismatches == 0
        read[50] = (read[50] + 1) % 4
        assert all(a.pos != 300 for a in strict.align_read(read))


class TestAlignBatch:
    def test_recovers_simulated_positions(self, reference):
        d = simulate_diploid(reference, snp_rate=0.0, seed=32)
        from repro.seqsim import simulate_reads

        rs = simulate_reads(d, depth=2.0, read_len=100, seed=33,
                            multihit_fraction=0.0)
        aligner = Aligner(reference, max_mismatches=2)
        # Reconstruct machine-orientation reads for alignment.
        from repro.seqsim.reads import reverse_complement_view

        reads = np.empty_like(rs.bases)
        quals = np.empty_like(rs.quals)
        for i in range(rs.n_reads):
            reads[i], quals[i] = reverse_complement_view(rs, i)
        batch = aligner.align_batch(reads, quals)
        # Most reads (those with <=2 errors) align back to their origin.
        recovered = 0
        aligned_pos = {}
        for i in range(batch.n_reads):
            aligned_pos.setdefault(int(batch.pos[i]), 0)
        truth = set(rs.pos.tolist())
        matches = sum(1 for p in batch.pos if int(p) in truth)
        assert batch.n_reads >= 0.8 * rs.n_reads
        assert matches >= 0.95 * batch.n_reads

    def test_batch_output_sorted(self, reference, aligner, rng):
        starts = rng.integers(0, reference.length - 100, 30)
        reads = np.stack([reference.codes[s : s + 100] for s in starts])
        quals = np.full_like(reads, 30)
        batch = aligner.align_batch(reads, quals)
        assert np.all(np.diff(batch.pos) >= 0)

    def test_shape_mismatch_rejected(self, aligner):
        with pytest.raises(ValueError):
            aligner.align_batch(
                np.zeros((2, 10), dtype=np.uint8),
                np.zeros((3, 10), dtype=np.uint8),
            )

    def test_reverse_reads_stored_forward(self, reference, aligner):
        fwd = reference.codes[900:1000]
        rev_read = COMPLEMENT_CODE[fwd[::-1]]
        quals = np.full((1, 100), 30, dtype=np.uint8)
        batch = aligner.align_batch(rev_read[None, :], quals)
        assert batch.n_reads == 1
        assert batch.strand[0] == 1
        assert np.array_equal(batch.bases[0], fwd)


class TestAlignmentBatch:
    def test_simulated_reads_are_a_batch(self, reference):
        d = simulate_diploid(reference, seed=40)
        from repro.seqsim import simulate_reads

        batch = simulate_reads(d, depth=3.0, seed=41)
        assert isinstance(batch, AlignmentBatch)
        assert batch.n_reads == round(3.0 * reference.length / 100)
        assert batch.chrom == reference.name

    def test_slice_and_select(self):
        batch = AlignmentBatch(
            chrom="c", read_len=4,
            pos=np.arange(10, dtype=np.int64),
            strand=np.zeros(10, dtype=np.uint8),
            hits=np.ones(10, dtype=np.uint8),
            bases=np.zeros((10, 4), dtype=np.uint8),
            quals=np.zeros((10, 4), dtype=np.uint8),
        )
        assert batch.slice(2, 5).n_reads == 3
        sel = batch.select(batch.pos % 2 == 0)
        assert sel.n_reads == 5

    def test_concat(self):
        e = AlignmentBatch.empty("c", 4)
        b = AlignmentBatch(
            chrom="c", read_len=4,
            pos=np.array([1], dtype=np.int64),
            strand=np.zeros(1, dtype=np.uint8),
            hits=np.ones(1, dtype=np.uint8),
            bases=np.zeros((1, 4), dtype=np.uint8),
            quals=np.zeros((1, 4), dtype=np.uint8),
        )
        assert AlignmentBatch.concat_all([e, b]).n_reads == 1

    def test_concat_read_len_mismatch(self):
        a = AlignmentBatch.empty("c", 4)
        b = AlignmentBatch.empty("c", 8)
        with pytest.raises(ValueError):
            AlignmentBatch.concat_all([a, b])
