"""Cross-module integration: files on disk, engines, properties at random.

These tests exercise the same seams a downstream user would: write the
three input files, read them back, call with every engine, compress,
decompress, and compare against planted truth — including under
hypothesis-randomized dataset parameters.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DatasetSpec,
    GsnpDetector,
    GsnpPipeline,
    SoapsnpPipeline,
    generate_dataset,
)
from repro.compress import CompressedResultReader
from repro.formats import (
    read_cns,
    read_fasta,
    read_prior,
    read_soap,
    write_fasta,
    write_prior,
    write_soap,
)
from repro.seqsim.reads import reverse_complement_view
from repro.serve.runner import write_job_output


class TestFileRoundtripPipeline:
    """Dataset -> files -> parse -> call == in-memory call."""

    @pytest.fixture(scope="class")
    def file_dataset(self, small_dataset, tmp_path_factory):
        d = tmp_path_factory.mktemp("files")
        write_fasta(d / "ref.fa", [small_dataset.reference])
        write_soap(d / "aln.soap", small_dataset.reads)
        write_prior(d / "known.prior", small_dataset.reference.name,
                    small_dataset.prior)
        ref = read_fasta(d / "ref.fa")[0]
        aln = read_soap(d / "aln.soap")
        prior = read_prior(d / "known.prior")
        return replace(small_dataset, reference=ref, reads=aln, prior=prior)

    def test_file_path_equals_memory_path(self, file_dataset, small_dataset):
        mem = GsnpPipeline(window_size=2000, mode="cpu").run(small_dataset)
        file = GsnpPipeline(window_size=2000, mode="cpu").run(file_dataset)
        assert file.table.equals(mem.table)

    def test_text_output_reparses_identically(
        self, small_dataset, tmp_path
    ):
        path = tmp_path / "out.cns"
        det = GsnpDetector(engine="soapsnp", window=2000, output=str(path))
        res = det.run(small_dataset)
        write_job_output(res, det.spec)
        assert read_cns(path).equals(res.table)

    def test_compressed_output_reader_matches_text(
        self, small_dataset, tmp_path
    ):
        gsnp_path = tmp_path / "out.gsnp"
        det = GsnpDetector(engine="gsnp", window=1700, output=str(gsnp_path),
                           compressed=True)
        res = det.run(small_dataset)
        write_job_output(res, det.spec)
        reader = CompressedResultReader(gsnp_path)
        assert reader.read_all().equals(res.table)


class TestAlignerLoop:
    def test_machine_reads_to_calls_via_aligner(self):
        """The upstream path: machine-orientation reads -> aligner -> caller."""
        from repro.align import Aligner

        ds = generate_dataset(
            DatasetSpec(name="chrFQ", n_sites=6000, depth=10.0,
                        coverage=1.0, multihit_fraction=0.0, seed=61)
        )
        rs = ds.reads
        reads = np.empty_like(rs.bases)
        quals = np.empty_like(rs.quals)
        for i in range(rs.n_reads):
            reads[i], quals[i] = reverse_complement_view(rs, i)
        batch = Aligner(ds.reference, max_mismatches=3).align_batch(
            reads, quals
        )
        assert batch.n_reads > 0.7 * rs.n_reads
        # The simulated individual with its reads re-aligned.
        aligned_ds = replace(ds, reads=batch)
        det = GsnpDetector(engine="gsnp_cpu", min_quality=13)
        res = det.run(aligned_ds)
        acc = det.score(res.table, aligned_ds, min_quality=13)
        assert acc.precision > 0.7


class TestRandomizedConsistency:
    """The §IV-G property under randomized dataset parameters."""

    @given(
        depth=st.floats(3.0, 20.0),
        coverage=st.floats(0.5, 1.0),
        snp_rate=st.floats(1e-4, 5e-3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_three_engines_bitwise_equal(self, depth, coverage, snp_rate, seed):
        ds = generate_dataset(
            DatasetSpec(
                name="chrH", n_sites=1500, depth=depth, coverage=coverage,
                snp_rate=snp_rate, seed=seed,
            )
        )
        soap = SoapsnpPipeline(window_size=600).run(ds).table
        cpu = GsnpPipeline(window_size=700, mode="cpu").run(ds).table
        gpu = GsnpPipeline(window_size=800, mode="gpu").run(ds).table
        assert soap.equals(cpu)
        assert soap.equals(gpu)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_compression_lossless_random_datasets(self, seed):
        from repro.compress import decode_table, encode_table

        ds = generate_dataset(
            DatasetSpec(name="chrZ", n_sites=1200, depth=8.0, coverage=0.8,
                        seed=seed)
        )
        table = SoapsnpPipeline(window_size=1200).run(ds).table
        decoded, _ = decode_table(encode_table(table))
        assert decoded.equals(table)


class TestExtremeDatasets:
    def test_zero_depth_dataset(self):
        """A dataset with (almost) no reads: every site calls hom-ref."""
        ds = generate_dataset(
            DatasetSpec(name="chrE", n_sites=2000, depth=0.1, coverage=0.9,
                        seed=71)
        )
        res = GsnpPipeline(window_size=2000, mode="cpu").run(ds)
        from repro.soapsnp.posterior import is_snp_call

        assert res.table.n_sites == 2000
        uncovered = res.table.depth == 0
        assert not is_snp_call(res.table)[uncovered].any()

    def test_very_high_depth(self):
        ds = generate_dataset(
            DatasetSpec(name="chrD", n_sites=500, depth=60.0, coverage=1.0,
                        seed=72)
        )
        soap = SoapsnpPipeline(window_size=500).run(ds).table
        gpu = GsnpPipeline(window_size=500, mode="gpu").run(ds).table
        assert soap.equals(gpu)

    def test_no_snps_planted(self):
        ds = generate_dataset(
            DatasetSpec(name="chrN", n_sites=2000, depth=10.0, coverage=0.9,
                        snp_rate=0.0, seed=73)
        )
        det = GsnpDetector(engine="gsnp_cpu", min_quality=20)
        res = det.run(ds)
        # Few high-quality false positives on a monomorphic genome.
        assert len(det.calls(res.table)) <= 2

    def test_single_site_window(self, small_dataset):
        res = GsnpPipeline(window_size=1, mode="cpu").run(small_dataset)
        ref = SoapsnpPipeline(window_size=4000).run(small_dataset)
        assert res.table.equals(ref.table)
