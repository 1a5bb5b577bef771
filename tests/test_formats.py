"""File formats: FASTA, SOAP, prior, CNS table, windowed reader."""

import numpy as np
import pytest

from repro.align.records import AlignmentBatch
from repro.errors import FormatError, PipelineError
from repro.formats import (
    NO_BASE,
    ResultTable,
    Window,
    WindowReader,
    format_rows,
    parse_rows,
    read_cns,
    read_fasta,
    read_prior,
    read_soap,
    write_cns,
    write_fasta,
    write_prior,
    write_soap,
)
from repro.seqsim import generate_dataset, DatasetSpec, synthesize_reference
from repro.seqsim.datasets import KnownSnpPrior


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        DatasetSpec(name="chrF", n_sites=3000, depth=8, coverage=0.9, seed=55)
    )


class TestFasta:
    def test_roundtrip(self, tmp_path):
        refs = [synthesize_reference(f"chr{i}", 777, seed=i) for i in (1, 2)]
        path = tmp_path / "x.fa"
        nbytes = write_fasta(path, refs)
        assert nbytes == path.stat().st_size
        back = read_fasta(path)
        assert len(back) == 2
        for a, b in zip(refs, back):
            assert a.name == b.name
            assert np.array_equal(a.codes, b.codes)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "e.fa"
        p.write_text("")
        with pytest.raises(FormatError):
            read_fasta(p)

    def test_data_before_header_rejected(self, tmp_path):
        p = tmp_path / "bad.fa"
        p.write_text("ACGT\n>x\nACGT\n")
        with pytest.raises(FormatError):
            read_fasta(p)


class TestSoap:
    def test_roundtrip(self, tmp_path, dataset):
        batch = dataset.reads
        path = tmp_path / "x.soap"
        nbytes = write_soap(path, batch)
        assert nbytes == path.stat().st_size
        back = read_soap(path)
        assert back.chrom == batch.chrom
        assert np.array_equal(back.pos, batch.pos)
        assert np.array_equal(back.strand, batch.strand)
        assert np.array_equal(back.hits, batch.hits)
        assert np.array_equal(back.bases, batch.bases)
        assert np.array_equal(back.quals, batch.quals)

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "bad.soap"
        p.write_text("only\tthree\tfields\n")
        with pytest.raises(FormatError, match="8 fields"):
            read_soap(p)

    def test_bad_strand(self, tmp_path):
        p = tmp_path / "bad.soap"
        p.write_text("r\tACGT\t!!!!\t1\t4\t*\tchr\t1\n")
        with pytest.raises(FormatError, match="strand"):
            read_soap(p)

    def test_length_mismatch(self, tmp_path):
        p = tmp_path / "bad.soap"
        p.write_text("r\tACGT\t!!!!\t1\t5\t+\tchr\t1\n")
        with pytest.raises(FormatError, match="length"):
            read_soap(p)

    def test_second_chromosome_rejected(self, tmp_path):
        """One file is one chromosome's stream: the first record of a
        second one is a structural error, even with a quarantine set."""
        p = tmp_path / "two.soap"
        p.write_text("r\tACGT\t!!!!\t1\t4\t+\tchrA\t1\n"
                     "r\tACGT\t!!!!\t1\t4\t+\tchrB\t9\n")
        q = tmp_path / "q.txt"
        with pytest.raises(FormatError, match=r"two\.soap:2: mixed chrom"):
            read_soap(p, quarantine=q)
        assert not q.exists()

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "e.soap"
        p.write_text("")
        with pytest.raises(FormatError, match="empty"):
            read_soap(p)


class TestPrior:
    def test_roundtrip(self, tmp_path, dataset):
        path = tmp_path / "x.prior"
        write_prior(path, "chrF", dataset.prior)
        back = read_prior(path, chrom="chrF")
        assert np.array_equal(back.positions, dataset.prior.positions)
        assert np.allclose(back.rates, dataset.prior.rates, atol=1e-6)

    def test_chrom_filter(self, tmp_path):
        p = tmp_path / "x.prior"
        p.write_text("chrA\t5\t0.1\nchrB\t9\t0.2\n")
        got = read_prior(p, chrom="chrB")
        assert got.n_sites == 1 and got.positions[0] == 8

    def test_rate_out_of_range(self, tmp_path):
        p = tmp_path / "x.prior"
        p.write_text("chrA\t5\t1.5\n")
        with pytest.raises(FormatError):
            read_prior(p)


def _toy_table(n=5):
    rng = np.random.default_rng(0)
    return ResultTable(
        chrom="chrT",
        pos=np.arange(1, n + 1, dtype=np.int64),
        ref_base=rng.integers(0, 4, n).astype(np.uint8),
        genotype=rng.integers(0, 10, n).astype(np.uint8),
        quality=rng.integers(0, 99, n).astype(np.uint8),
        best_base=rng.integers(0, 4, n).astype(np.uint8),
        avg_qual_best=rng.integers(0, 40, n).astype(np.uint8),
        count_uni_best=rng.integers(0, 30, n).astype(np.uint16),
        count_all_best=rng.integers(0, 30, n).astype(np.uint16),
        second_base=np.full(n, NO_BASE, dtype=np.uint8),
        avg_qual_second=np.zeros(n, dtype=np.uint8),
        count_uni_second=np.zeros(n, dtype=np.uint16),
        count_all_second=np.zeros(n, dtype=np.uint16),
        depth=rng.integers(0, 40, n).astype(np.uint16),
        rank_sum=np.round(rng.random(n), 2).astype(np.float32),
        copy_num=np.round(rng.random(n) * 3, 2).astype(np.float32),
        known_snp=rng.integers(0, 2, n).astype(np.uint8),
    )


class TestResultTable:
    def test_text_roundtrip(self):
        table = _toy_table(50)
        back = parse_rows(format_rows(table))
        assert back.equals(table)

    def test_file_roundtrip(self, tmp_path):
        table = _toy_table(20)
        path = tmp_path / "x.cns"
        write_cns(path, table)
        assert read_cns(path).equals(table)

    def test_seventeen_columns(self):
        table = _toy_table(3)
        line = format_rows(table).decode().splitlines()[0]
        assert len(line.split("\t")) == 17

    def test_append_mode(self, tmp_path):
        table = _toy_table(4)
        path = tmp_path / "x.cns"
        write_cns(path, table)
        write_cns(path, table, append=True)
        assert read_cns(path).n_sites == 8

    def test_validate_catches_shape(self):
        table = _toy_table(5)
        table.depth = table.depth[:3]
        with pytest.raises(ValueError):
            table.validate()

    def test_validate_catches_bad_genotype(self):
        table = _toy_table(5)
        table.genotype[0] = 11
        with pytest.raises(ValueError):
            table.validate()

    def test_equals_detects_difference(self):
        a, b = _toy_table(5), _toy_table(5)
        assert a.equals(b)
        b.quality[2] += 1
        assert not a.equals(b)

    def test_concat(self):
        a, b = _toy_table(3), _toy_table(4)
        assert a.concat(b).n_sites == 7

    def test_bad_column_count_rejected(self):
        with pytest.raises(FormatError):
            parse_rows(b"a\tb\tc\n")

    def test_empty_table(self):
        t = ResultTable.empty("chrE")
        assert t.n_sites == 0
        t.validate()


class TestWindowReader:
    def test_window_count(self, dataset):
        batch = dataset.reads
        reader = WindowReader(batch, dataset.n_sites, 1000)
        assert reader.n_windows == 3
        windows = list(reader)
        assert [w.start for w in windows] == [0, 1000, 2000]
        assert windows[-1].end == dataset.n_sites

    def test_every_read_delivered_to_its_windows(self, dataset):
        batch = dataset.reads
        reader = WindowReader(batch, dataset.n_sites, 700)
        seen = 0
        for w in reader:
            r = w.reads
            # Each delivered read overlaps the window.
            assert np.all(r.pos < w.end)
            assert np.all(r.pos + r.read_len > w.start)
            seen += r.n_reads
        # Boundary-spanning reads are delivered twice, so seen >= total.
        assert seen >= batch.n_reads

    def test_single_window_covers_everything(self, dataset):
        batch = dataset.reads
        reader = WindowReader(batch, dataset.n_sites, dataset.n_sites)
        (w,) = list(reader)
        assert w.reads.n_reads == batch.n_reads

    def test_invalid_window_size(self, dataset):
        batch = dataset.reads
        with pytest.raises(PipelineError):
            WindowReader(batch, dataset.n_sites, 0)

    def test_reads_past_reference_rejected(self):
        batch = AlignmentBatch(
            chrom="c", read_len=10,
            pos=np.array([95], dtype=np.int64),
            strand=np.zeros(1, dtype=np.uint8),
            hits=np.ones(1, dtype=np.uint8),
            bases=np.zeros((1, 10), dtype=np.uint8),
            quals=np.zeros((1, 10), dtype=np.uint8),
        )
        with pytest.raises(PipelineError):
            WindowReader(batch, 100, 50)
