"""Streaming SOAP reader: equivalence with the in-memory reader."""

import numpy as np
import pytest

from repro.errors import FormatError, PipelineError
from repro.formats.soap import write_soap
from repro.formats.stream import StreamingSoapReader
from repro.formats.window import WindowReader
from repro.soapsnp import SoapsnpPipeline
from repro.soapsnp.observe import extract_observations


@pytest.fixture(scope="module")
def soap_file(small_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "aln.soap"
    write_soap(path, small_dataset.reads)
    return path


class TestEquivalence:
    @pytest.mark.parametrize("window_size", [500, 1024, 4000])
    def test_same_windows_as_memory_reader(
        self, soap_file, small_dataset, window_size
    ):
        batch = small_dataset.reads
        mem = list(WindowReader(batch, small_dataset.n_sites, window_size))
        streamed = list(
            StreamingSoapReader(
                soap_file, small_dataset.n_sites, window_size
            )
        )
        assert len(streamed) == len(mem)
        for sm, me in zip(streamed, mem):
            assert (sm.start, sm.end) == (me.start, me.end)
            assert sm.reads.n_reads == me.reads.n_reads
            assert np.array_equal(sm.reads.pos, me.reads.pos)
            assert np.array_equal(sm.reads.bases, me.reads.bases)
            assert np.array_equal(sm.reads.quals, me.reads.quals)
            assert np.array_equal(sm.reads.strand, me.reads.strand)
            assert np.array_equal(sm.reads.hits, me.reads.hits)

    def test_same_observations_hence_same_calls(
        self, soap_file, small_dataset
    ):
        """Windows from the stream feed the same counting path."""
        streamed = list(
            StreamingSoapReader(soap_file, small_dataset.n_sites, 1000)
        )
        batch = small_dataset.reads
        mem = list(WindowReader(batch, small_dataset.n_sites, 1000))
        for sw, mw in zip(streamed, mem):
            so = extract_observations(sw)
            mo = extract_observations(mw)
            assert np.array_equal(so.site, mo.site)
            assert np.array_equal(so.score, mo.score)

    def test_bytes_read_counted(self, soap_file, small_dataset):
        reader = StreamingSoapReader(soap_file, small_dataset.n_sites, 2000)
        list(reader)
        assert reader.bytes_read == soap_file.stat().st_size

    def test_chrom_inferred_from_file(self, soap_file, small_dataset):
        reader = StreamingSoapReader(soap_file, small_dataset.n_sites, 2000)
        w = next(iter(reader))
        assert w.reads.chrom == small_dataset.reference.name


class TestValidation:
    def test_unsorted_file_rejected(self, tmp_path):
        p = tmp_path / "bad.soap"
        p.write_text(
            "r0\tACGT\t!!!!\t1\t4\t+\tc\t100\n"
            "r1\tACGT\t!!!!\t1\t4\t+\tc\t50\n"
        )
        with pytest.raises(FormatError, match="sorted"):
            list(StreamingSoapReader(p, 200, 100))

    def test_read_past_reference_rejected(self, tmp_path):
        p = tmp_path / "bad.soap"
        p.write_text("r0\tACGT\t!!!!\t1\t4\t+\tc\t99\n")
        with pytest.raises(PipelineError, match="past"):
            list(StreamingSoapReader(p, 100, 50))

    def test_invalid_window_size(self, soap_file):
        with pytest.raises(PipelineError):
            StreamingSoapReader(soap_file, 100, 0)

    def test_empty_windows_before_first_read(self, tmp_path):
        p = tmp_path / "sparse.soap"
        p.write_text("r0\tACGT\t!!!!\t1\t4\t+\tc\t901\n")
        windows = list(StreamingSoapReader(p, 1000, 100))
        assert len(windows) == 10
        assert all(w.reads.n_reads == 0 for w in windows[:9])
        assert windows[9].reads.n_reads == 1
