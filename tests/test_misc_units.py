"""Unit coverage for the remaining small pieces: recycle, GPU posterior
accounting, fixed-cost scaling, CLI edge cases, the content hash."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.bench.events import PhaseRecord
from repro.content import digest
from repro.core.recycle import gsnp_recycle
from repro.gpusim.device import Device


class TestRecycle:
    def test_accounts_buffer_bytes(self):
        device = Device()
        gsnp_recycle(device, n_words=1000, n_sites=500)
        c = device.counters.get("recycle")
        assert c.launches == 1
        expected = 1000 * 4 + 501 * 8 + 500 * 16 * 8
        assert c.g_store_bytes == expected
        assert c.g_store == -(-expected // 128)

    def test_sparse_recycle_tiny_vs_dense(self):
        """The paper's point: sparse recycle traffic is ~0.01% of the
        dense 131,072 bytes/site."""
        device = Device()
        n_sites = 1000
        n_words = 10 * n_sites  # ~10 observations/site
        gsnp_recycle(device, n_words, n_sites)
        dense_bytes = n_sites * 131072
        sparse_bytes = device.counters.get("recycle").g_store_bytes
        assert sparse_bytes < dense_bytes / 100

    def test_accumulates_across_windows(self):
        device = Device()
        gsnp_recycle(device, 100, 50)
        gsnp_recycle(device, 100, 50)
        assert device.counters.get("recycle").launches == 2


class TestGsnpPosteriorAccounting:
    def test_counters_and_result(self, small_obs, small_dataset,
                                 small_pm_flat, small_penalty):
        from repro.core.posterior import gsnp_posterior
        from repro.soapsnp import CallingParams, summarize_window
        from repro.soapsnp.likelihood import window_type_likely

        params = CallingParams(read_len=100)
        tl = window_type_likely(small_obs, small_pm_flat, small_penalty)
        device = Device()
        ref_codes = small_dataset.reference.codes
        table = gsnp_posterior(
            device, small_obs, 0, ref_codes, small_dataset.prior, tl,
            params, chrom="c",
        )
        expected = summarize_window(
            small_obs, 0, ref_codes, small_dataset.prior, tl, params, "c"
        )
        assert table.equals(expected)
        c = device.counters.get("posterior")
        assert c.launches == 1
        assert c.g_load > 0 and c.g_store > 0
        assert c.g_store_bytes >= small_obs.n_sites * 40


class TestFixedSeconds:
    def test_fixed_cost_does_not_scale(self):
        rec = PhaseRecord(name="x", fixed_seconds=2.0)
        scaled = rec.scaled(1000)
        assert scaled.fixed_seconds == 2.0
        assert scaled.modeled_time() == pytest.approx(2.0, abs=1e-3)

    def test_fixed_cost_adds_to_model(self):
        rec = PhaseRecord(name="x", fixed_seconds=1.5)
        rec.cpu.seq_read_bytes = 4_200_000_000  # 1s
        assert rec.modeled_time() == pytest.approx(2.5, rel=1e-6)


class TestSparsityHistogramBins:
    def test_custom_bins(self):
        from repro.soapsnp.base_occ import sparsity_histogram

        nnz = np.array([0, 0, 5, 5, 100])
        hist = sparsity_histogram(nnz, bin_edges=(0, 1, 10))
        assert hist["[0,1)"] == pytest.approx(40.0)
        assert hist["[1,10)"] == pytest.approx(40.0)
        assert hist["[10,inf)"] == pytest.approx(20.0)

    def test_empty_input(self):
        from repro.soapsnp.base_occ import sparsity_histogram

        hist = sparsity_histogram(np.empty(0, dtype=np.int64))
        assert sum(hist.values()) == 0.0


class TestCliEdgeCases:
    def test_verify_cli_pass(self):
        from repro.cli import main_verify

        rc = main_verify(["--sites", "2000", "--windows", "500,1000"])
        assert rc == 0

    def test_call_without_prior(self, tmp_path):
        import os

        from repro.cli import main_call, main_simulate

        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            main_simulate(["--sites", "3000", "--prefix", "x", "--seed", "5"])
            rc = main_call(["x.fa", "x.soap", "--engine", "gsnp_cpu",
                            "-o", "out.cns"])
            assert rc == 0
            assert (tmp_path / "out.cns").stat().st_size > 0
        finally:
            os.chdir(cwd)

    def test_decompress_missing_file(self, tmp_path):
        from repro.cli import main_decompress
        from repro.errors import CodecError

        with pytest.raises((FileNotFoundError, CodecError)):
            main_decompress([str(tmp_path / "missing.gsnp")])


class TestWholeGenomeSpecs:
    def test_chr_y_gets_half_depth(self):
        from repro.seqsim import whole_genome_specs

        specs = {s.name: s for s in whole_genome_specs(depth=10.0)}
        assert specs["chrY-sim"].depth == 5.0
        assert specs["chr1-sim"].depth == 10.0

    def test_sizes_descend_from_chr1(self):
        from repro.seqsim import whole_genome_specs

        specs = whole_genome_specs()
        by_name = {s.name: s.n_sites for s in specs}
        assert by_name["chr1-sim"] == max(by_name.values())
        assert by_name["chr21-sim"] == min(by_name.values())


class TestDigest:
    def test_framing_is_prefix_free(self):
        assert digest("ab", "c") != digest("a", "bc")
        assert digest(("a",), "b") != digest("a", ("b",))
        a = np.arange(4, dtype=np.int32)
        assert len({digest(a), digest(a.view(np.int16)),
                    digest(a.reshape(2, 2))}) == 3
        assert len({digest(True), digest(1), digest(1.0), digest(None),
                    digest("1")}) == 5

    def test_a_file_stands_for_its_bytes(self, tmp_path):
        a, b = tmp_path / "a.soap", tmp_path / "b.soap"
        a.write_bytes(b"reads")
        b.write_bytes(b"reads")
        assert digest(Path(a)) == digest(Path(b)) != digest(str(a))
        b.write_bytes(b"other reads")
        assert digest(Path(a)) != digest(Path(b))

    def test_unknown_types_are_refused(self):
        with pytest.raises(TypeError, match="cannot digest"):
            digest(object())

    def test_a_sealed_record_keeps_the_plain_sha256_line(self):
        """Ledger records sealed by any version stay readable."""
        from repro.faults.journal import seal, unseal

        blob = b'{"job_id": "j1", "state": "pending"}'
        sealed = hashlib.sha256(blob).hexdigest().encode() + b"\n" + blob
        assert seal(blob) == sealed
        assert unseal(sealed) == blob
