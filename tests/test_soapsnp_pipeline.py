"""SOAPsnp pipeline: window invariance, event accounting, accuracy."""

import numpy as np
import pytest

from repro.bench.events import COMPONENTS
from repro.core.detector import GsnpDetector
from repro.serve.runner import write_job_output
from repro.soapsnp import SoapsnpPipeline, is_snp_call


class TestPipeline:
    @pytest.fixture(scope="class")
    def result(self, small_dataset):
        return SoapsnpPipeline(window_size=1000).run(small_dataset)

    def test_covers_every_site(self, result, small_dataset):
        assert result.table.n_sites == small_dataset.n_sites

    def test_window_size_invariance(self, result, small_dataset):
        """Results must not depend on the windowing (§VI: performance is
        window-dependent, output is not)."""
        other = SoapsnpPipeline(window_size=777).run(small_dataset)
        assert other.table.equals(result.table)

    def test_all_components_recorded(self, result):
        for c in COMPONENTS:
            assert c in result.profile.records, c

    def test_likelihood_dominated_by_dense_scan(self, result, small_dataset):
        """Table I shape: likelihood and recycle dominate the modeled
        time because of the dense base_occ representation."""
        b = result.profile.breakdown()
        assert b["likelihood"] > b["counting"]
        assert b["likelihood"] > b["output"]
        assert b["recycle"] > b["posterior"]

    def test_dense_scan_bytes_match_formula1(self, result, small_dataset):
        rec = result.profile.records["likelihood"]
        assert rec.cpu.seq_read_bytes == small_dataset.n_sites * 131072

    def test_output_bytes_positive_and_text(self, result):
        assert result.output_bytes > result.table.n_sites * 30

    def test_output_file_written(self, small_dataset, tmp_path):
        path = tmp_path / "out.cns"
        det = GsnpDetector(engine="soapsnp", window=2000, output=str(path))
        res = det.run(small_dataset)
        write_job_output(res, det.spec)
        assert path.stat().st_size == res.output_bytes

    def test_accuracy_on_planted_snps(self, result, small_dataset):
        calls = set(
            (result.table.pos[is_snp_call(result.table)] - 1).tolist()
        )
        truth = {
            int(p)
            for p in small_dataset.diploid.snp_positions
            if result.table.depth[int(p)] >= 4
        }
        assert len(calls & truth) / max(len(truth), 1) > 0.8

    def test_wall_times_recorded(self, result):
        assert result.profile.total_wall() > 0
