"""GSNP pipeline: three-engine consistency, compression, accounting."""

import numpy as np
import pytest

from repro.bench.events import COMPONENTS
from repro.compress.columnar import decode_table
from repro.core.detector import GsnpDetector
from repro.core.pipeline import GsnpPipeline
from repro.errors import PipelineError
from repro.serve.runner import write_job_output
from repro.soapsnp import SoapsnpPipeline


@pytest.fixture(scope="module")
def three_results(small_dataset):
    soap = SoapsnpPipeline(window_size=1500).run(small_dataset)
    cpu = GsnpPipeline(window_size=2000, mode="cpu").run(small_dataset)
    gpu = GsnpPipeline(window_size=2000, mode="gpu").run(small_dataset)
    return soap, cpu, gpu


class TestConsistency:
    """The paper's headline correctness claim: GSNP produces exactly the
    same result as SOAPsnp (§IV-G) — here across all three engines and
    regardless of window boundaries."""

    def test_gsnp_cpu_equals_soapsnp(self, three_results):
        soap, cpu, _ = three_results
        assert cpu.table.equals(soap.table)

    def test_gsnp_gpu_equals_soapsnp(self, three_results):
        soap, _, gpu = three_results
        assert gpu.table.equals(soap.table)

    def test_window_size_invariance_gpu(self, three_results, small_dataset):
        _, _, gpu = three_results
        other = GsnpPipeline(window_size=901, mode="gpu").run(small_dataset)
        assert other.table.equals(gpu.table)

    def test_window_size_invariance_cpu(self, three_results, small_dataset):
        _, cpu, _ = three_results
        other = GsnpPipeline(window_size=450, mode="cpu").run(small_dataset)
        assert other.table.equals(cpu.table)


class TestCompressedOutput:
    def test_decodes_back_to_table(self, three_results):
        _, _, gpu = three_results
        offset = 0
        tables = []
        while offset < len(gpu.compressed_output):
            t, offset = decode_table(gpu.compressed_output, offset)
            tables.append(t)
        full = tables[0]
        for t in tables[1:]:
            full = full.concat(t)
        assert full.equals(gpu.table)

    def test_compressed_smaller_than_text(self, three_results):
        soap, _, gpu = three_results
        assert gpu.output_bytes < soap.output_bytes / 5

    def test_temp_input_smaller_than_raw(self, three_results):
        _, _, gpu = three_results
        assert gpu.temp_input_bytes < gpu.extras["input_bytes"] / 2

    def test_output_file_written(self, small_dataset, tmp_path):
        path = tmp_path / "out.gsnp"
        det = GsnpDetector(engine="gsnp", window=2000, output=str(path),
                           compressed=True)
        res = det.run(small_dataset)
        write_job_output(res, det.spec)
        assert path.read_bytes() == res.compressed_output


class TestAccounting:
    def test_all_components_present(self, three_results):
        for res in three_results[1:]:
            for c in COMPONENTS:
                assert c in res.profile.records, c

    def test_gpu_recycle_negligible(self, three_results):
        """Table IV: recycle collapses from thousands of seconds to ~3s."""
        soap, _, gpu = three_results
        b_soap = soap.profile.breakdown()
        b_gpu = gpu.profile.breakdown()
        assert b_gpu["recycle"] < b_soap["recycle"] / 100

    def test_gpu_likelihood_much_faster(self, three_results):
        soap, _, gpu = three_results
        assert (
            gpu.profile.breakdown()["likelihood"]
            < soap.profile.breakdown()["likelihood"] / 20
        )

    def test_overall_modeled_speedup(self, three_results, small_dataset):
        """End-to-end modeled speedup lands in a broad 40x-ish band at
        full scale (paper: 42-50x); the GSNP fixed score-table cost only
        amortizes at scale, so extrapolate before comparing."""
        soap, _, gpu = three_results
        factor = 247_000_000 / small_dataset.n_sites
        speedup = (
            soap.profile.scaled(factor).total_modeled()
            / gpu.profile.scaled(factor).total_modeled()
        )
        assert speedup > 20

    def test_sparse_cpu_likelihood_speedup(self, three_results):
        """Fig 5: GSNP_CPU beats SOAPsnp by ~4-5x on likelihood."""
        soap, cpu, _ = three_results
        ratio = (
            soap.profile.breakdown()["likelihood"]
            / cpu.profile.breakdown()["likelihood"]
        )
        assert 2 < ratio < 12

    def test_gpu_transfer_bytes_recorded(self, three_results):
        _, _, gpu = three_results
        total_xfer = sum(
            r.transfer_bytes for r in gpu.profile.records.values()
        )
        assert total_xfer > 0

    def test_gpu_memory_tracked(self, three_results):
        _, _, gpu = three_results
        assert gpu.extras["peak_gpu_bytes"] > 0
        # Must fit the M2050's 3 GB.
        assert gpu.extras["peak_gpu_bytes"] < 3 * 1024**3

    def test_sort_stats_per_window(self, three_results, small_dataset):
        # One SortStats per sort launch chain: per megabatch on the default
        # fused path, per window on the fusion=False oracle.
        _, _, gpu = three_results
        assert len(gpu.sort_stats) == 1
        oracle = GsnpPipeline(
            window_size=2000, mode="gpu", fusion=False
        ).run(small_dataset)
        assert len(oracle.sort_stats) == -(-small_dataset.n_sites // 2000)
        assert oracle.table.equals(gpu.table)


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(PipelineError):
            GsnpPipeline(mode="tpu")
