"""The extrapolation premise: event counts scale linearly in sites.

The full-scale modeled numbers rest on one assumption — that every event
count the pipelines record grows linearly with dataset size at fixed
depth/coverage.  These tests measure it directly by running the same spec
at two sizes and comparing count ratios to the size ratio.
"""

import numpy as np
import pytest

from repro.core.pipeline import GsnpPipeline
from repro.seqsim import DatasetSpec, generate_dataset
from repro.soapsnp import SoapsnpPipeline


def _dataset(n_sites, seed=313):
    return generate_dataset(
        DatasetSpec(name="chrL", n_sites=n_sites, depth=10.0, coverage=0.9,
                    seed=seed)
    )


@pytest.fixture(scope="module")
def two_scales():
    small = _dataset(2000)
    large = _dataset(8000)
    return small, large


class TestSoapsnpLinearity:
    def test_cpu_event_counts_scale(self, two_scales):
        small, large = two_scales
        rs = SoapsnpPipeline(window_size=1000).run(small).profile
        rl = SoapsnpPipeline(window_size=1000).run(large).profile
        ratio = large.n_sites / small.n_sites
        for comp in ("likelihood", "recycle", "counting"):
            s = rs.records[comp].cpu
            l = rl.records[comp].cpu
            for field in ("seq_read_bytes", "seq_write_bytes",
                          "random_accesses", "instructions", "log_calls"):
                sv, lv = getattr(s, field), getattr(l, field)
                if sv == 0:
                    assert lv == 0
                else:
                    assert lv / sv == pytest.approx(ratio, rel=0.25), (
                        comp, field
                    )

    def test_output_bytes_scale(self, two_scales):
        small, large = two_scales
        bs = SoapsnpPipeline(window_size=1000).run(small).output_bytes
        bl = SoapsnpPipeline(window_size=1000).run(large).output_bytes
        assert bl / bs == pytest.approx(4.0, rel=0.15)


class TestGsnpLinearity:
    def test_gpu_transactions_scale(self, two_scales):
        small, large = two_scales
        rs = GsnpPipeline(window_size=1000, mode="gpu").run(small).profile
        rl = GsnpPipeline(window_size=1000, mode="gpu").run(large).profile
        ratio = large.n_sites / small.n_sites
        for comp in ("likelihood", "counting"):
            s, l = rs.records[comp].gpu, rl.records[comp].gpu
            assert l.g_load / s.g_load == pytest.approx(ratio, rel=0.3), comp
            assert l.inst_warp / s.inst_warp == pytest.approx(
                ratio, rel=0.3
            ), comp

    def test_launches_scale_with_window_count(self, two_scales):
        # The default path launches once per megabatch of 16 windows, so
        # cut 125-site windows: 16 windows (1 launch chain) vs 64 (4).
        small, large = two_scales
        rs = GsnpPipeline(window_size=125, mode="gpu").run(small).profile
        rl = GsnpPipeline(window_size=125, mode="gpu").run(large).profile
        ls = sum(r.gpu.launches for r in rs.records.values())
        ll = sum(r.gpu.launches for r in rl.records.values())
        assert ll / ls == pytest.approx(4.0, rel=0.3)

    def test_compressed_output_scales(self, two_scales):
        small, large = two_scales
        bs = GsnpPipeline(window_size=1000, mode="gpu").run(small).output_bytes
        bl = GsnpPipeline(window_size=1000, mode="gpu").run(large).output_bytes
        assert bl / bs == pytest.approx(4.0, rel=0.25)
