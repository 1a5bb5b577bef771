"""Accuracy sweep: precision/recall and genotype-exact calls."""

import numpy as np
import pytest

from repro.bench.accuracy import OperatingPoint, quality_sweep
from repro.soapsnp import SoapsnpPipeline


@pytest.fixture(scope="module")
def sweep(small_dataset):
    table = SoapsnpPipeline(window_size=4000).run(small_dataset).table
    return quality_sweep(table, small_dataset), small_dataset


class TestOperatingPoint:
    def test_metrics(self):
        p = OperatingPoint(13, 8, 2, 4, 7)
        assert p.precision == pytest.approx(0.8)
        assert p.recall == pytest.approx(8 / 12)

    def test_degenerate(self):
        p = OperatingPoint(0, 0, 0, 0, 0)
        assert p.precision == 1.0 and p.recall == 1.0


class TestQualitySweep:
    def test_monotone_tradeoff(self, sweep):
        """Raising the threshold never increases recall and (weakly)
        cleans precision at the top end."""
        points, _ = sweep
        recalls = [p.recall for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(recalls, recalls[1:]))
        tps = [p.true_positives for p in points]
        assert all(a >= b for a, b in zip(tps, tps[1:]))

    def test_reasonable_operating_point_exists(self, sweep):
        points, _ = sweep
        assert any(p.precision > 0.75 and p.recall > 0.75 for p in points)

    def test_genotype_concordance_high(self, sweep):
        """Called variants at q>=13 carry the right genotype."""
        points, _ = sweep
        q13 = next(p for p in points if p.min_quality == 13)
        assert q13.genotype_exact > 0.8 * q13.true_positives

    def test_thresholds_preserved(self, sweep):
        points, _ = sweep
        assert [p.min_quality for p in points] == [0, 5, 13, 20, 30, 50]

    def test_min_depth_excludes_invisible_truth(self, small_dataset):
        table = SoapsnpPipeline(window_size=4000).run(small_dataset).table
        strict = quality_sweep(table, small_dataset, thresholds=(0,),
                               min_depth=1)[0]
        loose = quality_sweep(table, small_dataset, thresholds=(0,),
                              min_depth=0)[0]
        assert loose.false_negatives >= strict.false_negatives

    def test_identical_across_engines(self, small_dataset):
        from repro.core.pipeline import GsnpPipeline

        t1 = SoapsnpPipeline(window_size=4000).run(small_dataset).table
        t2 = GsnpPipeline(window_size=2000, mode="gpu").run(
            small_dataset
        ).table
        s1 = quality_sweep(t1, small_dataset)
        s2 = quality_sweep(t2, small_dataset)
        assert s1 == s2
