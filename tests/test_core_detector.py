"""High-level detector API."""

import numpy as np
import pytest

from repro.api import JobSpec
from repro.bench.accuracy import OperatingPoint
from repro.core.detector import GsnpDetector, detect_snps


@pytest.fixture(scope="module")
def detector_result(small_dataset):
    det = GsnpDetector(engine="gsnp_cpu", min_quality=13)
    res = det.run(small_dataset)
    return det, res


class TestDetector:
    def test_run_returns_table(self, detector_result, small_dataset):
        _, res = detector_result
        assert res.table.n_sites == small_dataset.n_sites

    def test_calls_filtered_by_quality(self, detector_result):
        det, res = detector_result
        calls = det.calls(res.table)
        assert all(c.quality >= 13 for c in calls)

    def test_calls_have_metadata(self, detector_result, small_dataset):
        det, res = detector_result
        for c in det.calls(res.table):
            assert c.chrom == small_dataset.reference.name
            assert 1 <= c.pos <= small_dataset.n_sites

    def test_score_against_truth(self, detector_result, small_dataset):
        det, res = detector_result
        acc = det.score(res.table, small_dataset, min_quality=13)
        assert acc.recall > 0.6
        assert acc.precision > 0.6

    def test_score_without_planted_truth_raises(self, tiny_dataset, tmp_path):
        """A dataset parsed from files has no truth: scoring it is an
        error, not a table of false positives."""
        from repro.formats.fasta import write_fasta
        from repro.formats.soap import write_soap

        write_fasta(tmp_path / "ref.fa", [tiny_dataset.reference])
        write_soap(tmp_path / "reads.soap", tiny_dataset.reads)
        det = GsnpDetector.from_files(
            tmp_path / "ref.fa", tmp_path / "reads.soap", engine="gsnp_cpu"
        )
        assert det.dataset.spec is None and det.dataset.diploid is None
        table = det.run().table
        with pytest.raises(ValueError, match="no planted truth"):
            det.score(table, det.dataset)

    def test_all_engines_same_calls(self, small_dataset):
        tables = {}
        for engine in ("soapsnp", "gsnp_cpu", "gsnp"):
            det = GsnpDetector(engine=engine, window=2000)
            tables[engine] = det.run(small_dataset).table
        assert tables["soapsnp"].equals(tables["gsnp_cpu"])
        assert tables["soapsnp"].equals(tables["gsnp"])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            GsnpDetector(engine="fpga")

    def test_detector_holds_one_jobspec(self):
        det = GsnpDetector(engine="gsnp_cpu", window=1000)
        # Built from fields, calls() stays unfiltered; JobSpec's own
        # min_quality default (the CLI summary cutoff) is untouched.
        assert det.spec == JobSpec(
            engine="gsnp_cpu", window=1000, min_quality=0
        )
        assert JobSpec().min_quality == 13
        spec = JobSpec(engine="gsnp_cpu", window=1000)
        assert GsnpDetector(spec=spec).spec is spec
        assert not hasattr(det, "window_size") and not hasattr(det, "engine")

    def test_only_jobspec_field_names_are_accepted(self):
        with pytest.raises(TypeError, match="window_size"):
            GsnpDetector(window_size=1000)
        with pytest.raises(TypeError, match="journal_dir"):
            GsnpDetector(journal_dir="j")
        with pytest.raises(TypeError):
            GsnpDetector("gsnp")  # spec is keyword-only
        with pytest.raises(ValueError, match="does not combine"):
            GsnpDetector(spec=JobSpec(), window=1000)

    def test_field_built_equals_spec_built(self, small_dataset):
        by_fields = GsnpDetector(engine="gsnp", window=2000).run(small_dataset)
        by_spec = GsnpDetector(
            spec=JobSpec(engine="gsnp", window=2000)
        ).run(small_dataset)
        assert by_fields.table.equals(by_spec.table)
        assert by_fields.compressed_output == by_spec.compressed_output

    def test_every_spec_field_reaches_the_pipeline(self, small_dataset):
        # The old facade re-packed 18 of JobSpec's fields and dropped the
        # rest: a spec's launch-chain toggle never reached the engine.
        def launches(fusion):
            res = GsnpDetector(
                spec=JobSpec(window=500, fusion=fusion)
            ).run(small_dataset)
            return res.extras["device"].counters.total().launches

        assert launches(False) > launches(True)

    def test_detect_snps_convenience(self, small_dataset):
        table, calls = detect_snps(
            small_dataset, engine="gsnp_cpu", min_quality=20,
            window=2000,
        )
        assert table.n_sites == small_dataset.n_sites
        assert isinstance(calls, list)


class TestAccuracy:
    """``GsnpDetector.score`` reports the quality-sweep operating point."""

    def test_precision_recall(self, detector_result, small_dataset):
        a = OperatingPoint(13, true_positives=8, false_positives=2,
                           false_negatives=4, genotype_exact=8)
        assert a.precision == pytest.approx(0.8)
        assert a.recall == pytest.approx(8 / 12)

        det, res = detector_result
        p = det.score(res.table, small_dataset, min_quality=13)
        assert isinstance(p, OperatingPoint) and p.min_quality == 13
        assert p.precision == pytest.approx(
            p.true_positives / (p.true_positives + p.false_positives)
        )
        assert p.recall == pytest.approx(
            p.true_positives / (p.true_positives + p.false_negatives)
        )

    def test_degenerate_cases(self, detector_result, small_dataset):
        a = OperatingPoint(0, 0, 0, 0, 0)
        assert a.precision == 1.0 and a.recall == 1.0

        # Above every call's quality nothing is called: precision is
        # vacuously 1 and every covered planted SNP is a false negative.
        det, res = detector_result
        top = int(res.table.quality.max()) + 1
        p = det.score(res.table, small_dataset, min_quality=top)
        assert p.true_positives == 0 and p.false_positives == 0
        assert p.precision == 1.0
        assert p.false_negatives > 0 and p.recall == 0.0
