"""The unified pipeline API: the closed Engine enum, create_pipeline,
the Pipeline protocol."""

import pytest

from repro.api import (
    Engine,
    JobSpec,
    Pipeline,
    create_pipeline,
    effective_window,
    engine_names,
    resolve_engine,
)
from repro.constants import DEFAULT_WINDOW_SOAPSNP
from repro.core.detector import GsnpDetector, detect_snps
from repro.core.pipeline import GsnpPipeline
from repro.soapsnp.pipeline import SoapsnpPipeline


class TestEngine:
    def test_enum_equals_legacy_string(self):
        assert Engine.GSNP == "gsnp"
        assert Engine.GSNP_CPU == "gsnp_cpu"
        assert Engine.SOAPSNP == "soapsnp"
        assert str(Engine.GSNP) == "gsnp"

    def test_resolve_accepts_both_spellings(self):
        assert resolve_engine("gsnp") is Engine.GSNP
        assert resolve_engine(Engine.SOAPSNP) is Engine.SOAPSNP

    def test_resolve_rejects_unknown_listing_registry(self):
        with pytest.raises(ValueError) as err:
            resolve_engine("cuda")
        for name in engine_names():
            assert repr(name) in str(err.value)

    def test_registry_lists_all_three(self):
        assert engine_names() == ("gsnp", "gsnp_cpu", "soapsnp")


class TestRegistry:
    def test_specs_resolve(self):
        """Every engine name resolves to its member, which carries the
        bench label Fig. 12 prints."""
        labels = {}
        for name in engine_names():
            engine = resolve_engine(name)
            assert engine.value == name
            labels[name] = engine.label
        assert labels == {
            "gsnp": "GSNP", "gsnp_cpu": "GSNP_CPU", "soapsnp": "SOAPsnp",
        }

    def test_soapsnp_window_cap(self):
        assert (
            effective_window("soapsnp", 1_000_000) == DEFAULT_WINDOW_SOAPSNP
        )
        assert effective_window("gsnp", 1_000_000) == 1_000_000
        pipe = create_pipeline(
            spec=JobSpec(engine="soapsnp", window=1_000_000)
        )
        assert pipe.window_size == DEFAULT_WINDOW_SOAPSNP

    def test_create_pipeline_types(self):
        def build(engine):
            return create_pipeline(spec=JobSpec(engine=engine))

        assert isinstance(create_pipeline(), GsnpPipeline)  # default job
        assert isinstance(build(Engine.GSNP), GsnpPipeline)
        assert isinstance(build(Engine.SOAPSNP), SoapsnpPipeline)
        assert build(Engine.GSNP).mode == "gpu"
        assert build(Engine.GSNP_CPU).mode == "cpu"
        assert build(Engine.GSNP).fusion is True
        no_fusion = create_pipeline(spec=JobSpec(fusion=False))
        assert no_fusion.fusion is False  # the constructor takes it


class TestProtocol:
    def test_both_pipelines_satisfy_protocol(self):
        assert isinstance(GsnpPipeline(window_size=1000), Pipeline)
        assert isinstance(SoapsnpPipeline(window_size=1000), Pipeline)

    def test_protocol_dispatch_uniform(self, tiny_dataset):
        """One loop over the engines, zero per-engine branches."""
        tables = []
        for name in ("gsnp", "gsnp_cpu", "soapsnp"):
            pipe = create_pipeline(spec=JobSpec(engine=name, window=1000))
            calib = pipe.calibrate(tiny_dataset)
            result = pipe.run(tiny_dataset, calibration=calib)
            tables.append(result.table)
        assert tables[0].equals(tables[1])
        assert tables[0].equals(tables[2])


class TestDetectorApi:
    def test_detector_accepts_enum_and_string(self, tiny_dataset):
        a = GsnpDetector(engine=Engine.GSNP_CPU).run(tiny_dataset)
        b = GsnpDetector(engine="gsnp_cpu").run(tiny_dataset)
        assert a.table.equals(b.table)

    def test_detector_rejects_unknown(self):
        with pytest.raises(ValueError, match="valid engines are"):
            GsnpDetector(engine="nope")

    def test_detect_snps_accepts_enum(self, tiny_dataset):
        table, calls = detect_snps(tiny_dataset, engine=Engine.GSNP_CPU)
        assert table.n_sites == tiny_dataset.n_sites

    def test_from_files(self, tiny_dataset, tmp_path):
        from repro.formats.fasta import write_fasta
        from repro.formats.prior import write_prior
        from repro.formats.soap import write_soap

        fasta = tmp_path / "ref.fa"
        soap = tmp_path / "reads.soap"
        prior = tmp_path / "known.prior"
        write_fasta(fasta, [tiny_dataset.reference])
        write_soap(soap, tiny_dataset.reads)
        write_prior(
            prior, tiny_dataset.reference.name, tiny_dataset.prior
        )

        det = GsnpDetector.from_files(
            fasta, soap, prior, engine="gsnp_cpu", window=1000
        )
        result = det.run()  # dataset bound by from_files
        direct = GsnpDetector(
            engine="gsnp_cpu", window=1000
        ).run(tiny_dataset)
        assert result.table.equals(direct.table)

    def test_run_without_dataset_raises(self):
        with pytest.raises(ValueError, match="no dataset"):
            GsnpDetector().run()
