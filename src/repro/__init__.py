"""GSNP reproduction: GPU-accelerated SNP detection (ICPP 2011).

A from-scratch Python reproduction of *GSNP: A DNA Single-Nucleotide
Polymorphism Detection System with GPU Acceleration* (Lu et al., ICPP
2011), including every substrate the paper depends on: the SOAPsnp dense
baseline, a simulated SIMT GPU with hardware counters and a roofline cost
model, a short-read/diploid-genome simulator, a pigeonhole aligner, the
multipass batch bitonic sorting network, and the customized columnar
compression stack.

Quick start::

    from repro import generate_dataset, CH21_SPEC, Engine, GsnpDetector

    dataset = generate_dataset(CH21_SPEC)
    detector = GsnpDetector(engine=Engine.GSNP, workers=4)
    result = detector.run(dataset)
    for call in detector.calls(result.table):
        print(call.pos, call.quality)

Every engine returns the same :class:`CallResult`: one
:class:`SampleCalls` per sample (a solo run is a cohort of one) and the
run's event profile; every engine's calibration pass returns the same
:class:`Calibration`.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .constants import GENOTYPES, GENOTYPE_IUPAC, N_GENOTYPES

# .core must initialize before .api: core.detector pulls .api mid-init,
# which in turn only needs core *sub-modules* (resolvable while the core
# package is still initializing), not the core package itself.
from .core import (
    Accuracy,
    GsnpDetector,
    GsnpPipeline,
    SnpCall,
    detect_snps,
)
from .api import Engine, Pipeline, create_pipeline, engine_names
from .formats.cns import ResultTable, read_cns, write_cns
from .gpusim import BGI_PLATFORM, Device, GpuCostModel
from .seqsim import (
    CH1_SPEC,
    CH21_SPEC,
    DatasetSpec,
    QualityModel,
    SimulatedDataset,
    generate_dataset,
    whole_genome_specs,
)
from .exec import execute
from .soapsnp import CallingParams, SoapsnpPipeline
from .soapsnp.pipeline import Calibration, CallResult, SampleCalls
from .validate import VerificationReport, verify_engines

__version__ = "1.0.0"

__all__ = [
    "Accuracy",
    "BGI_PLATFORM",
    "CH1_SPEC",
    "CH21_SPEC",
    "Calibration",
    "CallResult",
    "CallingParams",
    "DatasetSpec",
    "Device",
    "Engine",
    "GENOTYPES",
    "GENOTYPE_IUPAC",
    "GpuCostModel",
    "GsnpDetector",
    "GsnpPipeline",
    "N_GENOTYPES",
    "Pipeline",
    "QualityModel",
    "ResultTable",
    "SampleCalls",
    "SimulatedDataset",
    "SnpCall",
    "SoapsnpPipeline",
    "VerificationReport",
    "__version__",
    "create_pipeline",
    "detect_snps",
    "engine_names",
    "execute",
    "generate_dataset",
    "read_cns",
    "verify_engines",
    "whole_genome_specs",
    "write_cns",
]
