"""Sequencing simulation substrate: reference, diploid, reads, datasets."""

from .datasets import (
    CH1_SPEC,
    CH21_SPEC,
    DEFAULT_SCALE,
    HG_CHROM_MBP,
    TABLE2_FULL,
    DatasetSpec,
    KnownSnpPrior,
    SimulatedDataset,
    dataset_summary,
    generate_dataset,
    whole_genome_specs,
)
from .diploid import Diploid, simulate_diploid
from .quality import QualityModel
from .reads import covered_blocks, reverse_complement_view, simulate_reads
from .reference import Reference, synthesize_reference

__all__ = [
    "CH1_SPEC",
    "CH21_SPEC",
    "DEFAULT_SCALE",
    "DatasetSpec",
    "Diploid",
    "HG_CHROM_MBP",
    "KnownSnpPrior",
    "QualityModel",
    "Reference",
    "SimulatedDataset",
    "TABLE2_FULL",
    "covered_blocks",
    "dataset_summary",
    "generate_dataset",
    "reverse_complement_view",
    "simulate_diploid",
    "simulate_reads",
    "synthesize_reference",
    "whole_genome_specs",
]
