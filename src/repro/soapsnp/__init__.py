"""SOAPsnp baseline: the dense-representation Bayesian SNP caller (Fig. 1)."""

from .base_occ import (
    base_occ_cell_index,
    build_base_occ,
    build_base_occ_site,
    nonzero_counts,
    sparsity_histogram,
)
from .likelihood import (
    adjust_scores,
    direct_contributions,
    likelihood_site_reference,
    occurrence_ordinals,
    sequential_site_sums,
    window_type_likely,
)
from .model import CallingParams, allele_weights, genotype_log_priors
from .observe import Observations, extract_observations
from .p_matrix import (
    build_p_matrix,
    calibration_counts,
    flatten_p_matrix,
    p_matrix_index,
    theoretical_p_matrix,
)
from .pipeline import SoapsnpPipeline
from .posterior import call_posterior, is_snp_call, summarize_window

__all__ = [
    "CallingParams",
    "Observations",
    "SoapsnpPipeline",
    "adjust_scores",
    "allele_weights",
    "base_occ_cell_index",
    "build_base_occ",
    "build_base_occ_site",
    "build_p_matrix",
    "calibration_counts",
    "call_posterior",
    "direct_contributions",
    "extract_observations",
    "flatten_p_matrix",
    "genotype_log_priors",
    "is_snp_call",
    "likelihood_site_reference",
    "nonzero_counts",
    "occurrence_ordinals",
    "p_matrix_index",
    "sequential_site_sums",
    "sparsity_histogram",
    "summarize_window",
    "theoretical_p_matrix",
    "window_type_likely",
]
