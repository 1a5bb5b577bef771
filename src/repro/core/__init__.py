"""GSNP core: the paper's primary contribution (sparse GPU SNP caller)."""

from .base_word import (
    canonical_keys,
    decode_keys,
    extract_words,
    pack_words,
    words_from_observations,
)
from .counting import gsnp_counting
from .detector import Accuracy, GsnpDetector, SnpCall, detect_snps
from .likelihood import (
    ALL_VARIANTS,
    BASELINE,
    OPTIMIZED,
    WITH_SHARED,
    WITH_TABLE,
    GsnpTables,
    LikelihoodVariant,
    gpu_dense_likelihood_counters,
    gsnp_likelihood_comp,
    gsnp_likelihood_sort,
)
from .pipeline import GsnpPipeline
from .posterior import gsnp_posterior
from .recycle import gsnp_recycle
from .score_table import build_new_p_matrix, new_p_index, table_contributions

__all__ = [
    "ALL_VARIANTS",
    "Accuracy",
    "BASELINE",
    "GsnpDetector",
    "GsnpPipeline",
    "GsnpTables",
    "LikelihoodVariant",
    "OPTIMIZED",
    "SnpCall",
    "WITH_SHARED",
    "WITH_TABLE",
    "build_new_p_matrix",
    "canonical_keys",
    "decode_keys",
    "detect_snps",
    "extract_words",
    "gpu_dense_likelihood_counters",
    "gsnp_counting",
    "gsnp_likelihood_comp",
    "gsnp_likelihood_sort",
    "gsnp_posterior",
    "gsnp_recycle",
    "new_p_index",
    "pack_words",
    "table_contributions",
    "words_from_observations",
]
