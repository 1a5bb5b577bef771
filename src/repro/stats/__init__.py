"""Statistical helpers: the host-side penalty table and the rank-sum test."""

from .ranksum import rank_sum_pvalue, rank_sum_statistic
from .tables import DEFAULT_PCR_DEPENDENCY, dependency_penalty_table

__all__ = [
    "DEFAULT_PCR_DEPENDENCY",
    "dependency_penalty_table",
    "rank_sum_pvalue",
    "rank_sum_statistic",
]
