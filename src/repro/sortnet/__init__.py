"""Multipass batch sorting network for billions of tiny arrays (§IV-C)."""

from .batch import batch_sort, pad_rows
from .bitonic import (
    bitonic_sort_batch,
    bitonic_steps,
    compare_exchange_count,
    n_steps,
    next_pow2,
)
from .cpu_sort import ParallelCpuSortModel, quicksort_per_site
from .multipass import (
    SortStats,
    multipass_sort,
    nonequal_sort,
    singlepass_sort,
    size_class_of,
)

__all__ = [
    "ParallelCpuSortModel",
    "SortStats",
    "batch_sort",
    "bitonic_sort_batch",
    "bitonic_steps",
    "compare_exchange_count",
    "multipass_sort",
    "n_steps",
    "next_pow2",
    "nonequal_sort",
    "pad_rows",
    "quicksort_per_site",
    "singlepass_sort",
    "size_class_of",
]
