"""Data-parallel primitives on the simulated GPU.

These mirror the primitives the paper builds its compression kernels from
(Section V-B): *reduction* (used for RLE), *sort* and *unique* (dictionary
construction for DICT), *binary search* (dictionary lookup), and *scan*
(compaction offsets).  Each primitive performs the real computation with
NumPy and accounts instructions and memory transactions through the
:class:`~repro.gpusim.kernel.KernelContext`.
"""

from .reduce import device_reduce
from .scan import device_exclusive_scan
from .search import device_binary_search
from .segmented import (
    compose_segment_keys,
    segmented_dict_indices,
    segmented_flag_runs,
)
from .sort import device_radix_sort, sequential_radix_sort_batches
from .unique import device_unique

__all__ = [
    "compose_segment_keys",
    "device_binary_search",
    "device_exclusive_scan",
    "device_radix_sort",
    "device_reduce",
    "device_unique",
    "segmented_dict_indices",
    "segmented_flag_runs",
    "sequential_radix_sort_batches",
]
