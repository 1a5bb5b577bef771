"""Window-pipeline overlap helper: input prefetch.

:func:`prefetched_windows` wraps a window reader in a
:class:`~repro.formats.stream.PrefetchIterator`, so window N+1's
``read_site`` decode runs on a background thread while window N computes.
It changes neither results nor counters — windows arrive in source order
and all event accounting stays on the compute thread.
"""

from __future__ import annotations

from typing import Iterable

from ..formats.stream import PrefetchIterator

#: Windows decoded ahead of the compute loop (double buffering).
PREFETCH_DEPTH = 2


def prefetched_windows(
    reader: Iterable, enabled: bool = True, depth: int = PREFETCH_DEPTH
) -> Iterable:
    """The reader itself, or its prefetching wrapper when ``enabled``."""
    if not enabled:
        return reader
    return PrefetchIterator(reader, depth=depth)


__all__ = ["PREFETCH_DEPTH", "prefetched_windows"]
