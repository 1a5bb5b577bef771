"""Launch-plan scheduling for ragged cross-window megabatches.

The per-window pipeline fires a full counting -> sort -> likelihood ->
posterior -> compress kernel chain for every ~3k-site window, so a
chromosome run pays thousands of launches for tiny grids.  The fused
execution path instead concatenates a group of consecutive windows into
one *ragged megabatch*: a flat site axis with CSR-style per-window
offsets and a site -> window segment-id map.  Device work then launches
once per megabatch — multipass sort size buckets are re-bucketed across
windows, the likelihood/posterior pair is fused into a single kernel,
and the output codec runs segmented over all window columns at once.

This module is the scheduler half: it knows *where* each window lives
inside the flat layout (:class:`LaunchPlan`), but contains no kernels
itself — those live in ``repro.gpusim.primitives.segmented`` and
``repro.core.fused``.

The point of the plan is that a stage's launches grow with megabatches,
not with the windows or cohort samples inside one.  Each phase record's
``gpu.launches`` makes that a measured number, and the tests pin it per
stage: windows per megabatch in ``tests/test_fusion.py``, samples per
cohort in ``tests/test_cohort.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


#: Windows concatenated into one ragged megabatch, and the shard size (in
#: windows) of a journaled serial job.  16 windows of ~3k sites keeps every
#: flat array well under the M2050 memory model while amortising launch
#: overhead ~16x for the per-window kernel chain; DESIGN.md records the
#: sweep that chose it.
MEGABATCH_WINDOWS = 16

#: Whether a job runs the fused megabatch path when it does not say.  The
#: per-window chain (``fusion=False``) stays as the parity oracle.
FUSION_DEFAULT = True


@dataclass(frozen=True)
class WindowSegment:
    """One window's slot inside the ragged megabatch.

    ``site_offset``/``obs_offset`` locate the window's slice on the flat
    site and observation axes; ``start``/``end`` are its reference
    coordinates, unchanged from the underlying :class:`Window`.
    ``sample`` is the cohort sample this segment belongs to (0 for a
    single-sample plan): a cohort megabatch lays S samples' copies of
    the same reference windows out sample-major on one flat axis, so the
    segment kernels never distinguish "another window" from "another
    sample's window".
    """

    index: int
    start: int
    end: int
    n_sites: int
    site_offset: int
    obs_offset: int
    sample: int = 0

    @property
    def site_slice(self) -> slice:
        return slice(self.site_offset, self.site_offset + self.n_sites)


@dataclass(frozen=True)
class LaunchPlan:
    """CSR-style layout of a megabatch: segments + flat-axis totals.

    Each segment carries its own ``site_offset``/``obs_offset`` (the CSR
    row pointers over the flat site and observation axes).
    """

    segments: Tuple[WindowSegment, ...]
    n_sites: int
    n_obs: int

    @property
    def n_windows(self) -> int:
        return len(self.segments)


def build_launch_plan(
    windows: Sequence,
    obs_counts: Sequence[int],
    samples: Optional[Sequence[int]] = None,
) -> LaunchPlan:
    """Lay a batch of windows out on flat site/observation axes.

    ``samples`` (default: all sample 0) tags each window with its cohort
    sample; a cohort batch arrives sample-major — all of sample 0's
    windows, then all of sample 1's, and so on.  Segment indices stay
    sequential (0 .. S*W-1) because the flat-axis machinery —
    the segment offsets, :func:`repro.core.fused.merge_observations`, the
    segmented primitives — is segment-count agnostic; the tag exists
    only so the host epilogue can route each window's result table back
    to its own sample's output stream.
    """
    if samples is None:
        samples = [0] * len(windows)
    if not len(windows) == len(obs_counts) == len(samples):
        raise ValueError("windows, obs_counts and samples must align")
    if list(samples) != sorted(samples):
        raise ValueError("launch plan segments must be sample-major")
    segments: List[WindowSegment] = []
    site_off = 0
    obs_off = 0
    for i, (window, n_obs, sample) in enumerate(
        zip(windows, obs_counts, samples)
    ):
        segments.append(
            WindowSegment(
                index=i,
                start=window.start,
                end=window.end,
                n_sites=window.n_sites,
                site_offset=site_off,
                obs_offset=obs_off,
                sample=int(sample),
            )
        )
        site_off += window.n_sites
        obs_off += int(n_obs)
    return LaunchPlan(segments=tuple(segments), n_sites=site_off, n_obs=obs_off)


def chunk_windows(windows: Iterable, size: int) -> Iterator[list]:
    """Group a window stream into megabatch-sized lists (last may be short)."""
    if size < 1:
        raise ValueError("megabatch size must be >= 1")
    it = iter(windows)
    while True:
        group = list(itertools.islice(it, size))
        if not group:
            return
        yield group


__all__ = [
    "LaunchPlan",
    "MEGABATCH_WINDOWS",
    "WindowSegment",
    "build_launch_plan",
    "chunk_windows",
]
