"""Shard planning: split a calling job into window-aligned site ranges.

A shard is a contiguous run of whole windows.  Because windows are
independent (invariant 6: results are window-size invariant) and shard
boundaries coincide with window boundaries, executing shards in any order
on any number of workers and reassembling in genomic order reproduces the
serial run bit for bit — calls *and* compressed bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..bench.events import RunProfile
from ..errors import PipelineError
from ..soapsnp.pipeline import CallResult, SampleCalls


@dataclass(frozen=True)
class Shard:
    """One contiguous range of whole windows, ``[start, end)`` in sites."""

    index: int
    start: int
    end: int

    @property
    def n_sites(self) -> int:
        return self.end - self.start

    def __str__(self) -> str:
        return f"shard {self.index} [{self.start}, {self.end})"


def align_shard_size(shard_size: int, window_size: int) -> int:
    """Snap a shard size up to the next multiple of the window size.

    Determinism requires shard boundaries to be window boundaries;
    otherwise shard-local windows would differ from the serial run's and
    the per-window compressed blobs would diverge.
    """
    if shard_size <= 0:
        raise PipelineError("shard size must be positive")
    return -(-shard_size // window_size) * window_size


def plan_shards(
    n_sites: int,
    window_size: int,
    shard_size: Optional[int] = None,
    workers: int = 1,
) -> list[Shard]:
    """Tile ``[0, n_sites)`` with window-aligned shards.

    Without an explicit ``shard_size``, aim for ~4 shards per worker (load
    balancing headroom for uneven read depth) of at least one window each.
    """
    if n_sites <= 0:
        raise PipelineError("cannot shard an empty site range")
    n_windows = -(-n_sites // window_size)
    if shard_size is None:
        per_shard = max(1, -(-n_windows // max(1, workers * 4)))
        shard_size = per_shard * window_size
    else:
        shard_size = align_shard_size(shard_size, window_size)
    shards = []
    for i, start in enumerate(range(0, n_sites, shard_size)):
        shards.append(
            Shard(index=i, start=start, end=min(start + shard_size, n_sites))
        )
    return shards


@dataclass
class ShardResult:
    """What one executed shard sends back to the parent."""

    shard: Shard
    #: The run's samples, in cohort order: a solo run is a cohort of one.
    samples: list[SampleCalls]
    profile: RunProfile
    peak_gpu_bytes: int = 0
    #: Worker-side wall seconds for this shard (timing/throughput metric).
    wall: float = 0.0
    #: 1 + number of retries it took to produce this result.
    attempts: int = 1
    pid: int = 0

    @classmethod
    def from_run(
        cls, shard: Shard, result: CallResult, *, wall: float, attempts: int,
        pid: int,
    ) -> "ShardResult":
        """Package any engine's run result for the parent."""
        return cls(
            shard=shard,
            samples=result.samples,
            profile=result.profile,
            peak_gpu_bytes=result.extras.get("peak_gpu_bytes", 0),
            wall=wall,
            attempts=attempts,
            pid=pid,
        )

    @property
    def sites_per_second(self) -> float:
        return self.shard.n_sites / self.wall if self.wall > 0 else 0.0

    def metrics(self) -> dict:
        """Per-shard timing/throughput row for ``extras['shards']``."""
        return {
            "index": self.shard.index,
            "start": self.shard.start,
            "end": self.shard.end,
            "sites": self.shard.n_sites,
            "wall": self.wall,
            "sites_per_second": self.sites_per_second,
            "attempts": self.attempts,
            "pid": self.pid,
        }
