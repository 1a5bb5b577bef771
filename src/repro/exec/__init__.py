"""Sharded parallel execution of SNP-calling pipelines.

Splits a calling job into window-aligned shards, runs them on the lanes
of one deque scheduler (device-pool lanes, worker-process lanes, or the
serial lane on the calling thread), and reassembles calls, compressed
output and event counters into a result bitwise identical to the serial
run.  Entry point: :func:`execute`.
"""

from .executor import calibrate_job, execute
from .merge import merge_profiles, merge_shard_results
from .shard import Shard, ShardResult, align_shard_size, plan_shards

__all__ = [
    "Shard",
    "ShardResult",
    "align_shard_size",
    "calibrate_job",
    "execute",
    "merge_profiles",
    "merge_shard_results",
    "plan_shards",
]
