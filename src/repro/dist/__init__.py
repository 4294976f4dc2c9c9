"""Distributed-execution substrate: the sharded pipeline runtime
(:mod:`repro.dist.runtime` — the one distributed linkage path), plus
the skew-aware partitioning strategies and the cluster cost model that
price them (the load-balancing study of experiment E05)."""

from repro.dist.costmodel import ClusterCostModel, PartitionCost
from repro.dist.partition import (
    MatchTask,
    block_split_partition,
    naive_partition,
    pair_range_partition,
    partition_blocks,
    shard_of_key,
    stable_key_hash,
    task_pairs,
)
from repro.dist.runtime import (
    SHARD_BACKENDS,
    ShardPlan,
    ShardResult,
    ShardedResolveRun,
    plan_shards,
    sharded_resolve,
)

__all__ = [
    "ClusterCostModel",
    "MatchTask",
    "PartitionCost",
    "SHARD_BACKENDS",
    "ShardPlan",
    "ShardResult",
    "ShardedResolveRun",
    "block_split_partition",
    "naive_partition",
    "pair_range_partition",
    "partition_blocks",
    "plan_shards",
    "shard_of_key",
    "sharded_resolve",
    "stable_key_hash",
    "task_pairs",
]
