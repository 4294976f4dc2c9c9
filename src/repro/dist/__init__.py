"""Distributed-execution substrate: the sharded pipeline runtime
(:mod:`repro.dist.runtime` — the one distributed linkage path), plus
the skew-aware partitioning strategies and the cluster cost model that
price them (the load-balancing study of experiment E05)."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "costmodel": "ClusterCostModel PartitionCost",
        "partition": (
            "MatchTask block_split_partition naive_partition "
            "pair_range_partition partition_blocks shard_of_key "
            "stable_key_hash task_pairs"
        ),
        "runtime": (
            "SHARD_BACKENDS ShardPlan ShardResult ShardedResolveRun "
            "plan_shards sharded_resolve"
        ),
    },
)
