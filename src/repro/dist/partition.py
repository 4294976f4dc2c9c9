"""Load-balanced partitioning of ER comparison work (Kolb, Thor & Rahm).

Blocking produces blocks of wildly skewed sizes (Zipf worlds make Zipf
blocks), and a block's comparison cost is *quadratic* in its size — so
naive "one block per reducer" hashing leaves one reducer doing almost
all the work. The two canonical remedies:

* **BlockSplit** — split each oversized block into sub-blocks; emit one
  *match task* per sub-block (its internal pairs) and per sub-block
  pair (their cross pairs); assign tasks to reducers by
  longest-processing-time-first (LPT).
* **PairRange** — number every comparison globally ``0..P-1`` and give
  each reducer one contiguous range: perfectly balanced by
  construction, at the cost of a global enumeration step.

Every strategy returns :class:`MatchTask` lists per reducer; tasks
carry exactly which record pairs they compare, so executing them
yields byte-identical match results across strategies (only the
*distribution* of work differs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

from repro.core.errors import ConfigurationError
from repro.linkage.blocking.base import BlockCollection

__all__ = [
    "MatchTask",
    "naive_partition",
    "block_split_partition",
    "pair_range_partition",
    "partition_blocks",
    "shard_of_key",
    "stable_key_hash",
    "task_pairs",
]

StrategyName = Literal["naive", "blocksplit", "pairrange"]


def stable_key_hash(text: str) -> int:
    """A deterministic string hash (Python's ``hash`` is salted).

    The same polynomial fold everywhere partitioning happens — block
    hashing, the sharded shuffle, shard ownership — so every layer
    agrees on where a key lives, across processes and interpreter
    restarts.
    """
    value = 0
    for character in text:
        value = (value * 131 + ord(character)) % 1_000_000_007
    return value


def shard_of_key(key: str, n_shards: int) -> int:
    """Deterministic shard ownership of an entity/block key."""
    if n_shards < 1:
        raise ConfigurationError("n_shards must be >= 1")
    return stable_key_hash(key) % n_shards


@dataclass(frozen=True)
class MatchTask:
    """One unit of comparison work assigned to a reducer.

    ``left`` and ``right`` are record-id tuples: when ``right`` is
    ``None`` the task compares all pairs *within* ``left``; otherwise
    it compares the full bipartite ``left × right``.
    """

    block_key: str
    left: tuple[str, ...]
    right: tuple[str, ...] | None = None

    @property
    def n_comparisons(self) -> int:
        """Comparison count of this task."""
        if self.right is None:
            n = len(self.left)
            return n * (n - 1) // 2
        return len(self.left) * len(self.right)


def task_pairs(task: MatchTask) -> list[tuple[str, str]]:
    """Materialize the record-id pairs a task compares."""
    if task.right is None:
        ids = task.left
        return [
            (ids[i], ids[j])
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
        ]
    return [(a, b) for a in task.left for b in task.right]


def _lpt_assign(
    tasks: Sequence[MatchTask], n_reducers: int
) -> list[list[MatchTask]]:
    """Longest-processing-time-first assignment of tasks to reducers."""
    buckets: list[list[MatchTask]] = [[] for __ in range(n_reducers)]
    loads = [0.0] * n_reducers
    for task in sorted(
        tasks, key=lambda t: (-t.n_comparisons, t.block_key, t.left)
    ):
        index = min(range(n_reducers), key=lambda i: (loads[i], i))
        buckets[index].append(task)
        loads[index] += task.n_comparisons
    return buckets


def naive_partition(
    blocks: BlockCollection, n_reducers: int
) -> list[list[MatchTask]]:
    """One task per block, hashed to a reducer by block key.

    This is the baseline that suffers under skew: the reducer unlucky
    enough to receive the biggest block dominates the makespan.
    """
    if n_reducers < 1:
        raise ConfigurationError("n_reducers must be >= 1")
    buckets: list[list[MatchTask]] = [[] for __ in range(n_reducers)]
    for block in blocks:
        if len(block) < 2:
            continue
        buckets[shard_of_key(block.key, n_reducers)].append(
            MatchTask(block.key, tuple(block.record_ids))
        )
    return buckets


def block_split_partition(
    blocks: BlockCollection,
    n_reducers: int,
) -> list[list[MatchTask]]:
    """BlockSplit: sub-divide big blocks, then LPT-assign the tasks.

    A block is split when its comparison count exceeds the total
    comparisons divided by ``2 · n_reducers`` — enough granularity for
    LPT to balance. A block of size *m* split into *k* even sub-blocks
    emits *k* within-sub-block tasks and *k(k-1)/2* cross tasks, which
    together cover exactly the block's original pairs.
    """
    if n_reducers < 1:
        raise ConfigurationError("n_reducers must be >= 1")
    total = blocks.n_comparisons
    max_task_comparisons = max(1, total // (2 * n_reducers) or 1)
    tasks: list[MatchTask] = []
    for block in blocks:
        if len(block) < 2:
            continue
        if block.n_comparisons <= max_task_comparisons:
            tasks.append(MatchTask(block.key, tuple(block.record_ids)))
            continue
        # Split into k sub-blocks sized so cross tasks fit the cap.
        k = max(2, math.ceil(math.sqrt(block.n_comparisons / max_task_comparisons)) + 1)
        ids = list(block.record_ids)
        sub_blocks: list[tuple[str, ...]] = []
        size = math.ceil(len(ids) / k)
        for start in range(0, len(ids), size):
            chunk = tuple(ids[start : start + size])
            if chunk:
                sub_blocks.append(chunk)
        for i, chunk in enumerate(sub_blocks):
            if len(chunk) > 1:
                tasks.append(MatchTask(f"{block.key}#{i}", chunk))
            for j in range(i + 1, len(sub_blocks)):
                tasks.append(
                    MatchTask(
                        f"{block.key}#{i}x{j}", chunk, sub_blocks[j]
                    )
                )
    return _lpt_assign(tasks, n_reducers)


def pair_range_partition(
    blocks: BlockCollection, n_reducers: int
) -> list[list[MatchTask]]:
    """PairRange: give each reducer an equal contiguous range of the
    globally enumerated comparisons.

    Within a block, the pairs of record indices are enumerated row by
    row; ranges cut across blocks and within rows, so every reducer
    receives ⌈P/r⌉ or ⌊P/r⌋ comparisons exactly.
    """
    if n_reducers < 1:
        raise ConfigurationError("n_reducers must be >= 1")
    total = blocks.n_comparisons
    if total == 0:
        return [[] for __ in range(n_reducers)]
    per_reducer = math.ceil(total / n_reducers)
    buckets: list[list[MatchTask]] = [[] for __ in range(n_reducers)]
    reducer = 0
    remaining = per_reducer
    for block in blocks:
        ids = block.record_ids
        if len(ids) < 2:
            continue
        # Emit the block's pair rows, slicing rows across reducers when
        # a boundary falls inside the block.
        row: list[str] = []
        piece = 0
        for i in range(len(ids) - 1):
            row_pairs = len(ids) - 1 - i
            start = 0
            while start < row_pairs:
                take = min(row_pairs - start, remaining)
                left = (ids[i],)
                right = tuple(ids[i + 1 + start : i + 1 + start + take])
                buckets[reducer].append(
                    MatchTask(f"{block.key}@{i}.{piece}", left, right)
                )
                piece += 1
                start += take
                remaining -= take
                if remaining == 0 and reducer < n_reducers - 1:
                    reducer += 1
                    remaining = per_reducer
    return buckets


def partition_blocks(
    blocks: BlockCollection,
    strategy: StrategyName,
    n_reducers: int,
) -> list[list[MatchTask]]:
    """Partition a block collection's comparisons with one strategy."""
    if strategy == "naive":
        return naive_partition(blocks, n_reducers)
    if strategy == "blocksplit":
        return block_split_partition(blocks, n_reducers)
    if strategy == "pairrange":
        return pair_range_partition(blocks, n_reducers)
    raise ConfigurationError(f"unknown strategy {strategy!r}")
