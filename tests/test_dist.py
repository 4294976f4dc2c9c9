"""Tests for the partitioners, the cost model that prices them, and the
sharded path's agreement with serial linkage on their workloads."""

import pytest

from repro.core import ConfigurationError
from repro.dist import (
    ClusterCostModel,
    MatchTask,
    block_split_partition,
    naive_partition,
    pair_range_partition,
    partition_blocks,
    shard_of_key,
    sharded_resolve,
    stable_key_hash,
    task_pairs,
)
from repro.linkage import (
    Block,
    BlockCollection,
    StandardBlocker,
    ThresholdClassifier,
    default_product_comparator,
    resolve,
)
from repro.linkage.blocking import first_token_key
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)


def skewed_blocks():
    """One huge block plus many small ones — the Zipf pattern."""
    blocks = [Block("big", tuple(f"r{i}" for i in range(40)))]
    for j in range(12):
        blocks.append(
            Block(f"small{j}", (f"s{j}a", f"s{j}b", f"s{j}c"))
        )
    return BlockCollection(blocks)


class TestMatchTask:
    def test_within_comparisons(self):
        task = MatchTask("k", ("a", "b", "c"))
        assert task.n_comparisons == 3
        assert set(task_pairs(task)) == {
            ("a", "b"), ("a", "c"), ("b", "c"),
        }

    def test_cross_comparisons(self):
        task = MatchTask("k", ("a", "b"), ("x",))
        assert task.n_comparisons == 2
        assert set(task_pairs(task)) == {("a", "x"), ("b", "x")}


def _all_pairs(partition):
    return {
        frozenset(pair)
        for tasks in partition
        for task in tasks
        for pair in task_pairs(task)
    }


class TestPartitioners:
    def comparisons(self, partition):
        return [
            sum(t.n_comparisons for t in tasks) for tasks in partition
        ]

    @pytest.mark.parametrize(
        "strategy", ["naive", "blocksplit", "pairrange"]
    )
    def test_every_strategy_covers_all_pairs(self, strategy):
        blocks = skewed_blocks()
        partition = partition_blocks(blocks, strategy, 8)
        assert _all_pairs(partition) == blocks.candidate_pairs()

    @pytest.mark.parametrize(
        "strategy", ["naive", "blocksplit", "pairrange"]
    )
    def test_comparison_totals_match(self, strategy):
        blocks = skewed_blocks()
        partition = partition_blocks(blocks, strategy, 8)
        assert sum(self.comparisons(partition)) == blocks.n_comparisons

    def test_naive_skews_under_zipf(self):
        blocks = skewed_blocks()
        naive = self.comparisons(naive_partition(blocks, 8))
        assert max(naive) >= 780  # the big block lands whole somewhere

    def test_blocksplit_balances(self):
        blocks = skewed_blocks()
        loads = self.comparisons(block_split_partition(blocks, 8))
        assert max(loads) < 2 * (sum(loads) / len(loads))

    def test_pairrange_near_perfect_balance(self):
        blocks = skewed_blocks()
        loads = self.comparisons(pair_range_partition(blocks, 8))
        assert max(loads) - min(loads) <= max(1, sum(loads) // 50)

    def test_single_reducer_identity(self):
        blocks = skewed_blocks()
        for strategy in ("naive", "blocksplit", "pairrange"):
            partition = partition_blocks(blocks, strategy, 1)
            assert len(partition) == 1
            assert sum(self.comparisons(partition)) == blocks.n_comparisons

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            partition_blocks(skewed_blocks(), "zap", 4)

    def test_key_hash_stable(self):
        # Pinned values: ownership must survive interpreter restarts
        # (Python's own str hash is salted per process), or a resumed
        # sharded run would look for its checkpoints on other shards.
        assert stable_key_hash("abc") == 1677554
        assert stable_key_hash("") == 0
        assert shard_of_key("abc", 16) == 1677554 % 16
        assert all(0 <= shard_of_key(f"k{i}", 7) < 7 for i in range(50))
        with pytest.raises(ConfigurationError):
            shard_of_key("abc", 0)


class TestCostModel:
    def test_makespan_is_max(self):
        model = ClusterCostModel(comparison_cost=1.0, task_overhead=0.0, startup=0.0)
        partition = [
            [MatchTask("a", ("x", "y", "z"))],  # 3 comparisons
            [MatchTask("b", ("p", "q"))],       # 1 comparison
        ]
        cost = model.evaluate(partition)
        assert cost.makespan == 3.0
        assert cost.per_reducer_comparisons == (3, 1)

    def test_speedup_vs_serial(self):
        model = ClusterCostModel(comparison_cost=1.0, task_overhead=0.0, startup=0.0)
        partition = [
            [MatchTask("a", ("x", "y", "z"))],
            [MatchTask("b", ("p", "q", "r"))],
        ]
        cost = model.evaluate(partition)
        assert cost.speedup == pytest.approx(2.0)

    def test_skew_metric(self):
        # Everything on one of two reducers: the heaviest load is twice
        # the mean.
        partition = [
            [MatchTask("a", ("x", "y", "z")), MatchTask("b", ("p", "q"))],
            [],
        ]
        assert ClusterCostModel().evaluate(partition).skew == pytest.approx(2.0)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            ClusterCostModel(comparison_cost=0.0)


class TestDistributedLinkage:
    @pytest.fixture(scope="class")
    def setup(self):
        world = generate_world(
            WorldConfig(categories=("camera",), entities_per_category=40, seed=3)
        )
        dataset = generate_dataset(world, CorpusConfig(n_sources=8, seed=5))
        records = list(dataset.records())
        blocks = StandardBlocker(first_token_key("name")).block(records)
        return records, blocks

    def test_strategies_agree_on_matches(self, setup):
        # Every strategy schedules exactly the blocker's candidate
        # pairs, so whatever scores them finds the same matches.
        __, blocks = setup
        for strategy in ("naive", "blocksplit", "pairrange"):
            partition = partition_blocks(blocks, strategy, 4)
            assert _all_pairs(partition) == blocks.candidate_pairs()

    def test_balanced_strategies_scale_better(self, setup):
        __, blocks = setup
        model = ClusterCostModel()

        def makespan(strategy, r):
            return model.evaluate(
                partition_blocks(blocks, strategy, r)
            ).makespan

        assert makespan("blocksplit", 16) < makespan("naive", 16)


def _sharded_matches(records, pairs, classifier, n_shards):
    return sharded_resolve(
        records,
        None,
        default_product_comparator(),
        classifier,
        candidate_pairs=pairs,
        n_shards=n_shards,
        backend="inline",
    ).result


class TestOrderIndependentDedup:
    """Regression: the scored workload must not depend on the order (or
    orientation) in which blocks happen to emit raw pairs.

    A dedup that keeps the first-seen spelling of each pair would score
    ``(a, b)`` in one run and ``(b, a)`` in another; the sharded path
    canonicalizes to the sorted unique pair list before partitioning,
    the same list the serial resolver scores.
    """

    CLASSIFIER = ThresholdClassifier(0.5)

    def _records(self):
        from repro.core import Record

        return [
            Record(f"r{i}", f"s{i % 2}", {"name": "acme item", "brand": "acme"})
            for i in range(4)
        ]

    def _first_seen_pairs(self, blocks):
        """Unique pairs, each in the spelling the tasks emit it first."""
        seen = {}
        for tasks in partition_blocks(blocks, "naive", 2):
            for task in tasks:
                for pair in task_pairs(task):
                    seen.setdefault(frozenset(pair), pair)
        return list(seen.values())

    def test_block_order_and_orientation_are_irrelevant(self):
        # The same pairs arrive in different orders and orientations:
        # (r1, r2) comes as r1<r2 from one block and r2>r1 from the
        # other, and reversing the block list flips which spelling is
        # seen first.
        forward = self._first_seen_pairs(BlockCollection([
            Block("k1", ("r0", "r1", "r2")),
            Block("k2", ("r2", "r1", "r3")),
        ]))
        backward = self._first_seen_pairs(BlockCollection([
            Block("k2", ("r3", "r1", "r2")),
            Block("k1", ("r2", "r1", "r0")),
        ]))
        assert forward != backward
        first = _sharded_matches(self._records(), forward, self.CLASSIFIER, 2)
        second = _sharded_matches(self._records(), backward, self.CLASSIFIER, 2)
        assert first.match_pairs == second.match_pairs
        assert first.scored_edges == second.scored_edges
        assert first.n_candidates == second.n_candidates

    def test_sharded_execution_matches_engine(self):
        blocks = BlockCollection([
            Block("k1", ("r0", "r1", "r2")),
            Block("k2", ("r2", "r1", "r3")),
        ])
        pairs = self._first_seen_pairs(blocks)
        serial = resolve(
            self._records(), None, default_product_comparator(),
            self.CLASSIFIER, candidate_pairs=set(map(frozenset, pairs)),
        )
        sharded = _sharded_matches(self._records(), pairs, self.CLASSIFIER, 3)
        assert sharded.match_pairs == serial.match_pairs
        assert sharded.scored_edges == serial.scored_edges


class TestShardedDistributedLinkage:
    def test_sharded_matches_serial_on_corpus(self):
        world = generate_world(
            WorldConfig(categories=("camera",), entities_per_category=15, seed=3)
        )
        dataset = generate_dataset(world, CorpusConfig(n_sources=4, seed=5))
        records = list(dataset.records())
        blocks = StandardBlocker(first_token_key("name")).block(records)
        classifier = ThresholdClassifier(0.72)
        serial = resolve(
            records, None, default_product_comparator(), classifier,
            candidate_pairs=blocks.candidate_pairs(),
        )
        # What a reducer fleet would be handed: the task pairs of one
        # partitioning, deduplicated across blocks.
        task_level = _all_pairs(partition_blocks(blocks, "blocksplit", 4))
        sharded = _sharded_matches(records, task_level, classifier, 3)
        assert sharded.match_pairs == serial.match_pairs
        assert sharded.scored_edges == serial.scored_edges
        assert sharded.clusters == serial.clusters
        assert sharded.n_candidates == serial.n_candidates
