"""Tests for record clustering algorithms and the resolve() driver."""

import pytest

from repro.core import Record
from repro.linkage import (
    StandardBlocker,
    ThresholdClassifier,
    TokenBlocker,
    center_clustering,
    connected_components,
    default_product_comparator,
    merge_center_clustering,
    resolve,
)
from repro.linkage.blocking import first_token_key
from repro.quality import pairwise_cluster_quality
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)


class TestConnectedComponents:
    def test_chains_transitively(self):
        clusters = connected_components([("a", "b"), ("b", "c")])
        assert clusters == [["a", "b", "c"]]

    def test_includes_singletons(self):
        clusters = connected_components([("a", "b")], all_ids=["a", "b", "c"])
        assert ["c"] in clusters

    def test_accepts_frozensets(self):
        clusters = connected_components([frozenset(("a", "b"))])
        assert clusters == [["a", "b"]]


class TestCenterClustering:
    def test_star_not_chain(self):
        # High-score edges from a center; the weak b-c edge must not chain.
        edges = [("a", "b", 0.9), ("a", "c", 0.8), ("c", "d", 0.7)]
        clusters = center_clustering(edges)
        cluster_of = {m: i for i, c in enumerate(clusters) for m in c}
        assert cluster_of["a"] == cluster_of["b"] == cluster_of["c"]
        # d arrived via c (a member, not a center) → stays out.
        assert cluster_of["d"] != cluster_of["a"]

    def test_all_ids_covered(self):
        clusters = center_clustering([("a", "b", 0.9)], all_ids=["a", "b", "z"])
        flattened = sorted(m for c in clusters for m in c)
        assert flattened == ["a", "b", "z"]

    def test_deterministic_tie_breaks(self):
        edges = [("b", "a", 0.9), ("c", "d", 0.9)]
        assert center_clustering(edges) == center_clustering(list(edges))


class TestMergeCenter:
    def test_merges_via_center_edge(self):
        # Two stars whose centers share a strong edge get merged.
        edges = [
            ("a", "b", 0.95),
            ("c", "d", 0.94),
            ("a", "c", 0.9),
        ]
        clusters = merge_center_clustering(edges)
        assert len(clusters) == 1

    def test_recall_between_center_and_components(self):
        edges = [("a", "b", 0.9), ("b", "c", 0.8), ("c", "d", 0.7)]
        cc = connected_components([(a, b) for a, b, _ in edges])
        center = center_clustering(edges)
        merge = merge_center_clustering(edges)
        n_pairs = lambda clusters: sum(
            len(c) * (len(c) - 1) // 2 for c in clusters
        )
        assert n_pairs(center) <= n_pairs(merge) <= n_pairs(cc)


class TestResolve:
    @pytest.fixture(scope="class")
    def corpus(self):
        world = generate_world(
            WorldConfig(categories=("camera",), entities_per_category=40, seed=6)
        )
        dataset = generate_dataset(
            world, CorpusConfig(n_sources=8, typo_rate=0.03, seed=8)
        )
        return dataset

    def test_high_quality_on_synthetic(self, corpus):
        result = resolve(
            list(corpus.records()),
            TokenBlocker(max_block_size=50),
            default_product_comparator(),
            ThresholdClassifier(0.72),
        )
        quality = pairwise_cluster_quality(
            result.clusters, corpus.ground_truth
        )
        assert quality.f1 > 0.9

    def test_clusters_partition_records(self, corpus):
        result = resolve(
            list(corpus.records()),
            TokenBlocker(max_block_size=50),
            default_product_comparator(),
            ThresholdClassifier(0.72),
        )
        flattened = [m for c in result.clusters for m in c]
        assert sorted(flattened) == sorted(
            r.record_id for r in corpus.records()
        )

    def test_candidate_override_skips_blocker(self, corpus):
        records = list(corpus.records())[:10]
        ids = [r.record_id for r in records]
        pairs = {frozenset((ids[0], ids[1]))}
        result = resolve(
            records,
            TokenBlocker(),
            default_product_comparator(),
            ThresholdClassifier(0.0),
            candidate_pairs=pairs,
        )
        assert result.n_candidates == 1
        assert result.match_pairs == pairs

    @pytest.mark.parametrize(
        "pairs",
        [
            {frozenset(("a", "b")), frozenset(("a",))},
            {("a", "a"), ("a", "b")},
        ],
        ids=["one-element-frozenset", "repeated-id-tuple"],
    )
    @pytest.mark.parametrize("entry", ["resolve", "sharded_resolve"])
    def test_caller_self_pairs_are_dropped(self, pairs, entry):
        """A self-pair is not a candidate: blocking never emits one, and
        a caller's is dropped the same way — not scored, not counted,
        never a one-element match."""
        from repro.dist.runtime import sharded_resolve

        records = [
            Record("a", "s1", {"name": "canon pro 512"}),
            Record("b", "s2", {"name": "canon pro 512"}),
        ]
        arguments = (
            records,
            None,
            default_product_comparator(),
            ThresholdClassifier(0.0),
        )
        if entry == "resolve":
            result = resolve(*arguments, candidate_pairs=pairs)
        else:
            result = sharded_resolve(
                *arguments, candidate_pairs=pairs, n_shards=2, backend="inline"
            ).result
        assert result.n_candidates == 1
        assert result.match_pairs == {frozenset(("a", "b"))}
        assert result.clusters == [["a", "b"]]

    def test_malformed_caller_pair_is_refused_by_name(self):
        from repro.core import ConfigurationError

        records = [Record(rid, "s1", {"name": "x"}) for rid in "abc"]
        with pytest.raises(ConfigurationError, match="two record ids"):
            resolve(
                records,
                None,
                default_product_comparator(),
                ThresholdClassifier(0.5),
                candidate_pairs=[("a", "b", "c")],
            )

    def test_unknown_clustering(self, corpus):
        from repro.core import ConfigurationError

        with pytest.raises(ConfigurationError):
            resolve(
                list(corpus.records())[:5],
                TokenBlocker(),
                default_product_comparator(),
                ThresholdClassifier(0.9),
                clustering="zap",
            )

    def test_threshold_monotone_precision(self, corpus):
        records = list(corpus.records())
        loose = resolve(
            records,
            TokenBlocker(max_block_size=50),
            default_product_comparator(),
            ThresholdClassifier(0.6),
        )
        strict = resolve(
            records,
            TokenBlocker(max_block_size=50),
            default_product_comparator(),
            ThresholdClassifier(0.9),
        )
        assert strict.match_pairs <= loose.match_pairs
