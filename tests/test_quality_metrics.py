"""Unit tests for quality metrics (pairs, blocking, clusters, fusion)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import GroundTruth
from repro.fusion import FusionResult
from repro.quality import (
    bcubed_quality,
    blocking_quality,
    clusters_to_pairs,
    copy_detection_quality,
    estimation_rmse,
    fusion_accuracy,
    pair_quality,
    pairwise_cluster_quality,
    render_kv,
    render_table,
    total_pairs,
)


@pytest.fixture
def truth():
    # e1: {a, b, c}; e2: {d, e}; e3: {f}
    return GroundTruth(
        {"a": "e1", "b": "e1", "c": "e1", "d": "e2", "e": "e2", "f": "e3"}
    )


class TestPairQuality:
    def test_perfect(self, truth):
        q = pair_quality(truth.matching_pairs(), truth)
        assert q.precision == 1.0 and q.recall == 1.0 and q.f1 == 1.0

    def test_partial(self, truth):
        q = pair_quality([("a", "b"), ("a", "f")], truth)
        assert q.true_positives == 1
        assert q.false_positives == 1
        assert q.false_negatives == 3  # (a,c),(b,c),(d,e)
        assert q.precision == 0.5
        assert q.recall == 0.25

    def test_empty_prediction(self, truth):
        q = pair_quality([], truth)
        assert q.precision == 1.0
        assert q.recall == 0.0

    def test_self_pairs_dropped(self, truth):
        q = pair_quality([("a", "a")], truth)
        assert q.true_positives == 0 and q.false_positives == 0

    def test_duplicate_predictions_counted_once(self, truth):
        q = pair_quality([("a", "b"), ("b", "a")], truth)
        assert q.true_positives == 1 and q.false_positives == 0


class TestBlockingQuality:
    def test_total_pairs(self):
        assert total_pairs(6) == 15
        assert total_pairs(0) == 0
        assert total_pairs(1) == 0

    def test_perfect_blocking(self, truth):
        q = blocking_quality(truth.matching_pairs(), truth, n_records=6)
        assert q.pairs_completeness == 1.0
        assert q.pairs_quality == 1.0
        assert q.reduction_ratio == pytest.approx(1 - 4 / 15)

    def test_full_cross_product(self, truth):
        all_pairs = [
            (x, y)
            for i, x in enumerate("abcdef")
            for y in "abcdef"[i + 1 :]
        ]
        q = blocking_quality(all_pairs, truth, n_records=6)
        assert q.pairs_completeness == 1.0
        assert q.reduction_ratio == 0.0
        assert q.pairs_quality == pytest.approx(4 / 15)

    def test_empty_candidates(self, truth):
        q = blocking_quality([], truth, n_records=6)
        assert q.pairs_completeness == 0.0
        assert q.reduction_ratio == 1.0


class TestClusterQuality:
    def test_clusters_to_pairs(self):
        pairs = clusters_to_pairs([["a", "b", "c"], ["d"]])
        assert pairs == {
            frozenset(("a", "b")),
            frozenset(("a", "c")),
            frozenset(("b", "c")),
        }

    def test_perfect_clustering(self, truth):
        clusters = truth.true_clusters()
        pq = pairwise_cluster_quality(clusters, truth)
        assert pq.f1 == 1.0
        b3 = bcubed_quality(clusters, truth)
        assert b3.precision == 1.0 and b3.recall == 1.0

    def test_everything_merged(self, truth):
        clusters = [["a", "b", "c", "d", "e", "f"]]
        b3 = bcubed_quality(clusters, truth)
        assert b3.recall == 1.0
        assert b3.precision < 1.0

    def test_everything_singleton(self, truth):
        clusters = [[r] for r in "abcdef"]
        b3 = bcubed_quality(clusters, truth)
        assert b3.precision == 1.0
        assert b3.recall < 1.0

    def test_missing_records_hurt_recall(self, truth):
        clusters = [["a", "b", "c"]]  # d, e, f unclustered
        b3 = bcubed_quality(clusters, truth)
        assert b3.precision == 1.0
        assert b3.recall == pytest.approx(3 / 6)

    @given(st.integers(min_value=2, max_value=6))
    def test_bcubed_f1_between_zero_and_one(self, k):
        mapping = {f"r{i}": f"e{i % k}" for i in range(12)}
        gt = GroundTruth(mapping)
        clusters = [[f"r{i}" for i in range(0, 12, 2)],
                    [f"r{i}" for i in range(1, 12, 2)]]
        b3 = bcubed_quality(clusters, gt)
        assert 0.0 <= b3.precision <= 1.0
        assert 0.0 <= b3.recall <= 1.0
        assert 0.0 <= b3.f1 <= 1.0


class TestFusionQuality:
    def test_accuracy(self):
        result = FusionResult(chosen={"i1": "x", "i2": "y"})
        assert fusion_accuracy(result, {"i1": "x", "i2": "z"}) == 0.5

    def test_accuracy_ignores_unanswered(self):
        result = FusionResult(chosen={"i1": "x"})
        assert fusion_accuracy(result, {"i1": "x", "i2": "z"}) == 1.0

    def test_estimation_error(self):
        result = FusionResult(
            chosen={}, source_accuracy={"s1": 0.8, "s2": 0.6}
        )
        rmse = estimation_rmse(
            result.source_accuracy, {"s1": 0.9, "s2": 0.6}
        )
        assert rmse == pytest.approx(math.sqrt(0.01 / 2))

    def test_estimation_error_no_overlap_is_nan(self):
        result = FusionResult(chosen={})
        assert math.isnan(estimation_rmse(result.source_accuracy, {"s1": 0.9}))

    def test_copy_detection_quality(self):
        detected = {
            ("cop0", "ind0"): 0.9,   # true edge
            ("cop1", "ind1"): 0.2,   # below threshold → not predicted
            ("ind0", "ind1"): 0.8,   # false positive
        }
        planted = {"cop0": "ind0", "cop1": "ind1"}
        q = copy_detection_quality(detected, planted)
        assert q.true_positives == 1
        assert q.false_positives == 1
        assert q.false_negatives == 1
        assert q.precision == 0.5 and q.recall == 0.5

    def test_copy_detection_undirected(self):
        q = copy_detection_quality(
            {("ind0", "cop0"): 1.0}, {"cop0": "ind0"}
        )
        assert q.recall == 1.0


class TestReport:
    def test_render_table_alignment(self):
        table = render_table(["name", "value"], [["x", 1.2345], ["long", 2]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "1.234" in table or "1.235" in table

    def test_render_table_title(self):
        table = render_table(["a"], [[1]], title="T")
        assert table.splitlines()[0] == "T"

    def test_render_kv(self):
        text = render_kv([("k", 0.5)], title="head")
        assert "k: 0.500" in text
