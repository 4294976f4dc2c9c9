"""Tests for MinHash/LSH blocking and progressive resolution."""

import pytest

from repro.core import ConfigurationError, Record
from repro.linkage import (
    MinHashBlocker,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    order_candidates,
    progressive_resolution_curve,
)
from repro.quality import blocking_quality
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)


@pytest.fixture(scope="module")
def corpus():
    world = generate_world(
        WorldConfig(categories=("camera",), entities_per_category=50, seed=3)
    )
    return generate_dataset(
        world, CorpusConfig(n_sources=10, typo_rate=0.05, seed=5)
    )


class TestMinHashBlocker:
    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            MinHashBlocker(n_hashes=0)
        with pytest.raises(ConfigurationError):
            MinHashBlocker(n_hashes=10, bands=3)  # not divisible

    def test_threshold_formula(self):
        blocker = MinHashBlocker(n_hashes=64, bands=16)
        assert blocker.similarity_threshold == pytest.approx(
            (1 / 16) ** (1 / 4)
        )

    def test_identical_records_always_collide(self):
        records = [
            Record("a", "s", {"name": "canon powershot a95 black"}),
            Record("b", "s", {"name": "canon powershot a95 black"}),
        ]
        pairs = MinHashBlocker(32, 8).block(records).candidate_pairs()
        assert frozenset(("a", "b")) in pairs

    def test_disjoint_records_never_collide(self):
        records = [
            Record("a", "s", {"name": "alpha beta gamma delta"}),
            Record("b", "s", {"name": "epsilon zeta eta theta"}),
        ]
        pairs = MinHashBlocker(32, 8).block(records).candidate_pairs()
        assert frozenset(("a", "b")) not in pairs

    def test_more_bands_more_candidates(self, corpus):
        records = list(corpus.records())
        few = MinHashBlocker(64, 8).block(records).candidate_pairs()
        many = MinHashBlocker(64, 32).block(records).candidate_pairs()
        assert len(many) > len(few)

    def test_low_threshold_high_recall(self, corpus):
        records = list(corpus.records())
        quality = blocking_quality(
            MinHashBlocker(64, 32).block(records).candidate_pairs(),
            corpus.ground_truth,
            len(records),
        )
        assert quality.pairs_completeness > 0.9

    def test_deterministic(self, corpus):
        records = list(corpus.records())
        a = MinHashBlocker(32, 8).block(records).candidate_pairs()
        b = MinHashBlocker(32, 8).block(records).candidate_pairs()
        assert a == b

    def test_empty_text_skipped(self):
        records = [Record("a", "s", {"name": "!!"})]
        assert len(MinHashBlocker(32, 8).block(records)) == 0


class TestProgressive:
    @pytest.fixture(scope="class")
    def blocks(self, corpus):
        return TokenBlocker(max_block_size=50).block(
            list(corpus.records())
        )

    def test_unknown_ordering(self, blocks):
        with pytest.raises(ConfigurationError):
            order_candidates(blocks, "zap")

    def test_orderings_cover_all_candidates(self, blocks):
        expected = blocks.candidate_pairs()
        for ordering in ("similarity", "block-size", "random"):
            ordered = order_candidates(blocks, ordering)
            assert set(ordered) == expected
            assert len(ordered) == len(expected)

    def test_curve_monotone_and_complete(self, corpus, blocks):
        records = list(corpus.records())
        curve = progressive_resolution_curve(
            records,
            blocks,
            default_product_comparator(),
            ThresholdClassifier(0.72),
            ordering="similarity",
        )
        matches = [point.matches_found for point in curve]
        assert matches == sorted(matches)
        comparisons = [point.comparisons for point in curve]
        assert comparisons[-1] == len(blocks.candidate_pairs())

    def test_similarity_first_beats_random_early(self, corpus, blocks):
        records = list(corpus.records())
        kwargs = dict(
            comparator=default_product_comparator(),
            classifier=ThresholdClassifier(0.72),
        )
        total = len(blocks.candidate_pairs())
        checkpoint = [max(1, total // 5)]
        smart = progressive_resolution_curve(
            records, blocks, ordering="similarity",
            checkpoints=checkpoint, **kwargs,
        )
        lucky = progressive_resolution_curve(
            records, blocks, ordering="random",
            checkpoints=checkpoint, seed=1, **kwargs,
        )
        assert smart[0].matches_found > 1.5 * lucky[0].matches_found

    def test_endpoints_agree_across_orderings(self, corpus, blocks):
        records = list(corpus.records())
        finals = []
        for ordering in ("similarity", "block-size", "random"):
            curve = progressive_resolution_curve(
                records,
                blocks,
                default_product_comparator(),
                ThresholdClassifier(0.72),
                ordering=ordering,
            )
            finals.append(curve[-1].matches_found)
        assert len(set(finals)) == 1
