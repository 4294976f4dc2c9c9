"""Tests for active-learning match classification."""

import pytest

from repro.core import ConfigurationError, EmptyInputError
from repro.linkage import (
    ActiveThresholdLearner,
    ComparisonVector,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    noisy_oracle,
)
from repro.quality import pair_quality
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)


def vector(a, b, score):
    return ComparisonVector(a, b, (score,), score)


@pytest.fixture(scope="module")
def corpus_vectors():
    world = generate_world(
        WorldConfig(categories=("camera",), entities_per_category=40, seed=3)
    )
    dataset = generate_dataset(
        world, CorpusConfig(n_sources=8, typo_rate=0.05, seed=5)
    )
    records = list(dataset.records())
    by_id = {r.record_id: r for r in records}
    comparator = default_product_comparator()
    candidates = TokenBlocker(max_block_size=50).block(records)
    vectors = [
        comparator.compare(by_id[a], by_id[b])
        for a, b in (
            sorted(pair)
            for pair in sorted(candidates.candidate_pairs(), key=sorted)
        )
    ]
    return dataset, vectors


class TestNoisyOracle:
    def test_zero_noise_is_truth(self):
        oracle = noisy_oracle(lambda a, b: a == b, 0.0)
        assert oracle("x", "x") is True
        assert oracle("x", "y") is False

    def test_noise_flips_deterministically(self):
        oracle = noisy_oracle(lambda a, b: True, 0.4, seed=7)
        answers = {oracle(f"a{i}", f"b{i}") for i in range(50)}
        assert answers == {True, False}
        # Repeat queries agree with themselves.
        assert all(
            oracle(f"a{i}", f"b{i}") == oracle(f"a{i}", f"b{i}")
            for i in range(20)
        )

    def test_invalid_noise(self):
        with pytest.raises(ConfigurationError):
            noisy_oracle(lambda a, b: True, 0.6)


class TestLearnerMechanics:
    def test_requires_vectors(self):
        with pytest.raises(EmptyInputError):
            ActiveThresholdLearner([])

    def test_invalid_params(self):
        vectors = [vector("a", "b", 0.5)]
        with pytest.raises(ConfigurationError):
            ActiveThresholdLearner(vectors, batch_size=0)
        with pytest.raises(ConfigurationError):
            ActiveThresholdLearner(vectors, strategy="psychic")

    def test_never_relabels_a_pair(self):
        vectors = [vector(f"a{i}", f"b{i}", i / 10) for i in range(10)]
        learner = ActiveThresholdLearner(vectors, batch_size=4)
        oracle = lambda a, b: True
        assert learner.run_round(oracle) == 4
        assert learner.run_round(oracle) == 4
        assert learner.run_round(oracle) == 2  # only 2 left
        assert learner.run_round(oracle) == 0
        keys = [(p.left_id, p.right_id) for p in learner.labeled]
        assert len(keys) == len(set(keys)) == 10

    def test_learns_clean_separation(self):
        vectors = [vector(f"m{i}", f"m{i}'", 0.9) for i in range(10)]
        vectors += [vector(f"u{i}", f"u{i}'", 0.1) for i in range(10)]
        truth = {frozenset((v.left_id, v.right_id)) for v in vectors[:10]}
        learner = ActiveThresholdLearner(vectors, batch_size=6, seed=1)
        oracle = lambda a, b: frozenset((a, b)) in truth
        for __ in range(3):
            learner.run_round(oracle)
        assert 0.1 < learner.threshold < 0.9
        assert learner.predict_matches() == truth

    def test_one_class_labels_move_threshold_conservatively(self):
        vectors = [vector(f"u{i}", f"u{i}'", 0.3 + i / 100) for i in range(8)]
        learner = ActiveThresholdLearner(vectors, batch_size=4)
        learner.run_round(lambda a, b: False)  # everything non-match
        assert learner.predict_matches() == set()


class TestLearnerQuality:
    def test_uncertainty_beats_random_under_budget(self, corpus_vectors):
        dataset, vectors = corpus_vectors
        truth = dataset.ground_truth
        oracle = noisy_oracle(truth.are_match, noise_rate=0.05, seed=1)

        def final_f1(strategy):
            f1s = []
            for seed in (2, 3, 4):
                learner = ActiveThresholdLearner(
                    vectors, batch_size=10, strategy=strategy, seed=seed
                )
                for __ in range(4):
                    learner.run_round(oracle)
                f1s.append(
                    pair_quality(learner.predict_matches(), truth).f1
                )
            return sum(f1s) / len(f1s)

        assert final_f1("uncertainty") >= final_f1("random") - 0.01

    def test_approaches_oracle_tuned_threshold(self, corpus_vectors):
        dataset, vectors = corpus_vectors
        truth = dataset.ground_truth
        oracle = noisy_oracle(truth.are_match, noise_rate=0.0, seed=1)
        learner = ActiveThresholdLearner(vectors, batch_size=15, seed=2)
        for __ in range(4):
            learner.run_round(oracle)
        learned = pair_quality(learner.predict_matches(), truth).f1
        # Sweep thresholds for the best achievable with this comparator.
        best = max(
            pair_quality(
                {
                    frozenset((v.left_id, v.right_id))
                    for v in vectors
                    if v.score >= threshold
                },
                truth,
            ).f1
            for threshold in [t / 20 for t in range(1, 20)]
        )
        assert learned > best - 0.06
