"""Tests for probabilistic mediated schemas and query answering."""

import pytest

from repro.core import ConfigurationError
from repro.schema import (
    answer_with_pschema,
    answer_with_schema,
    answer_without_alignment,
    build_mediated_schema,
    build_probabilistic_mediated_schema,
    cell_quality,
    true_answer_cells,
)
from repro.schema.probabilistic import _top_k_subsets
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from tests.test_schema_matchers import (
    BENCHMARK_CORPORA,
    all_pairs_oracle,
    benchmark_corpus_named,
)


@pytest.fixture(scope="module")
def dataset():
    world = generate_world(
        WorldConfig(categories=("camera",), entities_per_category=50, seed=2)
    )
    return generate_dataset(
        world,
        CorpusConfig(n_sources=10, dialect_noise=0.7, seed=7),
    )


class TestTopKSubsets:
    def test_empty(self):
        assert _top_k_subsets([], 4) == [(1.0, ())]

    def test_single_edge(self):
        results = _top_k_subsets([0.8], 4)
        assert results[0] == (pytest.approx(0.8), (True,))
        assert results[1] == (pytest.approx(0.2), (False,))

    def test_probabilities_descending(self):
        results = _top_k_subsets([0.9, 0.6, 0.3], 8)
        probabilities = [p for p, __ in results]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_all_subsets_enumerated(self):
        results = _top_k_subsets([0.9, 0.6, 0.3], 8)
        assert len(results) == 8
        assert len({assignment for __, assignment in results}) == 8

    def test_total_probability_is_one(self):
        results = _top_k_subsets([0.7, 0.4], 4)
        assert sum(p for p, __ in results) == pytest.approx(1.0)

    def test_best_assignment_is_mode(self):
        results = _top_k_subsets([0.9, 0.2], 1)
        assert results[0][1] == (True, False)


class TestProbabilisticSchema:
    def test_candidates_normalized(self, dataset):
        pschema = build_probabilistic_mediated_schema(dataset)
        total = sum(c.probability for c in pschema.candidates)
        assert total == pytest.approx(1.0)

    def test_most_probable_first_class(self, dataset):
        pschema = build_probabilistic_mediated_schema(dataset)
        best = pschema.most_probable()
        assert len(best) >= 1

    def test_invalid_thresholds(self, dataset):
        with pytest.raises(ConfigurationError):
            build_probabilistic_mediated_schema(
                dataset, certain_threshold=0.4, uncertain_threshold=0.6
            )

    def test_mapping_probability_bounds(self, dataset):
        pschema = build_probabilistic_mediated_schema(dataset)
        schema = pschema.most_probable()
        mediated = schema.attributes[0]
        if len(mediated.members) >= 2:
            p = pschema.mapping_probability(
                mediated.members[0], mediated.members[1]
            )
            assert 0.0 <= p <= 1.0


class TestQueryAnswering:
    def test_true_cells_nonempty(self, dataset):
        cells = true_answer_cells(dataset, "weight")
        assert cells

    def test_schema_answers_beat_no_alignment(self, dataset):
        actual = true_answer_cells(dataset, "weight")
        schema = build_mediated_schema(dataset, threshold=0.6)
        aligned = cell_quality(
            answer_with_schema(dataset, schema, "weight"), actual
        )
        baseline = cell_quality(
            answer_without_alignment(dataset, "weight"), actual
        )
        assert aligned.f1 >= baseline.f1

    def test_pschema_recall_geq_deterministic(self, dataset):
        actual = true_answer_cells(dataset, "weight")
        pschema = build_probabilistic_mediated_schema(
            dataset, certain_threshold=0.8, uncertain_threshold=0.45
        )
        deterministic = pschema.most_probable()
        det_cells = answer_with_schema(dataset, deterministic, "weight")
        prob_cells = set(
            answer_with_pschema(
                dataset, pschema, "weight", min_probability=0.2
            )
        )
        det_quality = cell_quality(det_cells, actual)
        prob_quality = cell_quality(prob_cells, actual)
        assert prob_quality.recall >= det_quality.recall - 1e-9

    def test_pschema_scores_in_range(self, dataset):
        pschema = build_probabilistic_mediated_schema(dataset)
        scored = answer_with_pschema(dataset, pschema, "color")
        assert all(0.0 <= p <= 1.0 + 1e-9 for p in scored.values())


@pytest.mark.parametrize("corpus", BENCHMARK_CORPORA)
def test_pschema_from_candidates_equals_pschema_from_all_pairs(
    corpus, monkeypatch
):
    """``uncertain_threshold`` equals the default ``name_weight``, so
    this goes through the branch where a name alone can carry a pair."""
    dataset = benchmark_corpus_named(corpus)
    built = build_probabilistic_mediated_schema(dataset)
    monkeypatch.setattr(
        "repro.schema.probabilistic.score_all_pairs",
        lambda profiles, matcher, min_score, tracer: all_pairs_oracle(
            profiles, matcher, min_score
        ),
    )
    reference = build_probabilistic_mediated_schema(dataset)
    assert [
        (candidate.schema.attributes, candidate.probability)
        for candidate in built.candidates
    ] == [
        (candidate.schema.attributes, candidate.probability)
        for candidate in reference.candidates
    ]
    assert len(built) > 1
