"""Tests for correspondences, clustering, and mediated schemas."""

import pytest

from repro.core import ConfigurationError
from repro.obs import Tracer
from repro.schema import (
    Correspondence,
    MediatedAttribute,
    MediatedSchema,
    build_mediated_schema,
    cluster_attributes,
    cluster_attributes_robust,
    profile_attributes,
    select_correspondences,
)
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro.quality import attribute_cluster_quality
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
        CorpusConfig(n_sources=10, dialect_noise=0.6, seed=7),
    )


class TestSelectCorrespondences:
    def c(self, left, right, score):
        return Correspondence(("s1", left), ("s2", right), score)

    def test_threshold_filters(self):
        scored = [self.c("a", "x", 0.9), self.c("b", "y", 0.3)]
        kept = select_correspondences(scored, threshold=0.5)
        assert len(kept) == 1

    def test_one_to_one_keeps_best(self):
        scored = [
            self.c("a", "x", 0.9),
            self.c("a", "y", 0.8),  # a already matched into s2
            self.c("b", "y", 0.7),
        ]
        kept = select_correspondences(scored, threshold=0.5, one_to_one=True)
        pairs = {(c.left[1], c.right[1]) for c in kept}
        assert pairs == {("a", "x"), ("b", "y")}

    def test_many_to_many_allowed_when_disabled(self):
        scored = [self.c("a", "x", 0.9), self.c("a", "y", 0.8)]
        kept = select_correspondences(
            scored, threshold=0.5, one_to_one=False
        )
        assert len(kept) == 2

    def test_one_to_one_allows_different_source_pairs(self):
        scored = [
            Correspondence(("s1", "a"), ("s2", "x"), 0.9),
            Correspondence(("s1", "a"), ("s3", "z"), 0.8),
        ]
        kept = select_correspondences(scored, threshold=0.5)
        assert len(kept) == 2

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            select_correspondences([], threshold=1.5)


class TestClustering:
    def test_transitive_closure(self):
        edges = [
            Correspondence(("s1", "a"), ("s2", "b"), 0.9),
            Correspondence(("s2", "b"), ("s3", "c"), 0.9),
        ]
        clusters = cluster_attributes(edges)
        assert len(clusters) == 1
        assert len(clusters[0]) == 3

    def test_singletons_included(self):
        clusters = cluster_attributes([], all_attributes=[("s1", "a")])
        assert clusters == [[("s1", "a")]]

    def test_robust_splits_bridge(self):
        # Two tight cliques joined by one weak bridge edge.
        left = [("s1", "a"), ("s2", "a"), ("s3", "a")]
        right = [("s4", "z"), ("s5", "z"), ("s6", "z")]
        edges = []
        for i in range(3):
            for j in range(i + 1, 3):
                edges.append(Correspondence(left[i], left[j], 0.9))
                edges.append(Correspondence(right[i], right[j], 0.9))
        edges.append(Correspondence(left[0], right[0], 0.55))
        clusters = cluster_attributes_robust(edges, min_cohesion=0.5)
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [3, 3]


class TestMediatedSchema:
    def test_duplicate_assignment_rejected(self):
        a = MediatedAttribute("x", (("s1", "a"),))
        b = MediatedAttribute("y", (("s1", "a"),))
        with pytest.raises(ConfigurationError):
            MediatedSchema([a, b])

    def test_build_produces_high_precision_clusters(self, dataset):
        schema = build_mediated_schema(dataset, threshold=0.65)
        quality = attribute_cluster_quality(schema.clusters(), dataset)
        assert quality.precision > 0.9
        assert quality.recall > 0.3

    def test_every_attribute_assigned_exactly_once(self, dataset):
        schema = build_mediated_schema(dataset)
        seen = set()
        for mediated in schema.attributes:
            for member in mediated.members:
                assert member not in seen
                seen.add(member)
        from repro.schema import profile_attributes

        assert seen == set(profile_attributes(dataset))

    def test_translate_uses_canonical_names(self, dataset):
        schema = build_mediated_schema(dataset)
        record = next(iter(dataset.records()))
        translated = schema.translate(record)
        assert len(translated) >= 1
        assert all(isinstance(k, str) for k in translated)

    def test_find_by_keyword(self, dataset):
        schema = build_mediated_schema(dataset)
        found = schema.find("weight")
        assert found, "expected a mediated attribute mentioning weight"

    def test_deterministic(self, dataset):
        s1 = build_mediated_schema(dataset)
        s2 = build_mediated_schema(dataset)
        assert s1.clusters() == s2.clusters()


@pytest.fixture(scope="module", params=BENCHMARK_CORPORA)
def benchmark_corpus(request):
    return benchmark_corpus_named(request.param)


class TestBuiltFromCandidatesEqualsBuiltFromAllPairs:
    """The schema from ``score_all_pairs`` at ``threshold`` is the one
    the all-pairs loop gave at ``threshold / 2`` (what the builder asked
    for before it asked only for what ``select_correspondences`` keeps).
    """

    def test_same_schema(self, benchmark_corpus, monkeypatch):
        built = build_mediated_schema(benchmark_corpus)
        monkeypatch.setattr(
            "repro.schema.mediated.score_all_pairs",
            lambda profiles, matcher, min_score, tracer: all_pairs_oracle(
                profiles, matcher, min_score / 2
            ),
        )
        reference = build_mediated_schema(benchmark_corpus)
        assert built.attributes == reference.attributes
        assert len(built) > 1

    def test_given_profiles_and_counts(self, benchmark_corpus):
        profiles = profile_attributes(benchmark_corpus)
        tracer = Tracer()
        built = build_mediated_schema(
            benchmark_corpus, profiles=profiles, tracer=tracer
        )
        assert built.attributes == build_mediated_schema(
            benchmark_corpus
        ).attributes
        assert tracer.counter("schema.attributes").value == len(profiles)
        assert 0 < tracer.counter(
            "schema.correspondences_selected"
        ).value <= tracer.counter("schema.pairs_name_scored").value

    def test_by_name_finds_every_attribute(self, benchmark_corpus):
        schema = build_mediated_schema(benchmark_corpus)
        for mediated in schema.attributes:
            assert schema.by_name(mediated.name) is mediated
        assert schema.by_name("no such attribute") is None
