"""Tests for the end-to-end BDI pipeline and corpus builder."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BDIPipeline, FourVKnobs, PipelineConfig, build_corpus
from repro.core import ConfigurationError
from repro.core.pipeline import _merge_partitions
from repro.synth import (
    CopierConfig,
    CorpusConfig,
    WorldConfig,
    add_copier_sources,
    generate_dataset,
    generate_world,
    scaled,
)
from tests.oracle import reference_merge_partitions


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(FourVKnobs(volume=0.05, variety=0.4, veracity=0.3, seed=3))


@pytest.fixture(scope="module")
def run(corpus):
    pipeline = BDIPipeline(PipelineConfig(fusion="accuvote"))
    result = pipeline.run(corpus.dataset)
    report = pipeline.evaluate(corpus.dataset, result)
    return result, report


class TestFourVKnobs:
    def test_invalid_dial(self):
        with pytest.raises(ConfigurationError):
            FourVKnobs(volume=1.5)

    def test_volume_scales_sources(self):
        small = FourVKnobs(volume=0.0).corpus_config()
        large = FourVKnobs(volume=1.0).corpus_config()
        assert large.n_sources > small.n_sources

    def test_veracity_scales_noise(self):
        clean = FourVKnobs(veracity=0.0).corpus_config()
        dirty = FourVKnobs(veracity=1.0).corpus_config()
        assert dirty.typo_rate > clean.typo_rate
        assert dirty.error_rate > clean.error_rate

    def test_zero_veracity_no_copiers(self):
        assert FourVKnobs(veracity=0.0).copier_config() is None

    def test_scaled_helper(self):
        knobs = FourVKnobs(volume=0.2)
        assert scaled(knobs, volume=0.8).volume == 0.8
        assert scaled(knobs, volume=0.8).variety == knobs.variety

    def test_deterministic_corpus(self):
        a = build_corpus(FourVKnobs(volume=0.02, seed=5))
        b = build_corpus(FourVKnobs(volume=0.02, seed=5))
        assert [r.record_id for r in a.dataset.records()] == [
            r.record_id for r in b.dataset.records()
        ]


class TestCopierInjection:
    def test_copier_records_attributed(self, corpus):
        if not corpus.copier_of:
            pytest.skip("knobs produced no copiers")
        truth = corpus.dataset.ground_truth
        for copier in corpus.copier_of:
            source = corpus.dataset.source(copier)
            for record in source:
                assert truth.entity_of(record.record_id)

    def test_requires_ground_truth(self):
        from repro.core import Dataset, Record, Source

        bare = Dataset(
            [Source("s", [Record("s/0", "s", {"name": "x"})])]
        )
        with pytest.raises(ConfigurationError):
            add_copier_sources(bare, CopierConfig(n_copiers=1))


class TestPipeline:
    def test_linkage_quality(self, run):
        __, report = run
        assert report.linkage_pairwise_f1 > 0.9
        assert report.linkage_bcubed_f1 > 0.9

    def test_fusion_accuracy_reasonable(self, run):
        __, report = run
        assert report.fusion_accuracy > 0.7

    def test_schema_clusters_scored(self, run):
        __, report = run
        assert 0.0 < report.schema_f1 <= 1.0

    def test_entity_table_materialized(self, run):
        result, report = run
        assert result.entity_table
        assert report.n_clusters == len(result.clusters)
        some_entity = next(iter(result.entity_table.values()))
        assert all(isinstance(v, str) for v in some_entity.values())

    def test_claims_one_per_source_item(self, run):
        result, __ = run
        seen = set()
        for claim in result.claims:
            key = (claim.source_id, claim.item_id)
            assert key not in seen
            seen.add(key)

    def test_invalid_fusion_name(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(fusion="zap")

    def test_fusion_variants_run(self, corpus):
        for fusion in ("vote", "truthfinder"):
            pipeline = BDIPipeline(PipelineConfig(fusion=fusion))
            result = pipeline.run(corpus.dataset)
            assert result.fusion.chosen


class TestClassifierChoice:
    def test_invalid_classifier_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(classifier="psychic")

    def test_fellegi_sunter_pipeline_quality(self, corpus):
        pipeline = BDIPipeline(
            PipelineConfig(fusion="vote", classifier="fellegi-sunter")
        )
        result = pipeline.run(corpus.dataset)
        report = pipeline.evaluate(corpus.dataset, result)
        assert report.linkage_pairwise_f1 > 0.85

    def test_fs_close_to_threshold_pipeline(self, corpus):
        threshold_pipeline = BDIPipeline(PipelineConfig(fusion="vote"))
        fs_pipeline = BDIPipeline(
            PipelineConfig(fusion="vote", classifier="fellegi-sunter")
        )
        threshold_report = threshold_pipeline.evaluate(
            corpus.dataset, threshold_pipeline.run(corpus.dataset)
        )
        fs_report = fs_pipeline.evaluate(
            corpus.dataset, fs_pipeline.run(corpus.dataset)
        )
        assert fs_report.linkage_pairwise_f1 > (
            threshold_report.linkage_pairwise_f1 - 0.1
        )


class TestNumericFusion:
    def test_numeric_fusion_runs_and_helps_or_ties(self):
        corpus = build_corpus(
            FourVKnobs(volume=0.05, variety=0.4, veracity=0.5, seed=51)
        )
        plain = BDIPipeline(PipelineConfig(fusion="accuvote"))
        numeric = BDIPipeline(
            PipelineConfig(fusion="accuvote", numeric_fusion=True)
        )
        plain_report = plain.evaluate(
            corpus.dataset, plain.run(corpus.dataset)
        )
        numeric_report = numeric.evaluate(
            corpus.dataset, numeric.run(corpus.dataset)
        )
        assert numeric_report.fusion_accuracy >= (
            plain_report.fusion_accuracy - 0.02
        )

    def test_numeric_items_get_measurement_values(self):
        corpus = build_corpus(
            FourVKnobs(volume=0.04, variety=0.3, veracity=0.3, seed=52)
        )
        pipeline = BDIPipeline(
            PipelineConfig(fusion="vote", numeric_fusion=True)
        )
        result = pipeline.run(corpus.dataset)
        from repro.text import parse_measurement

        measured = 0
        for item, value in result.fusion.chosen.items():
            if "weight" in item or "screen size" in item:
                if parse_measurement(value.replace(",", ".")):
                    measured += 1
        assert measured > 0


class TestIdentifierToggle:
    def test_identifier_linkage_improves_recall(self):
        corpus = build_corpus(
            FourVKnobs(volume=0.05, variety=0.5, veracity=0.3, seed=53)
        )
        with_id = BDIPipeline(PipelineConfig(fusion="vote"))
        without_id = BDIPipeline(
            PipelineConfig(fusion="vote", use_identifier_linkage=False)
        )
        with_report = with_id.evaluate(
            corpus.dataset, with_id.run(corpus.dataset)
        )
        without_report = without_id.evaluate(
            corpus.dataset, without_id.run(corpus.dataset)
        )
        assert with_report.linkage_pairwise_f1 >= (
            without_report.linkage_pairwise_f1 - 0.01
        )


class TestProfilesOncePerRun:
    """Schema alignment and identifier linkage share one profiling pass."""

    @pytest.fixture
    def profiled(self, monkeypatch):
        import repro.core.pipeline
        import repro.schema.mediated

        calls = []

        def counting(dataset, sources=None):
            calls.append(dataset)
            return profile(dataset, sources)

        profile = repro.schema.mediated.profile_attributes
        monkeypatch.setattr(
            repro.core.pipeline, "profile_attributes", counting
        )
        monkeypatch.setattr(
            repro.schema.mediated, "profile_attributes", counting
        )
        return calls

    def test_one_pass_and_same_result(self, corpus, run, profiled):
        result = BDIPipeline(PipelineConfig(fusion="accuvote")).run(
            corpus.dataset
        )
        assert len(profiled) == 1
        assert result.entity_table == run[0].entity_table
        assert result.schema.attributes == run[0].schema.attributes

    def test_resumed_run_profiles_only_on_demand(
        self, corpus, profiled, tmp_path
    ):
        pipeline = BDIPipeline(PipelineConfig(fusion="accuvote"))
        first = pipeline.run(corpus.dataset, checkpoint=tmp_path)
        assert len(profiled) == 1
        resumed = pipeline.run(corpus.dataset, checkpoint=tmp_path)
        assert len(profiled) == 1  # every stage replayed: nothing asks
        assert resumed.entity_table == first.entity_table


@st.composite
def partitions(draw, ids):
    """A partition of a random subset of ``ids`` plus ids of its own."""
    members = draw(st.lists(st.sampled_from(ids), unique=True))
    members += [f"x{i}" for i in range(draw(st.integers(0, 3)))]
    labels = [draw(st.integers(0, 4)) for __ in members]
    return [
        [m for m, label in zip(members, labels) if label == cluster]
        for cluster in sorted(set(labels))
    ]


class TestIdentifierMergeIsAUnion:
    """Identifier clusters join the similarity clusters member by
    member; the result is the closure of every within-cluster pair."""

    IDS = [f"r{i}" for i in range(12)]

    @settings(max_examples=200, deadline=None)
    @given(partitions(IDS), partitions(IDS), st.lists(st.sampled_from(IDS)))
    def test_equals_the_pair_closure(self, left, right, ids):
        for pair in ((left, right), (left, left), (left, [])):
            assert _merge_partitions(pair, ids) == (
                reference_merge_partitions(pair, ids)
            )


class TestEachDistinctValuePreparedOnce:
    """One run prepares each distinct raw value once: the claims' canonical
    form and the profile's measurement parse are not repeated per
    occurrence."""

    @pytest.fixture(scope="class")
    def dataset(self):
        # batch_link's shape at a tenth of its size.
        world = generate_world(
            WorldConfig(
                ("camera", "notebook"), entities_per_category=30, seed=3000
            )
        )
        return generate_dataset(
            world,
            CorpusConfig(
                n_sources=6, max_source_size=50, seed=3001,
                source_size_zipf=0.5, dialect_noise=0.6, typo_rate=0.05,
            ),
        )

    def test_work_per_distinct_value(self, dataset, monkeypatch):
        import repro.core.pipeline
        import repro.schema.attribute_stats

        calls = {"canonical": Counter(), "parse": 0}

        def counting(module, name, count):
            inner = getattr(module, name)

            def wrapper(value, *args):
                count(value)
                return inner(value, *args)

            monkeypatch.setattr(module, name, wrapper)

        def canonical(value):
            calls["canonical"][value] += 1

        def parsed(__):
            calls["parse"] += 1

        counting(repro.core.pipeline, "canonical_value", canonical)
        counting(repro.schema.attribute_stats, "parse_measurement", parsed)
        BDIPipeline(PipelineConfig()).run(dataset)

        raw = [
            value
            for record in dataset.records()
            for value in record.attributes.values()
        ]
        assert len(raw) > 2 * len(set(raw))  # the corpus is redundant
        assert 0 < calls["parse"] <= len(set(raw))
        assert calls["canonical"]
        assert max(calls["canonical"].values()) == 1
