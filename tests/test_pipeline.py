"""Tests for the end-to-end BDI pipeline and corpus builder."""

import pytest

from repro import BDIPipeline, FourVKnobs, PipelineConfig, build_corpus
from repro.core import ConfigurationError
from repro.synth import CopierConfig, add_copier_sources, scaled


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
