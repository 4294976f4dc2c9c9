"""Cross-module integration tests.

Each test wires several subsystems together and asserts an
*equivalence* or *round-trip* property that only holds when the seams
line up: persistence feeding the pipeline, sharded linkage
matching sequential linkage, and schema translation feeding comparators.
"""

import pytest

from repro import BDIPipeline, FourVKnobs, PipelineConfig, build_corpus
from repro.io import load_dataset, save_dataset
from repro.linkage import (
    FieldComparator,
    RecordComparator,
    StandardBlocker,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    resolve,
)
from repro.linkage.blocking import NAME_ALIASES, first_token_key
from repro.quality import fusion_accuracy, pairwise_cluster_quality
from repro.schema import build_mediated_schema
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro.text import product_name_similarity


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(FourVKnobs(volume=0.04, variety=0.5, veracity=0.3, seed=13))


class TestPersistencePipeline:
    def test_pipeline_identical_after_round_trip(self, corpus, tmp_path):
        save_dataset(corpus.dataset, tmp_path / "corpus")
        reloaded = load_dataset(tmp_path / "corpus")
        pipeline = BDIPipeline(PipelineConfig(fusion="vote"))
        original = pipeline.run(corpus.dataset)
        restored = pipeline.run(reloaded)
        assert sorted(map(sorted, original.clusters)) == sorted(
            map(sorted, restored.clusters)
        )
        assert original.fusion.chosen == restored.fusion.chosen


class TestDistributedEqualsSequential:
    def test_match_pairs_identical(self):
        world = generate_world(
            WorldConfig(categories=("monitor",), entities_per_category=40, seed=4)
        )
        dataset = generate_dataset(world, CorpusConfig(n_sources=8, seed=6))
        records = list(dataset.records())
        blocker = StandardBlocker(
            first_token_key("name", aliases=NAME_ALIASES)
        )
        comparator = default_product_comparator()
        classifier = ThresholdClassifier(0.72)
        sequential = resolve(records, blocker, comparator, classifier)
        for n_shards in (2, 8):
            distributed = resolve(
                records, blocker, comparator, classifier,
                execution="sharded", n_shards=n_shards,
                shard_backend="inline",
            )
            assert distributed.match_pairs == sequential.match_pairs
            assert distributed.scored_edges == sequential.scored_edges
            assert distributed.clusters == sequential.clusters

    def test_distributed_clusters_match_quality(self):
        world = generate_world(
            WorldConfig(categories=("television",), entities_per_category=30, seed=4)
        )
        dataset = generate_dataset(world, CorpusConfig(n_sources=8, seed=6))
        records = list(dataset.records())
        linkage = resolve(
            records,
            TokenBlocker(max_block_size=60),
            default_product_comparator(),
            ThresholdClassifier(0.72),
            execution="sharded",
            n_shards=4,
            shard_backend="inline",
        )
        quality = pairwise_cluster_quality(
            linkage.clusters, dataset.ground_truth
        )
        assert quality.f1 > 0.9


class TestSchemaFeedsLinkage:
    def test_translated_comparator_links_heterogeneous_records(self):
        """Schema translation and alias lookup are two answers to the
        same heterogeneity; a comparator over the *translated* name
        must link well once the schema clusters the title dialects."""
        world = generate_world(
            WorldConfig(
                categories=("camera", "notebook"),
                entities_per_category=60,
                seed=3,
            )
        )
        dataset = generate_dataset(
            world,
            CorpusConfig(n_sources=14, dialect_noise=0.5, seed=5),
        )
        records = list(dataset.records())
        schema = build_mediated_schema(dataset, threshold=0.6)

        # The schema may split the title dialects over several mediated
        # attributes (pay-as-you-go alignment is partial); compare on
        # all of them via the comparator's alias mechanism.
        name_keys = [
            mediated.name
            for mediated in schema.attributes
            if any(
                attr in ("name", "title", "product name", "model",
                         "item name")
                for __, attr in mediated.members
            )
        ]
        assert name_keys, "schema found no name-ish cluster"
        name_keys.sort(
            key=lambda key: -len(schema.by_name(key).members)
        )
        translated = RecordComparator(
            [
                FieldComparator(
                    name_keys[0],
                    product_name_similarity,
                    weight=1.0,
                    aliases=tuple(name_keys[1:]),
                )
            ],
            translate=schema.translate,
        )
        result = resolve(
            records,
            TokenBlocker(max_block_size=60),
            translated,
            ThresholdClassifier(0.75),
        )
        quality = pairwise_cluster_quality(
            result.clusters, dataset.ground_truth
        )
        assert quality.f1 > 0.85


class TestPipelineFusionChoices:
    def test_accuvote_at_least_matches_vote_on_dirty_corpus(self):
        corpus = build_corpus(
            FourVKnobs(volume=0.05, variety=0.4, veracity=0.6, seed=21)
        )
        reports = {}
        for fusion in ("vote", "accuvote"):
            pipeline = BDIPipeline(PipelineConfig(fusion=fusion))
            result = pipeline.run(corpus.dataset)
            reports[fusion] = pipeline.evaluate(corpus.dataset, result)
        assert (
            reports["accuvote"].fusion_accuracy
            >= reports["vote"].fusion_accuracy - 0.03
        )

    def test_new_categories_flow_through_pipeline(self):
        world = generate_world(
            WorldConfig(
                categories=("monitor", "television"),
                entities_per_category=25,
                seed=31,
            )
        )
        dataset = generate_dataset(world, CorpusConfig(n_sources=8, seed=32))
        pipeline = BDIPipeline(PipelineConfig(fusion="vote"))
        result = pipeline.run(dataset)
        report = pipeline.evaluate(dataset, result)
        assert report.linkage_pairwise_f1 > 0.85
        assert report.fusion_accuracy > 0.6


class TestEndToEndCopierUnmasking:
    def test_accucopy_pipeline_flags_planted_corpus_copiers(self):
        """The whole-stack veracity story: corpus-level copier *sites*
        planted by the generator should surface as high copy
        probability between source pairs in the pipeline's AccuCopy
        output."""
        corpus = build_corpus(
            FourVKnobs(volume=0.06, variety=0.3, veracity=0.9, seed=41)
        )
        assert corpus.copier_of, "knobs should plant copier sites"
        pipeline = BDIPipeline(PipelineConfig(fusion="accucopy"))
        result = pipeline.run(corpus.dataset)
        detected = result.fusion.copy_probability
        hits = 0
        for copier, parent in corpus.copier_of.items():
            key = (min(copier, parent), max(copier, parent))
            if detected.get(key, 0.0) >= 0.5:
                hits += 1
        assert hits >= len(corpus.copier_of) / 2, (
            f"only {hits}/{len(corpus.copier_of)} planted copier sites "
            "were flagged"
        )
