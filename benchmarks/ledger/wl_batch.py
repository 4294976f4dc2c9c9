"""batch_link and batch_wide: ``BDIPipeline.run`` over a generated corpus.

The two workloads share every line of code and differ only in the
corpus shape: ``batch_link`` is records-heavy (blocking, pair dedup and
scoring dominate), ``batch_wide`` is sources-heavy (schema alignment
dominates and the comparison engine is a few percent).
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass

from repro.core import Dataset, Source
from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.dist import sharded_resolve
from repro.fusion import AccuVote, Claim, ClaimSet
from repro.linkage import (
    ParallelComparisonEngine,
    ThresholdClassifier,
    TokenBlocker,
    connected_components,
    default_product_comparator,
    detect_identifier_attributes,
    link_by_identifier,
    resolve,
)
from repro.outofcore import MemoryBudget
from repro.quality import (
    attribute_cluster_quality,
    blocking_quality,
    clusters_to_pairs,
)
from repro.schema import build_mediated_schema, profile_attributes
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro.text import canonical_value

from harness import canonical_sha256
from refclock import clock

#: Corpus shapes. Sizes are part of a workload's definition, and so is the
#: corpus: one draw of the generator (``corpus_seed``), in an order the run's
#: seed draws. At any size a run can afford, two draws differ twofold in
#: candidate pairs (token blocks just under the 60-record cap give 1 770
#: pairs each, just over it none) and by a third in records per second, so
#: runs on different draws could only be compared through bounds wider than
#: any regression worth catching. ``SMOKE_SIZES`` is the tenth-size variant
#: that ``--smoke`` and the tests run.
_LINK = dict(
    corpus_seed=3000,
    categories=("camera", "notebook"),
    corpus=dict(source_size_zipf=0.5, dialect_noise=0.6, typo_rate=0.05),
)
_WIDE = dict(
    corpus_seed=3000,
    categories=("camera", "notebook", "headphone"),
    corpus=dict(
        dialect_noise=0.8, format_noise=0.5, tail_attribute_rate=0.5,
        error_rate=0.1, max_custom_attributes=4,
    ),
)
SIZES = {
    "batch_link": dict(_LINK, entities=150, n_sources=12, max_source_size=250),
    "batch_wide": dict(_WIDE, entities=120, n_sources=24, max_source_size=20),
}
SMOKE_SIZES = {
    "batch_link": dict(_LINK, entities=30, n_sources=6, max_source_size=50),
    "batch_wide": dict(_WIDE, entities=30, n_sources=8, max_source_size=20),
}

#: The out-of-core probe's budget: tight enough that blocking and pair
#: dedup spill at either size.
TIGHT_BUDGET_BYTES = 48 * 1024

#: A run whose quality falls under these has not integrated the corpus.
MIN_LINKAGE_F1 = 0.6
MIN_FUSION_ACCURACY = 0.5


@dataclass
class Inputs:
    name: str
    dataset: object
    sizes: dict
    digest: str
    generate_s: float


def generate_corpus(sizes: dict):
    """The corpus of a batch (or serve) workload, as the generator made it."""
    seed = sizes["corpus_seed"]
    world = generate_world(
        WorldConfig(
            sizes["categories"],
            entities_per_category=sizes["entities"],
            seed=seed,
        )
    )
    return generate_dataset(
        world,
        CorpusConfig(
            n_sources=sizes["n_sources"],
            max_source_size=sizes["max_source_size"],
            seed=seed + 1,
            **sizes["corpus"],
        ),
    )


def reordered(dataset, seed: int):
    """``dataset`` with its sources, and each source's records, in the
    order ``seed`` draws."""
    rng = random.Random(seed)
    sources = [
        Source(
            source.source_id,
            rng.sample(source.records, len(source.records)),
            source.cost,
            source.metadata,
        )
        for source in dataset.sources
    ]
    rng.shuffle(sources)
    return Dataset(sources, dataset.ground_truth, name=dataset.name)


def records_digest(records) -> str:
    return canonical_sha256(
        [
            [record.record_id, record.source_id, dict(record.attributes)]
            for record in records
        ]
    )


def setup(name: str, seed: int, sizes: dict) -> Inputs:
    started = clock()
    dataset = reordered(generate_corpus(sizes), seed)
    generate_s = clock() - started
    records = list(dataset.records())
    return Inputs(
        name=name,
        dataset=dataset,
        sizes={"records": len(records), "sources": len(dataset)},
        digest=records_digest(records),
        generate_s=generate_s,
    )


def run(inputs: Inputs):
    return BDIPipeline(PipelineConfig()).run(inputs.dataset)


def check(inputs: Inputs, result, verify: bool) -> dict:
    """Every record in exactly one entity, and quality above the floor."""
    failures: list[str] = []
    dataset = inputs.dataset
    clustered = sorted(
        record_id for cluster in result.clusters for record_id in cluster
    )
    if clustered != sorted(dataset.record_ids()):
        failures.append("clusters do not partition the corpus's records")
    cluster_ids = {min(cluster) for cluster in result.clusters}
    if not set(result.entity_table) <= cluster_ids:
        failures.append("entity table names an entity that is no cluster")
    report = BDIPipeline(PipelineConfig()).evaluate(dataset, result)
    if report.linkage_pairwise_f1 < MIN_LINKAGE_F1:
        failures.append(f"linkage F1 {report.linkage_pairwise_f1:.3f}")
    if report.fusion_accuracy < MIN_FUSION_ACCURACY:
        failures.append(f"fusion accuracy {report.fusion_accuracy:.3f}")
    n_records = inputs.sizes["records"]
    return {
        "failures": failures,
        "ops_attempted": n_records,
        "ops_failed": 0,
        "items": n_records,
        "quality": report.linkage_pairwise_f1 * report.fusion_accuracy,
        "output_sha256": canonical_sha256(result.entity_table),
        "counts": {
            "candidate_pairs": result.linkage.n_candidates,
            "clusters": len(result.clusters),
            "claims": len(result.claims),
            "entities": len(result.entity_table),
        },
        "layers": {
            "quality.linkage_f1": report.linkage_pairwise_f1,
            "quality.fusion_accuracy": report.fusion_accuracy,
            "schema.f1": report.schema_f1,
        },
    }


# --- the traced pass -------------------------------------------------------


def _ordered(candidate_pairs) -> list[tuple[str, str]]:
    return [
        (pair_ids[0], pair_ids[1])
        for pair_ids in (
            sorted(pair) for pair in sorted(candidate_pairs, key=sorted)
        )
    ]


def staged(dataset, rec) -> dict:
    """The default pipeline, stage by stage, each stage under a span.

    This is ``BDIPipeline.run`` for ``PipelineConfig()`` composed from the
    layers' public functions; ``trace`` asserts the entity table it builds
    hashes to what ``BDIPipeline.run`` built, so the decomposition is
    shown to be faithful and not a second pipeline.
    """
    config = PipelineConfig()
    records = list(dataset.records())
    by_id = {record.record_id: record for record in records}
    comparator = default_product_comparator()
    rec.wrap(comparator, "prepare", "engine.prepare")

    with rec.span("schema.align"):
        schema = build_mediated_schema(
            dataset, threshold=config.schema_threshold
        )
    with rec.span("blocking.block"):
        blocks = TokenBlocker(max_block_size=config.max_block_size).block(
            records
        )
    with rec.span("blocking.pair_dedup"):
        candidates = blocks.candidate_pairs()
        ordered = _ordered(candidates)
    engine = ParallelComparisonEngine(comparator)
    with rec.span("engine.match"):
        matched = engine.match_pairs(
            by_id, ordered, ThresholdClassifier(config.match_threshold)
        )
    with rec.span("clustering.cluster"):
        clusters = connected_components(matched.match_pairs, sorted(by_id))
    with rec.span("identifier.link"):
        detections = detect_identifier_attributes(profile_attributes(dataset))
        identifier_clusters = link_by_identifier(records, detections)
        clusters = connected_components(
            clusters_to_pairs(clusters)
            | clusters_to_pairs(identifier_clusters),
            [record.record_id for record in records],
        )
    with rec.span("claims.extract"):
        cluster_of = {
            record_id: min(cluster)
            for cluster in clusters
            for record_id in cluster
        }
        claim_set = ClaimSet()
        seen: set[tuple[str, str]] = set()
        for record in records:
            cluster_id = cluster_of[record.record_id]
            for attribute, value in schema.translate(record).items():
                item_id = f"{cluster_id}::{attribute}"
                if (record.source_id, item_id) in seen:
                    continue
                seen.add((record.source_id, item_id))
                claim_set.add(
                    Claim(record.source_id, item_id, canonical_value(value))
                )
    with rec.span("fusion.fuse"):
        fusion = AccuVote(n_false_values=config.n_false_values).fuse(
            claim_set
        )
    with rec.span("claims.entity_table"):
        entity_table: dict[str, dict[str, str]] = {}
        for item_id, value in fusion.chosen.items():
            cluster_id, __, attribute = item_id.partition("::")
            entity_table.setdefault(cluster_id, {})[attribute] = value
    rec.restore()
    return {
        "schema": schema,
        "blocks": blocks,
        "candidates": candidates,
        "ordered": ordered,
        "matched": matched,
        "clusters": clusters,
        "claim_set": claim_set,
        "fusion": fusion,
        "entity_table": entity_table,
        "by_id": by_id,
    }


def _timed(function):
    started = clock()
    value = function()
    return value, clock() - started


def _engine_rate(by_id, ordered, classifier, **engine_options) -> float:
    engine = ParallelComparisonEngine(
        default_product_comparator(), **engine_options
    )
    # A first small call pays for the path's lazy imports, not the timing.
    engine.match_pairs(by_id, ordered[:64], classifier)
    __, seconds = _timed(
        lambda: engine.match_pairs(by_id, ordered, classifier)
    )
    return len(ordered) / seconds


def trace(inputs: Inputs, result, rec) -> tuple[dict, list[str]]:
    failures: list[str] = []
    dataset = inputs.dataset
    with rec.root():
        stages = staged(dataset, rec)
    if canonical_sha256(stages["entity_table"]) != canonical_sha256(
        result.entity_table
    ):
        failures.append(
            "the staged composition's entity table differs from "
            "BDIPipeline.run's"
        )

    matched = stages["matched"]
    n_pairs = matched.n_pairs
    n_sources_of = [len(source.attribute_names()) for source in dataset.sources]
    n_attributes = sum(n_sources_of)
    truth = dataset.ground_truth
    block_quality = blocking_quality(
        stages["candidates"], truth, inputs.sizes["records"]
    )
    layers = {
        "schema.align_s": rec.total("schema.align"),
        "schema.attributes": n_attributes,
        "schema.attr_pairs": (
            n_attributes**2 - sum(n * n for n in n_sources_of)
        ) // 2,
        "schema.clusters": len(stages["schema"].clusters()),
        "schema.f1": attribute_cluster_quality(
            stages["schema"].clusters(), dataset
        ).f1,
        "blocking.block_s": rec.total("blocking.block"),
        "blocking.pair_dedup_s": rec.total("blocking.pair_dedup"),
        "blocking.blocks": len(stages["blocks"]),
        "blocking.candidate_pairs": len(stages["candidates"]),
        "blocking.pair_completeness": block_quality.pairs_completeness,
        "blocking.reduction_ratio": block_quality.reduction_ratio,
        "engine.prepare_s": rec.total("engine.prepare"),
        "engine.match_s": rec.total("engine.match"),
        "engine.pairs": n_pairs,
        "engine.pairs_per_s": n_pairs / rec.total("engine.match"),
        "engine.early_exit_rate": matched.n_early_exit / n_pairs,
        "engine.match_rate": len(matched.match_pairs) / n_pairs,
        "clustering.cluster_s": rec.total("clustering.cluster"),
        "clustering.clusters": len(stages["clusters"]),
        "identifier.link_s": rec.total("identifier.link"),
        "claims.extract_s": (
            rec.total("claims.extract") + rec.total("claims.entity_table")
        ),
        "claims.count": len(stages["claim_set"]),
        "fusion.fuse_s": rec.total("fusion.fuse"),
        "fusion.iterations": stages["fusion"].iterations,
        "fusion.items": len(stages["fusion"].chosen),
    }
    if inputs.name == "batch_link":
        layers.update(_alternative_paths(stages, failures))
    return layers, failures


def _alternative_paths(stages: dict, failures: list[str]) -> dict:
    """Engine, out-of-core and sharded probes over batch_link's records.

    None of these is on the default path; each is timed against the same
    records (and, for the engine, the same ordered pairs) so that a later
    change of default has a measured number behind it.
    """
    by_id, ordered = stages["by_id"], stages["ordered"]
    records = list(by_id.values())
    config = PipelineConfig()
    classifier = ThresholdClassifier(config.match_threshold)

    def fresh_resolve(**options):
        return resolve(
            records,
            TokenBlocker(max_block_size=config.max_block_size),
            default_product_comparator(),
            classifier,
            **options,
        )

    in_memory, in_memory_s = _timed(fresh_resolve)
    budget = MemoryBudget(TIGHT_BUDGET_BYTES)
    with tempfile.TemporaryDirectory(prefix="ledger-spill-") as spill_dir:
        bounded, bounded_s = _timed(
            lambda: fresh_resolve(memory_budget=budget, spill_dir=spill_dir)
        )
    sharded, sharded_s = _timed(
        lambda: sharded_resolve(
            records,
            TokenBlocker(max_block_size=config.max_block_size),
            default_product_comparator(),
            classifier,
            n_shards=2,
            backend="process",
        )
    )
    for label, other in (
        ("out-of-core", bounded), ("sharded", sharded.result),
    ):
        if other.clusters != in_memory.clusters:
            failures.append(f"{label} resolve differs from in-memory resolve")
    return {
        "engine.columnar_pairs_per_s": _engine_rate(
            by_id, ordered, classifier, representation="columnar"
        ),
        "engine.process2_pairs_per_s": _engine_rate(
            by_id, ordered, classifier, execution="process", n_workers=2
        ),
        "outofcore.resolve_s": bounded_s,
        "outofcore.slowdown_ratio": bounded_s / in_memory_s,
        "outofcore.spill_count": budget.spill_count,
        "outofcore.peak_tracked_bytes": budget.peak,
        "dist.sharded2_resolve_s": sharded_s,
        "dist.sharded2_speedup": in_memory_s / sharded_s,
    }
