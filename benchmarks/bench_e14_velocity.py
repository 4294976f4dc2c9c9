"""E14 — Velocity: incremental maintenance vs full recomputation.

Successive corpus snapshots churn sources and pages (the re-crawl
statistics the velocity discussion reports); the maintainer folds each
snapshot in at a cost proportional to the *churn*, while the baseline
re-pays the whole corpus. Rows report survival statistics and the
comparison counts of both paths per snapshot.
"""

from __future__ import annotations

from functools import lru_cache

from bench_common import table

from repro.linkage import (
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
)
from repro.quality import pairwise_cluster_quality
from repro.synth import (
    CorpusConfig,
    EvolvingWorldConfig,
    WorldConfig,
    evolve_world,
    generate_world,
)
from repro.text import normalize_value, word_tokens
from repro.velocity import (
    SnapshotConfig,
    SnapshotMaintainer,
    diff_datasets,
    render_snapshots,
)


def all_value_tokens(record):
    tokens = set()
    for value in record.attributes.values():
        tokens.update(
            t for t in word_tokens(normalize_value(value)) if len(t) >= 2
        )
    return tokens


@lru_cache(maxsize=None)
def snapshots():
    world = generate_world(
        WorldConfig(categories=("camera",), entities_per_category=50, seed=5)
    )
    worlds = evolve_world(
        world,
        EvolvingWorldConfig(
            n_snapshots=6, change_rate=0.15, death_rate=0.08, seed=6
        ),
    )
    return tuple(
        render_snapshots(
            worlds,
            CorpusConfig(
                n_sources=10, min_source_size=12, max_source_size=35, seed=7
            ),
            SnapshotConfig(
                source_death_rate=0.12,
                page_death_rate=0.15,
                page_birth_rate=0.1,
                seed=8,
            ),
        )
    )


def figure() -> str:
    snaps = snapshots()
    maintainer = SnapshotMaintainer(
        [all_value_tokens],
        default_product_comparator(),
        ThresholdClassifier(0.72),
    )
    rows = []
    speedups = []
    for index, snapshot in enumerate(snaps):
        cost = maintainer.process_snapshot(snapshot)
        full_clusters, full_comparisons = SnapshotMaintainer.full_recompute(
            snapshot,
            TokenBlocker(),
            default_product_comparator(),
            ThresholdClassifier(0.72),
        )
        survival = 1.0
        if index > 0:
            survival = diff_datasets(snaps[index - 1], snapshot).record_survival
        incremental_f1 = pairwise_cluster_quality(
            maintainer.clusters(), snapshot.ground_truth
        ).f1
        full_f1 = pairwise_cluster_quality(
            full_clusters, snapshot.ground_truth
        ).f1
        speedup = full_comparisons / max(1, cost.comparisons)
        rows.append(
            [
                index,
                snapshot.n_records,
                survival,
                cost.new_records,
                cost.comparisons,
                full_comparisons,
                speedup,
                incremental_f1,
                full_f1,
            ]
        )
        if index > 0:
            speedups.append(speedup)
    assert min(speedups) > 1.5, "incremental must beat recompute after build"
    total_incremental = sum(row[4] for row in rows[1:])
    total_full = sum(row[5] for row in rows[1:])
    assert total_full / total_incremental > 2.5
    for row in rows:
        assert abs(row[7] - row[8]) < 0.12, "quality must track recompute"
    assert all(row[2] < 1.0 for row in rows[1:]), "churn must be visible"
    return table(
        "E14: incremental maintenance vs full recompute across snapshots",
        [
            "snap", "records", "survival", "new", "incr cmp", "full cmp",
            "speedup", "incr F1", "full F1",
        ],
        rows,
        note=(
            "Expected shape: after the initial build, incremental cost "
            "tracks churn (orders below full recompute) at comparable F1. "
            "Survival < 1 echoes the re-crawl statistics (pages die and "
            "change constantly)."
        ),
    )
