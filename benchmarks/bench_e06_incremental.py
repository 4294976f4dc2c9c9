"""E6 — Incremental vs batch record linkage (Gruenheid et al., VLDB'14).

As update batches arrive, incremental linkage compares each new record
only against index-sharing records, so its per-batch cost stays flat;
batch re-linkage re-pays the whole corpus every time. Quality is
identical by construction (same candidate generation, deterministic
classifier, order-insensitive union-find).
"""

from __future__ import annotations

from bench_common import linkage_corpus, table

from repro.linkage import (
    IncrementalLinker,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    resolve,
)
from repro.quality import pairwise_cluster_quality
from repro.text import normalize_value, word_tokens


def all_value_tokens(record):
    tokens = set()
    for value in record.attributes.values():
        tokens.update(
            t for t in word_tokens(normalize_value(value)) if len(t) >= 2
        )
    return tokens


def figure() -> str:
    dataset = linkage_corpus(n_entities=60, n_sources=12)
    records = list(dataset.records())
    truth = dataset.ground_truth
    batch_size = max(1, len(records) // 8)
    batches = [
        records[start : start + batch_size]
        for start in range(0, len(records), batch_size)
    ]

    linker = IncrementalLinker(
        [all_value_tokens],
        default_product_comparator(),
        ThresholdClassifier(0.72),
        max_candidates_per_record=10_000,
    )
    rows = []
    total_seen = 0
    candidates = comparisons = 0
    for index, batch in enumerate(batches):
        stats = linker.add_batch(batch)
        # Candidates in an entity the record already matched are skipped.
        assert stats.comparisons <= stats.candidates
        candidates += stats.candidates
        comparisons += stats.comparisons
        total_seen += len(batch)
        # Batch baseline cost: candidates of a full re-run over all
        # records seen so far.
        full = resolve(
            records[:total_seen],
            TokenBlocker(),
            default_product_comparator(),
            ThresholdClassifier(0.72),
        )
        rows.append(
            [
                index,
                total_seen,
                stats.comparisons,
                full.n_candidates,
                full.n_candidates / max(1, stats.comparisons),
            ]
        )
    incremental_quality = pairwise_cluster_quality(linker.clusters(), truth)
    full = resolve(
        records,
        TokenBlocker(),
        default_product_comparator(),
        ThresholdClassifier(0.72),
    )
    batch_quality = pairwise_cluster_quality(full.clusters, truth)
    assert incremental_quality.f1 == batch_quality.f1
    # Later batches: batch re-run must cost several times incremental.
    assert rows[-1][4] > 3.0
    # Speedup grows as the corpus outgrows the batch.
    assert rows[-1][4] > rows[1][4]
    return table(
        "E6: incremental vs batch linkage cost per update batch",
        ["batch", "corpus size", "incr comparisons", "batch comparisons", "speedup"],
        rows,
        note=(
            f"Final F1 — incremental {incremental_quality.f1:.3f}, "
            f"batch {batch_quality.f1:.3f} (identical by construction); "
            f"{candidates - comparisons} of {candidates} candidates not "
            "compared, being in an entity the record had already matched. "
            "Expected shape: speedup grows with corpus size."
        ),
    )
