"""E17 (extension) — Progressive (pay-as-you-go) entity resolution.

The pay-as-you-go theme applied to linkage: order candidate pairs so
matches surface early. Expected shape: under a 10–20% comparison
budget, similarity-first ordering finds several times the matches of
random ordering; all orderings converge at full budget. Includes the
MinHash-LSH blocker as a scalable candidate generator.
"""

from __future__ import annotations

from bench_common import linkage_corpus, table

from repro.linkage import (
    MinHashBlocker,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    progressive_resolution_curve,
)
from repro.quality import blocking_quality


def figure() -> str:
    dataset = linkage_corpus(n_entities=60, n_sources=12)
    records = list(dataset.records())
    truth = dataset.ground_truth
    blocks = TokenBlocker(max_block_size=60).block(records)
    total = len(blocks.candidate_pairs())
    checkpoints = sorted(
        {max(1, round(total * fraction)) for fraction in
         (0.05, 0.1, 0.2, 0.4, 0.7, 1.0)}
    )
    comparator = default_product_comparator()
    classifier = ThresholdClassifier(0.72)

    curves = {}
    for ordering in ("similarity", "block-size", "random"):
        curves[ordering] = progressive_resolution_curve(
            records, blocks, comparator, classifier,
            ordering=ordering, checkpoints=checkpoints, seed=2,
        )
    final = curves["similarity"][-1].matches_found
    rows = []
    for index, budget in enumerate(checkpoints):
        rows.append(
            [
                f"{budget} ({budget / total:.0%})",
                curves["similarity"][index].matches_found / final,
                curves["block-size"][index].matches_found / final,
                curves["random"][index].matches_found / final,
            ]
        )

    # The LSH companion: a similarity-thresholded candidate generator.
    lsh_blocks = MinHashBlocker(n_hashes=64, bands=32).block(records)
    lsh_quality = blocking_quality(
        lsh_blocks.candidate_pairs(), truth, len(records)
    )
    # At the ~20% checkpoint, similarity-first ≫ random.
    twenty = 2
    assert rows[twenty][1] > 0.9, "similarity-first nearly done at 20%"
    assert rows[twenty][1] > 2.0 * rows[twenty][3], "and ≫ random"
    assert rows[-1][1] == rows[-1][2] == rows[-1][3] == 1.0
    assert lsh_quality.pairs_completeness > 0.9
    return table(
        "E17 (extension): fraction of matches found vs comparison budget "
        f"per candidate ordering ({total} candidates, {final} matches)",
        ["budget", "similarity-first", "block-size-first", "random"],
        rows,
        note=(
            "Expected shape: similarity-first ≈ complete within ~20% of "
            "the budget; random is linear in budget. Companion LSH "
            f"blocker: PC={lsh_quality.pairs_completeness:.3f} at "
            f"RR={lsh_quality.reduction_ratio:.3f} "
            f"({lsh_quality.candidate_pairs} candidates)."
        ),
    )
