"""E12 — Online data fusion (Liu, Dong, Ooi & Srivastava, VLDB'11).

Probing sources best-first while maintaining Bayesian posteriors lets
most items terminate long before all sources are read: expected
correctness approaches the batch answer within a handful of probes,
and the fraction of terminated items climbs steeply.
"""

from __future__ import annotations

from functools import lru_cache

from bench_common import table

from repro.fusion import AccuVote, OnlineFusion
from repro.quality import fusion_accuracy
from repro.synth import ClaimWorldConfig, generate_claims


@lru_cache(maxsize=None)
def world():
    return generate_claims(
        ClaimWorldConfig(
            n_items=250,
            n_independent=14,
            accuracy_range=(0.5, 0.95),
            n_false_values=5,
            seed=61,
        )
    )


def figure() -> str:
    planted = world()
    online = OnlineFusion(planted.accuracies, n_false_values=5)
    result, trace = online.run(planted.claims)
    batch = AccuVote(
        n_false_values=5, known_accuracies=planted.accuracies
    ).fuse(planted.claims)
    batch_accuracy = fusion_accuracy(batch, planted.truth)

    rows = []
    for probed, answers in enumerate(trace.answers, start=1):
        accuracy = sum(
            1
            for item, value in answers.items()
            if planted.truth.get(item) == value
        ) / len(planted.truth)
        rows.append(
            [
                probed,
                trace.probe_order[probed - 1],
                accuracy,
                trace.expected_correctness[probed - 1],
                trace.terminated[probed - 1],
            ]
        )
    final_accuracy = rows[-1][2]
    assert abs(final_accuracy - batch_accuracy) < 0.02
    halfway_accuracy = rows[len(rows) // 2][2]
    assert halfway_accuracy > batch_accuracy - 0.05
    assert list(trace.terminated) == sorted(trace.terminated)
    assert trace.terminated[-1] > 0.9
    return table(
        "E12: online fusion — anytime accuracy and termination vs probes "
        f"(batch accuracy with all 14 sources: {batch_accuracy:.3f})",
        ["probed", "source", "true accuracy", "expected correctness", "terminated"],
        rows,
        note=(
            "Expected shape (Liu et al.): accuracy within a few points "
            "of batch after ~half the probes; termination fraction "
            "rises monotonically."
        ),
    )
