"""E10 — Fusion accuracy vs number of sources and accuracy regime.

The tutorial's motivation for fusion-at-scale: redundancy helps —
accuracy climbs with the number of independent sources — but *how
fast* depends on the accuracy regime, and accuracy-aware fusion
extracts more from mixed-quality source pools than voting does.
"""

from __future__ import annotations

from bench_common import table

from repro.fusion import AccuVote, VotingFuser
from repro.quality import fusion_accuracy
from repro.synth import ClaimWorldConfig, generate_claims

REGIMES = {
    "high (0.8-0.95)": (0.8, 0.95),
    "mixed (0.5-0.95)": (0.5, 0.95),
    "low (0.4-0.7)": (0.4, 0.7),
}
SOURCE_COUNTS = (1, 3, 5, 9, 15)


def run(regime: tuple[float, float], n_sources: int, seed: int):
    planted = generate_claims(
        ClaimWorldConfig(
            n_items=250,
            n_independent=n_sources,
            accuracy_range=regime,
            n_false_values=4,
            seed=seed,
        )
    )
    vote = fusion_accuracy(
        VotingFuser().fuse(planted.claims), planted.truth
    )
    accu = fusion_accuracy(
        AccuVote(n_false_values=4).fuse(planted.claims), planted.truth
    )
    return vote, accu


def figure() -> str:
    rows = []
    curves: dict[str, list[float]] = {}
    for regime_name, regime in REGIMES.items():
        for n_sources in SOURCE_COUNTS:
            votes, accus = [], []
            for seed in (41, 42, 43):
                vote, accu = run(regime, n_sources, seed)
                votes.append(vote)
                accus.append(accu)
            vote = sum(votes) / len(votes)
            accu = sum(accus) / len(accus)
            rows.append([regime_name, n_sources, vote, accu])
            curves.setdefault(regime_name, []).append(accu)
    for regime_name, curve in curves.items():
        assert curve[-1] > curve[0], f"redundancy must help in {regime_name}"
    # accuvote ≥ vote on average.
    mean_vote = sum(row[2] for row in rows) / len(rows)
    mean_accu = sum(row[3] for row in rows) / len(rows)
    assert mean_accu >= mean_vote - 0.01
    # Diminishing returns: first doubling gains more than the last.
    low_curve = curves["low (0.4-0.7)"]
    assert (low_curve[2] - low_curve[0]) > (low_curve[4] - low_curve[2])
    return table(
        "E10: fusion accuracy vs #independent sources per accuracy regime",
        ["regime", "sources", "vote", "accuvote"],
        rows,
        note=(
            "Expected shape: accuracy climbs with redundancy in every "
            "regime; the climb is steepest from 1→5 sources; accuvote ≥ "
            "vote throughout."
        ),
    )
