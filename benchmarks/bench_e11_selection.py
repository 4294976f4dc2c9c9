"""E11 — "Less is more" source selection (Dong, Saha & Srivastava).

Integrating sources in greedy marginal-gain order front-loads almost
all the accuracy; with per-source integration costs, cumulative profit
(gain − cost) peaks well before all sources are integrated and
declines afterwards — integrating everything is strictly worse than
stopping. Random and coverage orderings trail the greedy curve.
"""

from __future__ import annotations

from functools import lru_cache

from bench_common import table

from repro.fusion import VotingFuser
from repro.selection import (
    GreedySourceSelector,
    baseline_order,
    true_accuracy,
)
from repro.synth import ClaimWorldConfig, generate_claims

CHECKPOINTS = (1, 2, 4, 6, 9, 12, 16, 20)
COST_WEIGHT = 0.012


@lru_cache(maxsize=None)
def world():
    return generate_claims(
        ClaimWorldConfig(
            n_items=200,
            n_independent=20,
            accuracy_range=(0.35, 0.95),
            coverage=0.7,
            n_false_values=4,
            seed=51,
        )
    )


def accuracy_at(order, k):
    planted = world()
    return true_accuracy(
        planted.claims, list(order[:k]), VotingFuser(), planted.truth
    )


def figure() -> str:
    planted = world()
    selector = GreedySourceSelector(VotingFuser(), cost_weight=COST_WEIGHT)
    selection = selector.select(planted.claims)
    greedy_order = list(selection.order)
    random_order = baseline_order(planted.claims, "random", seed=7)
    coverage_order = baseline_order(planted.claims, "coverage")

    profits = selection.cumulative_profit()
    rows = []
    for k in CHECKPOINTS:
        rows.append(
            [
                k,
                accuracy_at(greedy_order, k),
                accuracy_at(random_order, k),
                accuracy_at(coverage_order, k),
                profits[k - 1],
            ]
        )
    # Greedy beats random early.
    assert rows[2][1] > rows[2][2], "greedy must beat random at k=4"
    # Profit peaks strictly before integrating everything.
    peak = max(range(len(profits)), key=profits.__getitem__)
    assert peak < len(profits) - 1, "profit must peak before all sources"
    # Accuracy saturates: last 8 sources add almost nothing for greedy.
    assert accuracy_at(greedy_order, 20) - accuracy_at(greedy_order, 12) < 0.05
    return table(
        "E11: fusion accuracy and profit vs sources integrated "
        "(20 sources, long-tail accuracy, integration cost "
        f"{COST_WEIGHT}/source)",
        ["k", "greedy acc", "random acc", "coverage acc", "greedy profit"],
        rows,
        note=(
            "Expected shape (less is more): greedy front-loads accuracy; "
            "profit peaks before k=20 and declines; greedy ≥ random at "
            "small k."
        ),
    )
