"""E16 (extension) — Numeric truth discovery: CRH vs mean vs median.

Numeric conflicts (prices, weights, delays) need loss-aware fusion.
The CRH result (Li et al., SIGMOD'14): jointly estimating source
weights and truths beats unweighted aggregation, with the margin over
the plain median widening as gross-error (outlier) sources multiply —
weights let CRH discount entire unreliable sources, which the
per-item median cannot.
"""

from __future__ import annotations

import statistics

from bench_common import table

from repro.fusion import CRHNumericFuser
from repro.synth import NumericClaimWorldConfig, generate_numeric_claims

OUTLIER_SETTINGS = ((0, 0.0), (2, 0.3), (4, 0.4), (6, 0.5))
SEEDS = (1, 2, 3)


def mae(estimates, truth):
    return sum(abs(estimates[i] - truth[i]) for i in truth) / len(truth)


def run_setting(outlier_sources: int, outlier_rate: float):
    means = {"mean": 0.0, "median": 0.0, "crh": 0.0}
    weight_gap = 0.0
    for seed in SEEDS:
        planted = generate_numeric_claims(
            NumericClaimWorldConfig(
                n_items=150,
                n_sources=12,
                outlier_sources=outlier_sources,
                outlier_rate=max(outlier_rate, 0.01),
                seed=seed,
            )
        )
        by_item: dict[str, list[float]] = {}
        for (__, item), value in planted.claims.items():
            by_item.setdefault(item, []).append(value)
        mean_est = {i: sum(v) / len(v) for i, v in by_item.items()}
        median_est = {i: statistics.median(v) for i, v in by_item.items()}
        truths, weights, __ = CRHNumericFuser().fuse_values(planted.claims)
        means["mean"] += mae(mean_est, planted.truth) / len(SEEDS)
        means["median"] += mae(median_est, planted.truth) / len(SEEDS)
        means["crh"] += mae(truths, planted.truth) / len(SEEDS)
        if planted.outlier_sources:
            honest = [
                s for s in weights if s not in planted.outlier_sources
            ]
            weight_gap += (
                sum(weights[s] for s in honest) / len(honest)
                - sum(weights[s] for s in planted.outlier_sources)
                / len(planted.outlier_sources)
            ) / len(SEEDS)
    return means, weight_gap


def figure() -> str:
    rows = []
    crh_vs_median = []
    for outlier_sources, outlier_rate in OUTLIER_SETTINGS:
        means, weight_gap = run_setting(outlier_sources, outlier_rate)
        rows.append(
            [
                f"{outlier_sources}/12 @ {outlier_rate}",
                means["mean"],
                means["median"],
                means["crh"],
                weight_gap,
            ]
        )
        crh_vs_median.append(means["median"] - means["crh"])
    mean_col = [row[1] for row in rows]
    crh_col = [row[3] for row in rows]
    assert all(c <= m for c, m in zip(crh_col[1:], mean_col[1:]))
    assert crh_vs_median[-1] > crh_vs_median[0], (
        "CRH's edge over the median must grow with contamination"
    )
    assert rows[-1][4] > 0, "honest sources must out-weigh outliers"
    return table(
        "E16 (extension): numeric truth discovery — MAE of mean / median "
        "/ CRH under growing outlier contamination",
        ["outliers@rate", "MAE mean", "MAE median", "MAE CRH", "weight gap"],
        rows,
        float_digits=2,
        note=(
            "Expected shape (Li et al.): CRH ≤ median ≪ mean once "
            "outliers appear; CRH's margin over the median widens with "
            "contamination; honest sources out-weigh outlier sources."
        ),
    )
