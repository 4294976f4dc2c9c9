"""E1 — Probabilistic mediated schema vs deterministic vs no alignment.

Reproduces the shape of Das Sarma, Dong & Halevy (SIGMOD'08): on
keyword queries over heterogeneous sources, the probabilistic mediated
schema's F-measure dominates a single deterministic mediated schema,
which in turn dominates querying unaligned source schemas.
"""

from __future__ import annotations

from functools import lru_cache

from bench_common import table

from repro.schema import (
    answer_with_pschema,
    answer_with_schema,
    answer_without_alignment,
    build_mediated_schema,
    build_probabilistic_mediated_schema,
    cell_quality,
    true_answer_cells,
)
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)

QUERIES = {
    "camera": ("screen size", "weight", "color", "resolution", "sensor type"),
    "notebook": ("screen size", "weight", "memory", "storage", "cpu speed"),
    "headphone": ("impedance", "form factor", "weight", "connectivity"),
}


@lru_cache(maxsize=None)
def corpus(category: str, dialect_noise: float):
    world = generate_world(
        WorldConfig(categories=(category,), entities_per_category=50, seed=2)
    )
    return generate_dataset(
        world,
        CorpusConfig(
            n_sources=12,
            dialect_noise=dialect_noise,
            typo_rate=0.0,
            error_rate=0.0,
            seed=4,
        ),
    )


def run_domain(category: str, dialect_noise: float):
    dataset = corpus(category, dialect_noise)
    deterministic = build_mediated_schema(dataset, threshold=0.62)
    probabilistic = build_probabilistic_mediated_schema(
        dataset,
        certain_threshold=0.8,
        uncertain_threshold=0.42,
        max_schemas=8,
    )
    sums = {"none": [0.0, 0.0, 0.0], "det": [0.0, 0.0, 0.0], "prob": [0.0, 0.0, 0.0]}
    queries = QUERIES[category]
    for query in queries:
        actual = true_answer_cells(dataset, query)
        baseline = cell_quality(
            answer_without_alignment(dataset, query), actual
        )
        det = cell_quality(
            answer_with_schema(dataset, deterministic, query), actual
        )
        prob = cell_quality(
            set(
                answer_with_pschema(
                    dataset, probabilistic, query, min_probability=0.25
                )
            ),
            actual,
        )
        for key, quality in (
            ("none", baseline), ("det", det), ("prob", prob)
        ):
            sums[key][0] += quality.precision
            sums[key][1] += quality.recall
            sums[key][2] += quality.f1
    n = len(queries)
    return {key: [v / n for v in vals] for key, vals in sums.items()}


def figure() -> str:
    rows = []
    for category in QUERIES:
        for noise in (0.5, 0.8):
            averaged = run_domain(category, noise)
            rows.append(
                [
                    category,
                    noise,
                    averaged["none"][2],
                    averaged["det"][2],
                    averaged["prob"][2],
                ]
            )
    averages = [sum(r[i] for r in rows) / len(rows) for i in (2, 3, 4)]
    assert averages[1] >= averages[0], "mediated schema must beat raw sources"
    assert averages[2] >= averages[1] - 0.02, (
        "p-mediated must not lose to deterministic"
    )
    return table(
        "E1: query-answering F1 — no alignment vs deterministic vs "
        "probabilistic mediated schema",
        ["domain", "dialect-noise", "F1 none", "F1 mediated", "F1 p-mediated"],
        rows,
        note=(
            "Expected shape (Das Sarma et al.): p-mediated ≥ mediated ≥ "
            "no alignment, gap widening with heterogeneity."
        ),
    )
