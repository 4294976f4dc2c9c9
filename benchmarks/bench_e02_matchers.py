"""E2 — Attribute-matcher families: name vs instance vs hybrid.

The tutorial's schema-alignment section contrasts name-based matching
(cheap, synonym-blind) with instance-based matching (synonym-aware,
vocabulary-confusable); hybrid matching dominates both. This bench
reports correspondence precision/recall/F1 per matcher across two
heterogeneity levels.
"""

from __future__ import annotations

from bench_common import table

from repro.quality import correspondence_quality
from repro.schema import (
    HybridMatcher,
    InstanceMatcher,
    NameMatcher,
    profile_attributes,
    score_all_pairs,
    select_correspondences,
)
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)

MATCHERS = {
    "name": NameMatcher(),
    "instance": InstanceMatcher(),
    "hybrid": HybridMatcher(),
}


def corpus(dialect_noise: float):
    world = generate_world(
        WorldConfig(
            categories=("camera", "notebook"),
            entities_per_category=50,
            seed=2,
        )
    )
    return generate_dataset(
        world,
        CorpusConfig(n_sources=12, dialect_noise=dialect_noise, seed=5),
    )


def figure() -> str:
    rows = []
    best_f1 = {}
    for noise in (0.4, 0.8):
        dataset = corpus(noise)
        profiles = profile_attributes(dataset)
        for name, matcher in MATCHERS.items():
            scored = score_all_pairs(profiles, matcher, min_score=0.3)
            selected = select_correspondences(scored, threshold=0.6)
            quality = correspondence_quality(
                [(c.left, c.right) for c in selected], dataset
            )
            rows.append(
                [
                    noise,
                    name,
                    quality.precision,
                    quality.recall,
                    quality.f1,
                    len(selected),
                ]
            )
            best_f1.setdefault(noise, {})[name] = quality.f1
    for noise, scores in best_f1.items():
        assert scores["hybrid"] >= max(
            scores["name"], scores["instance"]
        ) - 0.02, f"hybrid should dominate at noise={noise}"
    return table(
        "E2: attribute correspondence quality by matcher family",
        ["dialect-noise", "matcher", "P", "R", "F1", "selected"],
        rows,
        note="Expected shape: hybrid F1 ≥ max(name, instance) per noise level.",
    )
