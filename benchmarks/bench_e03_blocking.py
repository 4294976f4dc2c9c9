"""E3 — Blocking trade-off curves: pairs completeness vs reduction ratio.

The classical blocking comparison: every scheme trades candidate-set
recall (PC) against comparison savings (RR). Key-equality blocking is
cheap but brittle; windows and overlapping schemes buy recall with
more candidates; schema-agnostic token blocking gets near-perfect PC
at the lowest RR (its cost is what meta-blocking, E4, removes).
"""

from __future__ import annotations

from bench_common import linkage_corpus, table

from repro.linkage import (
    CanopyBlocker,
    CompositeBlocker,
    QGramBlocker,
    SortedNeighborhoodBlocker,
    StandardBlocker,
    SuffixArrayBlocker,
    TokenBlocker,
)
from repro.linkage.blocking import (
    NAME_ALIASES,
    first_token_key,
    normalized_attribute_key,
    soundex_key,
    token_set_key,
)
from repro.quality import blocking_quality


def name_key_blockers():
    name = normalized_attribute_key("name", aliases=NAME_ALIASES)
    brand = first_token_key("name", aliases=NAME_ALIASES)
    return [
        ("standard(brand)", StandardBlocker(brand)),
        (
            "standard(name-tokens)",
            StandardBlocker(token_set_key("name", aliases=NAME_ALIASES)),
        ),
        (
            "soundex(brand)",
            StandardBlocker(soundex_key("name", aliases=NAME_ALIASES)),
        ),
        ("snh(w=3)", SortedNeighborhoodBlocker(name, window=3)),
        ("snh(w=10)", SortedNeighborhoodBlocker(name, window=10)),
        ("snh(w=25)", SortedNeighborhoodBlocker(name, window=25)),
        ("canopy(0.3/0.6)", CanopyBlocker(loose=0.3, tight=0.6)),
        ("canopy(0.5/0.8)", CanopyBlocker(loose=0.5, tight=0.8)),
        ("qgram(q=4,max=40)", QGramBlocker(name, q=4, max_block_size=40)),
        ("suffix(min=5,max=40)", SuffixArrayBlocker(name, 5, 40)),
        ("token(max=60)", TokenBlocker(max_block_size=60)),
        (
            "composite(brand+soundex)",
            CompositeBlocker(
                [
                    StandardBlocker(brand),
                    StandardBlocker(
                        soundex_key("name", aliases=NAME_ALIASES)
                    ),
                ]
            ),
        ),
    ]


def figure() -> str:
    dataset = linkage_corpus(n_entities=70, n_sources=14, typo_rate=0.06)
    records = list(dataset.records())
    truth = dataset.ground_truth
    rows = []
    by_name = {}
    for name, blocker in name_key_blockers():
        pairs = blocker.block(records).candidate_pairs()
        quality = blocking_quality(pairs, truth, len(records))
        rows.append(
            [
                name,
                quality.pairs_completeness,
                quality.pairs_quality,
                quality.reduction_ratio,
                quality.candidate_pairs,
            ]
        )
        by_name[name] = quality
    assert by_name["token(max=60)"].pairs_completeness > 0.95
    assert (
        by_name["snh(w=25)"].pairs_completeness
        >= by_name["snh(w=3)"].pairs_completeness
    )
    assert (
        by_name["composite(brand+soundex)"].pairs_completeness
        >= by_name["standard(brand)"].pairs_completeness
    )
    return table(
        "E3: blocking PC / PQ / RR per scheme "
        f"({len(records)} records, {len(truth.matching_pairs())} true pairs)",
        ["blocker", "PC", "PQ", "RR", "candidates"],
        rows,
        note=(
            "Expected shape: token blocking PC→1 at lowest RR; window "
            "growth raises PC and lowers RR; composite ≥ its parts."
        ),
    )
