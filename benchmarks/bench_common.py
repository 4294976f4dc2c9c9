"""Shared helpers for the benchmark harness.

Every ``bench_eXX_*.py`` file regenerates one table/figure from the
evaluation index in DESIGN.md: it computes the experiment's rows,
prints them as an aligned table (the "figure"), and times one
representative kernel through pytest-benchmark. Corpora are cached
per-process so the harness doesn't regenerate identical worlds.

The engine gates (``check_obs_overhead.py``,
``check_recovery_overhead.py``) share their corpus, threshold and the
one early-exit-vs-naive measurement through here as well.
"""

from __future__ import annotations

import time
from functools import lru_cache

from repro.linkage import (
    ParallelComparisonEngine,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
)
from repro.quality import render_table
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro.text import clear_memo_caches

__all__ = [
    "RECORDED_EARLY_EXIT_SPEEDUP",
    "THRESHOLD",
    "corpus_pairs",
    "early_exit_speedup",
    "emit",
    "linkage_corpus",
    "render_table",
]

#: Match threshold of the engine gates.
THRESHOLD = 0.7

#: Early-exit engine over naive per-pair scoring, as
#: ``check_obs_overhead.py`` measured it on the commit that made every
#: staged decision one plan per field-presence mask (parent 525cb01),
#: on a 2-core Intel Xeon box under CPython 3.11: 213,174 against
#: 23,111 pairs/s over the 31,751 candidate pairs of
#: ``corpus_pairs(60, 12)`` at ``THRESHOLD``, best of 3, each side on
#: empty similarity memos (5.1x at the parent). The ``--quick`` corpus
#: ``(20, 6)`` reads 6-8x, its values repeat less. A ratio, because
#: absolute pairs/s is the machine's; ``check_obs_overhead.py`` holds
#: the measured one above a fraction of it.
RECORDED_EARLY_EXIT_SPEEDUP = 9.2


def emit(
    capsys, title: str, headers, rows, note: str = "", float_digits: int = 3
) -> None:
    """Print an experiment table to the real terminal.

    ``capsys.disabled()`` bypasses pytest capture so the table is
    visible in normal runs and in the tee'd bench log.
    """
    table = render_table(headers, rows, title=title, float_digits=float_digits)
    with capsys.disabled():
        print()
        print(table)
        if note:
            print(note)


@lru_cache(maxsize=None)
def linkage_corpus(
    n_entities: int = 60,
    n_sources: int = 12,
    typo_rate: float = 0.05,
    seed: int = 3,
):
    """A standard product corpus for the linkage experiments (cached)."""
    world = generate_world(
        WorldConfig(
            categories=("camera", "notebook"),
            entities_per_category=n_entities,
            seed=seed,
        )
    )
    return generate_dataset(
        world,
        CorpusConfig(
            n_sources=n_sources,
            dialect_noise=0.6,
            typo_rate=typo_rate,
            seed=seed + 1,
        ),
    )


def corpus_pairs(n_entities: int, n_sources: int):
    """``(records, by_id, pairs)``: the standard corpus and its token
    blocking's candidate pairs, oriented and sorted."""
    dataset = linkage_corpus(n_entities=n_entities, n_sources=n_sources)
    records = list(dataset.records())
    by_id = {record.record_id: record for record in records}
    candidates = TokenBlocker(max_block_size=60).block(
        records
    ).candidate_pairs()
    pairs = [
        (ids[0], ids[1])
        for ids in (sorted(pair) for pair in sorted(candidates, key=sorted))
    ]
    return records, by_id, pairs


def early_exit_speedup(by_id, pairs, repeats: int) -> dict:
    """Naive scoring vs the default engine's ``match_pairs``, best-of-N.

    The default engine is what every switched-off option leaves behind
    (no tracer, no checkpoint, no budget: each is one ``is None`` or
    ``NULL_TRACER`` check in the one chunk loop), so a path that is
    meant to be free when off must leave this ratio where
    :data:`RECORDED_EARLY_EXIT_SPEEDUP` put it. Every timed run starts
    on empty memos; the two sides must agree on the match pairs.
    """
    comparator = default_product_comparator()
    classifier = ThresholdClassifier(THRESHOLD)

    naive_best = float("inf")
    for __ in range(repeats):
        clear_memo_caches()
        start = time.perf_counter()
        naive_matches = {
            frozenset(pair)
            for pair in pairs
            if comparator.compare(by_id[pair[0]], by_id[pair[1]]).score
            >= THRESHOLD
        }
        naive_best = min(naive_best, time.perf_counter() - start)

    early_best = float("inf")
    for __ in range(repeats):
        engine = ParallelComparisonEngine(default_product_comparator())
        clear_memo_caches()
        start = time.perf_counter()
        run = engine.match_pairs(by_id, pairs, classifier)
        early_best = min(early_best, time.perf_counter() - start)
    if run.match_pairs != naive_matches:
        raise SystemExit("early-exit disagrees with naive on match pairs")

    return {
        "naive_best": naive_best,
        "early_best": early_best,
        "measured_speedup": round(naive_best / early_best, 2),
    }
