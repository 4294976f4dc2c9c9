"""Shared helpers for the paper figures and the engine gates.

Every ``bench_eXX_*.py`` file regenerates one figure from the
evaluation index in DESIGN.md: its ``figure()`` computes the
experiment's rows, asserts the expected shape and returns the rows as
an aligned table (:func:`table`), which ``figures.py`` writes into
EXPERIMENTS.md. Corpora are cached per-process so a run of every
figure doesn't regenerate identical worlds.

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

__all__ = [
    "RECORDED_EARLY_EXIT_SPEEDUP",
    "THRESHOLD",
    "corpus_pairs",
    "early_exit_speedup",
    "linkage_corpus",
    "table",
]

#: Match threshold of the engine gates.
THRESHOLD = 0.7

#: Early-exit engine over naive per-pair scoring, as
#: ``check_obs_overhead.py`` measured it once similarity memos became
#: a comparator's own (naive scoring calls the plain, unmemoized
#: functions), on a 2-core Intel Xeon box under CPython 3.11: the
#: median of eight runs (14.4-20.2x; 9.2x while both sides shared
#: process-wide memos) over the 31,751 candidate pairs of
#: ``corpus_pairs(60, 12)`` at ``THRESHOLD``, best of 3, each side on a
#: new comparator; one run at the median read 179,749 against 11,077
#: pairs/s. The ``--quick`` corpus ``(20, 6)`` reads 11-23x over eleven
#: runs. A ratio, because absolute pairs/s is the machine's;
#: ``check_obs_overhead.py`` holds the measured one above a fraction of
#: it.
RECORDED_EARLY_EXIT_SPEEDUP = 16.2


def table(
    title: str, headers, rows, note: str = "", float_digits: int = 3
) -> str:
    """An experiment's figure: the aligned table, then its note."""
    rendered = render_table(
        headers, rows, title=title, float_digits=float_digits
    )
    return f"{rendered}\n{note}" if note else rendered


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
    pairs = TokenBlocker(max_block_size=60).block(records).ordered_pairs()
    return records, by_id, pairs


def early_exit_speedup(by_id, pairs, repeats: int) -> dict:
    """Naive scoring vs the default engine's ``match_pairs``, best-of-N.

    The default engine is what every switched-off option leaves behind
    (no tracer, no checkpoint, no budget: each is one ``is None`` or
    ``NULL_TRACER`` check in the one chunk loop), so a path that is
    meant to be free when off must leave this ratio where
    :data:`RECORDED_EARLY_EXIT_SPEEDUP` put it. Every timed run starts
    on a new comparator, so on empty memos; the two sides must agree on
    the match pairs.
    """
    classifier = ThresholdClassifier(THRESHOLD)

    naive_best = float("inf")
    for __ in range(repeats):
        comparator = default_product_comparator()
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
