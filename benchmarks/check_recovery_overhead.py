"""Gate: checkpointing costs a bounded time per chunk.

The recovery layer (`repro.recovery`) threads an optional checkpoint
store through the comparison engine's chunk loop. With
``checkpoint=None`` the loop runs without a store (every
persist/replay is one ``is None`` check) and the engine is the default
one, whose early-exit speedup ``check_obs_overhead.py`` holds; this
gate holds the other half, **enabled is cheap**. With a live
``RunStore`` the executor durably pickles each completed chunk. What
that costs is the best-of-N wall time over the identical run without a
store, per checkpointed chunk, in milliseconds, and it must stay under
``--chunk-budget-ms``. An absolute cost, not a fraction of the scoring
time: that is a moving base, under which every scoring speed-up reads
as a checkpointing regression (the same few milliseconds per chunk are
3-17 % of 3,232 pairs' scoring without the similarity memos and over
20 % with them).

The gate asserts output equality along the way — a checkpointed run
that got faster by computing something else would be a bug, not a win.

Run:  PYTHONPATH=src python benchmarks/check_recovery_overhead.py [--quick]
"""

from __future__ import annotations

import argparse
import tempfile
import time

from bench_common import THRESHOLD, corpus_pairs

from repro.linkage import (
    ParallelComparisonEngine,
    ThresholdClassifier,
    default_product_comparator,
)
from repro.recovery import RunStore

#: Budget for one checkpointed chunk, in milliseconds. Recorded on the
#: 2-core box this repo is grown on: 3.1-5.5 ms per chunk over the quick
#: corpus's 2 chunks and 3.4 ms over the full corpus's 16 (a pickle, a
#: rename and an fsync each; the disk's share alone varies threefold
#: between runs). The budget is about three times that: it is there to
#: catch a checkpoint that starts to cost per pair or per run, not to
#: time the disk.
CHUNK_BUDGET_MS = 12.0


def _engine(checkpoint=None):
    return ParallelComparisonEngine(
        default_product_comparator(), checkpoint=checkpoint
    )


def measure_chunk_cost(by_id, pairs, repeats: int) -> dict:
    """Checkpointed minus plain wall time per chunk, best-of-N, a fresh
    store and a new comparator each run."""
    classifier = ThresholdClassifier(THRESHOLD)

    plain_best = float("inf")
    for __ in range(repeats):
        engine = _engine()
        start = time.perf_counter()
        plain = engine.match_pairs(by_id, pairs, classifier)
        plain_best = min(plain_best, time.perf_counter() - start)

    enabled_best = float("inf")
    for __ in range(repeats):
        with tempfile.TemporaryDirectory() as root:
            engine = _engine(checkpoint=RunStore(root))
            start = time.perf_counter()
            checkpointed = engine.match_pairs(by_id, pairs, classifier)
            enabled_best = min(enabled_best, time.perf_counter() - start)
    if checkpointed.match_pairs != plain.match_pairs:
        raise SystemExit("checkpointed run changed the match pairs")
    if checkpointed.scored_edges != plain.scored_edges:
        raise SystemExit("checkpointed run changed the scored edges")

    return {
        "plain_best": plain_best,
        "enabled_best": enabled_best,
        "n_chunks": checkpointed.n_chunks,
        "chunk_ms": round(
            (enabled_best - plain_best) * 1000.0 / checkpointed.n_chunks, 3
        ),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus (CI smoke); the gate is corpus-robust",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--chunk-budget-ms",
        type=float,
        default=CHUNK_BUDGET_MS,
        help="what one checkpointed chunk may cost over a plain run (ms)",
    )
    args = parser.parse_args(argv)

    n_entities, n_sources = (20, 6) if args.quick else (60, 12)
    __, by_id, pairs = corpus_pairs(n_entities, n_sources)
    print("Recovery overhead gate")
    print(f"  corpus:     {n_entities} entities x {n_sources}"
          f" sources -> {len(pairs)} pairs")

    enabled = measure_chunk_cost(by_id, pairs, args.repeats)
    print(f"  per chunk:  {enabled['chunk_ms']:.3f} ms over"
          f" {enabled['n_chunks']} chunks"
          f" (budget {args.chunk_budget_ms} ms)")
    if enabled["chunk_ms"] > args.chunk_budget_ms:
        raise SystemExit(
            f"checkpointing costs {enabled['chunk_ms']:.3f} ms per chunk, "
            f"over the {args.chunk_budget_ms} ms budget"
        )
    print("  OK: checkpointing within the chunk budget")


if __name__ == "__main__":
    main()
