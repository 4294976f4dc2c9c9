"""Gate: columnar output is identical and not slower than 0.8x scalar.

The columnar representation is a layout option, not the fast path: its
4x over the scalar early-exit engine was mostly two per-block
similarity memos the scalar path did not have, and both now live with
the similarity functions, under every path. What is left is the
vectorised cheap pass: 1.5-2.0x on the full corpus and 1.4-1.8x on the
quick one over repeated runs, each side on cold memos — a margin one
noisy run on a small corpus can lose, so the floor sits below 1. CI
holds ``representation="columnar"`` through
``ParallelComparisonEngine.match_pairs`` (block build included) to the
identical match-pair set and scored edges, and to at least
``--min-speedup`` (0.8) times the pairs/second of the scalar early-exit
engine on the same corpus and pair list. Both sides are timed best-of-N
in the same process, so the ratio is machine independent the same way
the other overhead gates are; the similarity memos are process-wide,
so they are emptied before each timed run and each side pays for its
own misses.

Run:  PYTHONPATH=src python benchmarks/check_columnar_speedup.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from bench_e20_engine import THRESHOLD, _corpus_pairs

from repro.linkage import (
    ParallelComparisonEngine,
    ThresholdClassifier,
    default_product_comparator,
)
from repro.text import clear_memo_caches


def measure(by_id, pairs, repeats: int) -> dict:
    """Scalar early-exit vs columnar ``match_pairs``, best-of-N."""
    comparator = default_product_comparator()
    classifier = ThresholdClassifier(THRESHOLD)

    scalar_best = float("inf")
    for __ in range(repeats):
        engine = ParallelComparisonEngine(comparator, execution="serial")
        clear_memo_caches()
        start = time.perf_counter()
        scalar_run = engine.match_pairs(by_id, pairs, classifier)
        scalar_best = min(scalar_best, time.perf_counter() - start)

    columnar_best = float("inf")
    for __ in range(repeats):
        engine = ParallelComparisonEngine(
            comparator, execution="serial", representation="columnar"
        )
        clear_memo_caches()
        start = time.perf_counter()
        columnar_run = engine.match_pairs(by_id, pairs, classifier)
        columnar_best = min(columnar_best, time.perf_counter() - start)

    if columnar_run.match_pairs != scalar_run.match_pairs:
        raise SystemExit("columnar changed the match-pair set")
    if columnar_run.scored_edges != scalar_run.scored_edges:
        raise SystemExit("columnar changed the scored edges")

    return {
        "scalar_best": scalar_best,
        "columnar_best": columnar_best,
        "speedup": round(scalar_best / columnar_best, 2),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus (CI smoke); the ratio gate is corpus-robust",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.8,
        help="columnar must reach this fraction of scalar early-exit",
    )
    args = parser.parse_args(argv)

    n_entities, n_sources = (20, 6) if args.quick else (60, 12)
    __, by_id, pairs = _corpus_pairs(n_entities, n_sources)
    result = measure(by_id, pairs, args.repeats)

    print("Columnar speedup gate")
    print(f"  corpus:             {n_entities} entities x {n_sources}"
          f" sources -> {len(pairs)} pairs")
    print(f"  scalar early-exit:  {result['scalar_best']:.4f} s "
          f"({len(pairs) / result['scalar_best']:.0f} pairs/sec)")
    print(f"  columnar:           {result['columnar_best']:.4f} s "
          f"({len(pairs) / result['columnar_best']:.0f} pairs/sec)")
    print(f"  speedup:            {result['speedup']}x "
          f"(required >= {args.min_speedup}x)")
    if result["speedup"] < args.min_speedup:
        raise SystemExit(
            f"columnar regression: {result['speedup']}x < "
            f"{args.min_speedup}x over the scalar early-exit engine"
        )
    print("  OK: identical output, columnar no slower than the floor")


if __name__ == "__main__":
    main()
