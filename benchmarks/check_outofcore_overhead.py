"""Gate: out-of-core stays under budget; in-memory keeps its speedup.

The streaming layer (`repro.outofcore`) threads an optional memory
budget through blocking, pair dedup, and the comparison engine. Three
promises guard it:

1. **In-memory is untouched.** With ``memory_budget=None`` resolve
   takes the exact pre-streaming code path, so the early-exit speedup
   over naive scoring recorded in ``BENCH_engine.json`` must survive.
   As in ``check_recovery_overhead.py``, the gate compares the
   machine-independent *ratio* and passes while the measured speedup
   stays above half the recorded one.
2. **The budget binds.** A streamed run under a budget far below the
   working set must finish with peak tracked bytes <= the budget and
   nonzero spill traffic — and produce byte-identical clusters, match
   pairs, and scored edges.
3. **Bookkeeping is bounded.** Under a roomy budget (no spills) the
   streaming path pays only cache bookkeeping; its throughput must
   stay above a configurable fraction of the in-memory run.

Run:  PYTHONPATH=src python benchmarks/check_outofcore_overhead.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from bench_e20_engine import (
    THRESHOLD,
    _corpus_pairs,
    early_exit_speedup,
    recorded_early_exit_speedup,
)

from repro.linkage import (
    ParallelComparisonEngine,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    resolve,
)
from repro.outofcore import MemoryBudget
from repro.text import clear_memo_caches

TIGHT_BUDGET = 48 * 1024
ROOMY_BUDGET = 1 << 30


def _engine():
    return ParallelComparisonEngine(default_product_comparator())


def measure_streaming(records, repeats: int) -> dict:
    """In-memory vs streamed resolve (roomy and tight), best-of-N,
    every timed run on empty memos."""
    blocker = TokenBlocker(max_block_size=60)
    comparator = default_product_comparator()
    classifier = ThresholdClassifier(THRESHOLD)

    inmemory_best = float("inf")
    for __ in range(repeats):
        clear_memo_caches()
        start = time.perf_counter()
        reference = resolve(records, blocker, comparator, classifier)
        inmemory_best = min(inmemory_best, time.perf_counter() - start)

    timings = {}
    budgets = {}
    for name, limit in (
        ("roomy", ROOMY_BUDGET),
        ("tight", TIGHT_BUDGET),
    ):
        best = float("inf")
        for __ in range(repeats):
            with tempfile.TemporaryDirectory() as root:
                budget = MemoryBudget(limit)
                clear_memo_caches()
                start = time.perf_counter()
                streamed = resolve(
                    records, blocker, comparator, classifier,
                    memory_budget=budget, spill_dir=root,
                )
                best = min(best, time.perf_counter() - start)
        if streamed.clusters != reference.clusters:
            raise SystemExit(f"streamed ({name}) changed the clusters")
        if streamed.match_pairs != reference.match_pairs:
            raise SystemExit(f"streamed ({name}) changed the match pairs")
        if streamed.scored_edges != reference.scored_edges:
            raise SystemExit(f"streamed ({name}) changed the scored edges")
        if streamed.n_candidates != reference.n_candidates:
            raise SystemExit(f"streamed ({name}) changed the pair count")
        timings[name] = best
        budgets[name] = budget

    return {
        "inmemory_best": inmemory_best,
        "roomy_best": timings["roomy"],
        "tight_best": timings["tight"],
        "roomy_ratio": round(inmemory_best / timings["roomy"], 2),
        "tight_ratio": round(inmemory_best / timings["tight"], 2),
        "tight_peak": budgets["tight"].peak,
        "tight_spills": budgets["tight"].spill_count,
        "roomy_spills": budgets["roomy"].spill_count,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus (CI smoke); all gates are corpus-robust",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.5,
        help="in-memory speedup must exceed this fraction of baseline",
    )
    parser.add_argument(
        "--min-roomy-throughput",
        type=float,
        default=0.4,
        help="no-spill streaming must keep this fraction of in-memory "
        "throughput",
    )
    args = parser.parse_args(argv)

    n_entities, n_sources = (20, 6) if args.quick else (60, 12)
    records, by_id, pairs = _corpus_pairs(n_entities, n_sources)

    inmemory = early_exit_speedup(by_id, pairs, args.repeats, _engine)
    recorded = recorded_early_exit_speedup()
    floor = args.min_ratio * recorded
    print("Out-of-core overhead gate")
    print(f"  corpus:               {n_entities} entities x {n_sources}"
          f" sources -> {len(pairs)} pairs")
    print(f"  [in-memory] speedup:  {inmemory['measured_speedup']}x"
          f" (baseline {recorded}x, required > {floor:.2f}x)")
    if inmemory["measured_speedup"] <= floor:
        raise SystemExit(
            f"in-memory regression: measured speedup "
            f"{inmemory['measured_speedup']}x <= {floor:.2f}x"
        )

    streaming = measure_streaming(records, args.repeats)
    print(f"  [stream-tight] peak:  {streaming['tight_peak']} B"
          f" (budget {TIGHT_BUDGET} B), "
          f"{streaming['tight_spills']} spills, "
          f"{streaming['tight_ratio']}x in-memory throughput")
    if streaming["tight_peak"] > TIGHT_BUDGET:
        raise SystemExit(
            f"budget violated: peak {streaming['tight_peak']} B > "
            f"{TIGHT_BUDGET} B"
        )
    if streaming["tight_spills"] == 0:
        raise SystemExit(
            "tight budget produced no spills — the gate corpus no "
            "longer exercises the spill path"
        )

    print(f"  [stream-roomy] ratio: {streaming['roomy_ratio']}x"
          f" in-memory throughput (required >= "
          f"{args.min_roomy_throughput}x, 0 spills)")
    if streaming["roomy_spills"] != 0:
        raise SystemExit("roomy budget spilled — budget accounting broke")
    if streaming["roomy_ratio"] < args.min_roomy_throughput:
        raise SystemExit(
            f"streaming bookkeeping overhead too high: "
            f"{streaming['roomy_ratio']}x < {args.min_roomy_throughput}x"
        )
    print("  OK: in-memory keeps its speedup, streamed output is "
          "identical, the budget binds")


if __name__ == "__main__":
    main()
