"""E22 — columnar batch kernels vs the scalar engine layers.

The columnar representation (:mod:`repro.columnar`) packs prepared
records into per-field numpy columns once and scores whole pair chunks
per kernel call, reserving the scalar similarity path for the residual
pairs that survive the vectorized early-exit mask. This experiment
measures pairs/second on the standard linkage corpus for each layer,
every timed run starting on empty similarity memos (they are
process-wide, and shared by all four modes):

* **prepared** — records normalized/tokenized once, pairs scored
  scalar with ``compare_prepared`` (full vectors, no early exit);
* **early-exit** — prepared plus staged threshold-bounded scoring
  (serial ``ParallelComparisonEngine.match_pairs``) — the fastest
  scalar mode and the baseline the columnar gate compares against;
* **columnar** — ``representation="columnar"`` through the same
  engine entry point (block build included in the timing);
* **columnar-kernels** — ``build_block`` + ``match_id_pairs`` called
  directly, skipping engine chunking/validation overhead.

Every mode must produce the identical match-pair set — asserted here.
Machine-readable results land in ``BENCH_columnar.json`` at the repo
root; ``check_columnar_speedup.py`` gates on them in CI.

Run standalone (no pytest-benchmark kernel) with::

    PYTHONPATH=src python benchmarks/bench_e22_columnar.py --no-bench
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from bench_common import emit, render_table
from bench_e20_engine import THRESHOLD, _corpus_pairs

from repro.columnar import build_block, match_id_pairs
from repro.linkage import (
    ParallelComparisonEngine,
    ThresholdClassifier,
    default_product_comparator,
    prepare_records,
)
from repro.text import clear_memo_caches

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_columnar.json"


def _run_modes(records, by_id, pairs, repeats: int = 1):
    """Time every layer over the same pair list, best-of-N.

    Returns ``(results, match_sets)``; all match sets are asserted
    identical upstream.
    """
    comparator = default_product_comparator()
    classifier = ThresholdClassifier(THRESHOLD)
    results = []
    match_sets = {}

    def record_mode(name, seconds, matches):
        results.append(
            {
                "mode": name,
                "n_pairs": len(pairs),
                "seconds": round(seconds, 4),
                "pairs_per_sec": round(len(pairs) / seconds, 1)
                if seconds
                else float("inf"),
            }
        )
        match_sets[name] = matches

    def best_of(run):
        best, out = float("inf"), None
        for __ in range(repeats):
            clear_memo_caches()  # every timed run pays its own misses
            start = time.perf_counter()
            out = run()
            best = min(best, time.perf_counter() - start)
        return best, out

    # prepared: scalar full-vector scoring (preparation cost included —
    # it is part of the mode, as in E20).
    def run_prepared():
        prepared = prepare_records(comparator, records)
        return {
            frozenset(pair)
            for pair in pairs
            if comparator.compare_prepared(
                prepared[pair[0]], prepared[pair[1]]
            ).score
            >= THRESHOLD
        }

    seconds, matches = best_of(run_prepared)
    record_mode("prepared", seconds, matches)

    # early-exit: the fastest scalar mode, and the gate baseline.
    def run_early_exit():
        engine = ParallelComparisonEngine(comparator, execution="serial")
        return engine.match_pairs(by_id, pairs, classifier).match_pairs

    seconds, matches = best_of(run_early_exit)
    record_mode("early-exit", seconds, matches)

    # columnar: same engine entry point, block build in the timing.
    def run_columnar():
        engine = ParallelComparisonEngine(
            comparator, execution="serial", representation="columnar"
        )
        return engine.match_pairs(by_id, pairs, classifier).match_pairs

    seconds, matches = best_of(run_columnar)
    record_mode("columnar", seconds, matches)

    # columnar-kernels: block + kernels without engine plumbing.
    def run_kernels():
        block = build_block(comparator, records)
        matched, __, __stats = match_id_pairs(block, pairs, THRESHOLD)
        return {frozenset((left, right)) for left, right, __s in matched}

    seconds, matches = best_of(run_kernels)
    record_mode("columnar-kernels", seconds, matches)

    baseline = results[0]["pairs_per_sec"]
    early_exit = results[1]["pairs_per_sec"]
    for row in results:
        row["speedup_vs_prepared"] = round(
            row["pairs_per_sec"] / baseline, 2
        )
        row["speedup_vs_early_exit"] = round(
            row["pairs_per_sec"] / early_exit, 2
        )
    return results, match_sets


def _rows(results):
    return [
        [
            row["mode"],
            row["n_pairs"],
            row["seconds"],
            row["pairs_per_sec"],
            row["speedup_vs_early_exit"],
        ]
        for row in results
    ]


HEADERS = ["mode", "pairs", "seconds", "pairs/sec", "vs early-exit"]


def _write_json(results, n_entities, n_sources, path=RESULT_PATH):
    payload = {
        "experiment": "E22 columnar batch-kernel throughput",
        "corpus": {
            "n_entities": n_entities,
            "n_sources": n_sources,
            "categories": ["camera", "notebook"],
        },
        "threshold": THRESHOLD,
        "unix_time": round(time.time(), 1),
        "modes": results,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def bench_e22_columnar(benchmark, capsys):
    n_entities, n_sources = 60, 12
    records, by_id, pairs = _corpus_pairs(n_entities, n_sources)
    results, match_sets = _run_modes(records, by_id, pairs)
    reference = match_sets["prepared"]
    assert all(found == reference for found in match_sets.values())
    engine = ParallelComparisonEngine(
        default_product_comparator(), representation="columnar"
    )
    classifier = ThresholdClassifier(THRESHOLD)
    benchmark(lambda: engine.match_pairs(by_id, pairs, classifier))
    _write_json(results, n_entities, n_sources)
    emit(
        capsys,
        "E22: columnar kernels — pairs/sec by layer "
        f"({len(pairs)} candidate pairs, threshold {THRESHOLD})",
        HEADERS,
        _rows(results),
        note=(
            "Expected shape: columnar 1.5-2x early-exit (what the "
            "vectorized cheap pass is worth once both paths share the "
            "similarity memos; the CI gate is >= 0.8x); "
            "columnar-kernels slightly above columnar (no engine "
            "chunking); block build is included in both columnar "
            "timings."
        ),
    )
    by_mode = {row["mode"]: row for row in results}
    assert by_mode["columnar"]["speedup_vs_early_exit"] >= 0.8
    assert by_mode["columnar"]["speedup_vs_prepared"] >= 1.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--no-bench",
        action="store_true",
        help="table-only mode: skip nothing but the pytest-benchmark "
        "kernel (this entry point never runs it anyway)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus smoke run; does not overwrite "
        "BENCH_columnar.json",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="where to write machine-readable results "
        "(default: BENCH_columnar.json at the repo root; "
        "--quick writes nowhere unless --json is given)",
    )
    args = parser.parse_args(argv)
    n_entities, n_sources = (20, 6) if args.quick else (60, 12)
    records, by_id, pairs = _corpus_pairs(n_entities, n_sources)
    results, match_sets = _run_modes(records, by_id, pairs, args.repeats)
    reference = next(iter(match_sets.values()))
    if not all(found == reference for found in match_sets.values()):
        raise SystemExit("columnar modes disagree on the match-pair set")
    print(
        render_table(
            HEADERS,
            _rows(results),
            title=(
                "E22: columnar kernels — pairs/sec by layer "
                f"({len(pairs)} candidate pairs, threshold {THRESHOLD})"
            ),
            float_digits=3,
        )
    )
    if args.json is not None:
        print(f"wrote {_write_json(results, n_entities, n_sources, args.json)}")
    elif not args.quick:
        print(f"wrote {_write_json(results, n_entities, n_sources)}")


if __name__ == "__main__":
    main()
