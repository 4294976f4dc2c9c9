"""E20 — comparison-engine throughput: naive vs prepared vs early-exit
vs multiprocess.

Candidate-pair comparison is the quadratic hot path of the linkage
stack (the tutorial's "volume" axis). This experiment measures
pairs/second on the standard linkage corpus for each engine layer:

* **naive** — the seed path: ``RecordComparator.compare`` per pair,
  re-normalizing and re-tokenizing record values on every pair;
* **prepared** — records normalized/tokenized/parsed once
  (``prepare_records``), pairs scored with ``compare_prepared``;
* **early-exit** — prepared records plus staged threshold-bounded
  scoring (``ParallelComparisonEngine`` serial ``match_pairs``);
* **process-N** — the multiprocess backend with N workers (its win
  requires real cores; on a single-CPU host it only pays IPC).

Every mode must produce the identical match-pair set — asserted here.
Machine-readable results land in ``BENCH_engine.json`` at the repo
root so future PRs have a perf trajectory.

Run standalone (no pytest-benchmark kernel) with::

    PYTHONPATH=src python benchmarks/bench_e20_engine.py --no-bench
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from bench_common import emit, linkage_corpus, render_table

from repro.linkage import (
    ParallelComparisonEngine,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    prepare_records,
)
from repro.text import clear_memo_caches

THRESHOLD = 0.7
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _corpus_pairs(n_entities: int, n_sources: int):
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


def early_exit_speedup(by_id, pairs, repeats: int, make_engine) -> dict:
    """Naive scoring vs ``make_engine().match_pairs``, best-of-N.

    The measurement the overhead gates (obs, recovery, out-of-core)
    hold against :func:`recorded_early_exit_speedup`: a path that is
    meant to be free when switched off must leave this ratio where the
    baseline recorded it. Every timed run starts on empty memos.
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
        engine = make_engine()
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


def recorded_early_exit_speedup() -> float:
    """The early-exit mode's ``speedup_vs_naive`` in BENCH_engine.json."""
    payload = json.loads(RESULT_PATH.read_text())
    by_mode = {row["mode"]: row for row in payload["modes"]}
    return by_mode["early-exit"]["speedup_vs_naive"]


def _run_modes(records, by_id, pairs, process_workers=(2, 4)):
    """Time every engine layer over the same pair list.

    Returns ``(results, match_sets)`` where results is a list of dicts
    (one per mode) and all match sets are asserted identical upstream.
    The similarity memos are process-wide, so they are emptied before
    each mode: every mode pays for its own misses.
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

    # naive: the seed comparator path, one full compare per pair.
    clear_memo_caches()
    start = time.perf_counter()
    matches = {
        frozenset(pair)
        for pair in pairs
        if comparator.compare(by_id[pair[0]], by_id[pair[1]]).score
        >= THRESHOLD
    }
    record_mode("naive", time.perf_counter() - start, matches)

    # prepared: per-record work hoisted out of the pair loop
    # (preparation cost included in the timing — it is part of the mode).
    clear_memo_caches()
    start = time.perf_counter()
    prepared = prepare_records(comparator, records)
    matches = {
        frozenset(pair)
        for pair in pairs
        if comparator.compare_prepared(
            prepared[pair[0]], prepared[pair[1]]
        ).score
        >= THRESHOLD
    }
    record_mode("prepared", time.perf_counter() - start, matches)

    # early-exit: prepared + staged threshold-bounded scoring.
    engine = ParallelComparisonEngine(comparator, execution="serial")
    clear_memo_caches()
    start = time.perf_counter()
    run = engine.match_pairs(by_id, pairs, classifier)
    record_mode("early-exit", time.perf_counter() - start, run.match_pairs)

    for n_workers in process_workers:
        engine = ParallelComparisonEngine(
            comparator, execution="process", n_workers=n_workers
        )
        clear_memo_caches()  # forked workers inherit the parent's memos
        start = time.perf_counter()
        run = engine.match_pairs(by_id, pairs, classifier)
        record_mode(
            f"process-{n_workers}",
            time.perf_counter() - start,
            run.match_pairs,
        )

    baseline = results[0]["pairs_per_sec"]
    for row in results:
        row["speedup_vs_naive"] = round(row["pairs_per_sec"] / baseline, 2)
    return results, match_sets


def _rows(results):
    return [
        [
            row["mode"],
            row["n_pairs"],
            row["seconds"],
            row["pairs_per_sec"],
            row["speedup_vs_naive"],
        ]
        for row in results
    ]


HEADERS = ["mode", "pairs", "seconds", "pairs/sec", "speedup"]


def _write_json(results, n_entities, n_sources, path=RESULT_PATH):
    payload = {
        "experiment": "E20 comparison engine throughput",
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


def bench_e20_engine(benchmark, capsys):
    n_entities, n_sources = 60, 12
    records, by_id, pairs = _corpus_pairs(n_entities, n_sources)
    results, match_sets = _run_modes(records, by_id, pairs)
    reference = match_sets["naive"]
    assert all(found == reference for found in match_sets.values())
    engine = ParallelComparisonEngine(default_product_comparator())
    classifier = ThresholdClassifier(THRESHOLD)
    benchmark(lambda: engine.match_pairs(by_id, pairs, classifier))
    _write_json(results, n_entities, n_sources)
    emit(
        capsys,
        "E20: comparison engine — pairs/sec by layer "
        f"({len(pairs)} candidate pairs, threshold {THRESHOLD})",
        HEADERS,
        _rows(results),
        note=(
            "Expected shape: prepared > naive; prepared+early-exit >= 3x "
            "naive; process-N wins only with >= N real cores (pure IPC "
            "overhead on a single-CPU host)."
        ),
    )
    by_mode = {row["mode"]: row for row in results}
    assert by_mode["prepared"]["pairs_per_sec"] > by_mode["naive"]["pairs_per_sec"]
    assert by_mode["early-exit"]["speedup_vs_naive"] >= 3.0
    # The process backend carries the early-exit scorer into its
    # workers, so even IPC-bound it must beat the prepared-serial path.
    assert (
        by_mode["process-4"]["pairs_per_sec"]
        > by_mode["prepared"]["pairs_per_sec"]
    )


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
        help="small corpus smoke run; does not overwrite BENCH_engine.json",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="where to write machine-readable results "
        "(default: BENCH_engine.json at the repo root; "
        "--quick writes nowhere unless --json is given)",
    )
    args = parser.parse_args(argv)
    n_entities, n_sources = (20, 6) if args.quick else (60, 12)
    records, by_id, pairs = _corpus_pairs(n_entities, n_sources)
    results, match_sets = _run_modes(records, by_id, pairs)
    reference = next(iter(match_sets.values()))
    if not all(found == reference for found in match_sets.values()):
        raise SystemExit("engine modes disagree on the match-pair set")
    print(
        render_table(
            HEADERS,
            _rows(results),
            title=(
                "E20: comparison engine — pairs/sec by layer "
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
