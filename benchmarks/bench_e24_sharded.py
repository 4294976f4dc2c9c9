"""E24 — sharded pipeline runtime: scaling and shuffle cost.

The sharded runtime (:mod:`repro.dist.runtime`) partitions the
canonical candidate-pair list across entity-sharded workers, each
running the serial resilient engine on its slice, and reconciles the
per-shard results back to the serial output byte for byte. This
experiment measures, for shard counts 1/2/4/8 over the standard
linkage corpus:

* **wall** — coordinator wall-clock of the whole sharded resolve.
  On a single-core container this *degrades* with shard count (the
  shards time-slice one CPU plus pay coordination overhead), which is
  itself a finding worth recording honestly.
* **makespan** — the simulated-parallel completion time: every
  worker's matching time is measured inside the worker
  (``ShardResult.elapsed``); the makespan charges the slowest shard
  plus all coordinator-side time (partitioning, merging,
  reconciliation), which stays serial. It is a cost-model figure
  (``"simulated": true`` in the JSON), reported but not gated: as
  matching got cheaper the coordinator's fixed share came to decide
  the ratio.
* **balance** — the slowest shard's matching time over an even share
  of the serial engine's (``serial matching / n_shards``): 1.0 is a
  perfect split, ``n_shards`` means every shard redid all the work.
  With the coordinator's seconds, this is what
  ``check_sharded_scaling.py`` gates.
* **skew** — max/mean per-shard pair count: how evenly hash
  partitioning by smaller-id spreads the workload.
* **spanning** — pairs whose two records live on different home
  shards (the shuffle volume a real cluster would pay).

Every shard count must reproduce the serial match pairs, scored
edges, and clusters exactly — asserted here. Machine-readable results
land in ``BENCH_sharded.json`` at the repo root.

Run standalone (no pytest-benchmark kernel) with::

    PYTHONPATH=src python benchmarks/bench_e24_sharded.py --no-bench
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from bench_common import emit
from bench_e20_engine import THRESHOLD, _corpus_pairs

from repro.dist import sharded_resolve
from repro.linkage import (
    ParallelComparisonEngine,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    resolve,
)
from repro.text import clear_memo_caches

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"

SHARD_COUNTS = (1, 2, 4, 8)


def _serial_baseline(records, by_id, pairs, repeats: int):
    """Full serial resolve: identity reference + wall time.

    The baseline is the whole serial pipeline (canonical pair
    ordering, matching, clustering, result assembly) — the same work
    the sharded coordinator + workers share — so the makespan ratio
    compares like with like.
    """
    comparator = default_product_comparator()
    classifier = ThresholdClassifier(THRESHOLD)
    reference = None
    best = float("inf")
    for __ in range(repeats):
        clear_memo_caches()  # every timed run pays its own misses
        start = time.perf_counter()
        reference = resolve(
            records,
            TokenBlocker(max_block_size=60),
            comparator,
            classifier,
            candidate_pairs=[frozenset(pair) for pair in pairs],
        )
        best = min(best, time.perf_counter() - start)
    return reference, best


def _serial_matching(by_id, pairs, repeats: int) -> float:
    """Best-of-N seconds of the serial engine over the same pairs: the
    work the shards divide (a shard runs exactly this on its slice)."""
    engine = ParallelComparisonEngine(default_product_comparator())
    classifier = ThresholdClassifier(THRESHOLD)
    best = float("inf")
    for __ in range(repeats):
        clear_memo_caches()
        start = time.perf_counter()
        engine.match_pairs(by_id, pairs, classifier)
        best = min(best, time.perf_counter() - start)
    return best


def _measure_sharded(records, pairs, n_shards: int, repeats: int):
    """Best-of-N sharded resolve; returns (row metrics, run).

    Each shard's seconds and the coordinator's are best-of-N on their
    own (not those of the best-wall repeat): one slow shard in an
    otherwise fast repeat is noise, and the gate reads the slowest.
    """
    comparator = default_product_comparator()
    classifier = ThresholdClassifier(THRESHOLD)
    best = None
    wall_best = coordinator = float("inf")
    worker_times = [float("inf")] * n_shards
    for __ in range(repeats):
        clear_memo_caches()
        start = time.perf_counter()
        run = sharded_resolve(
            records,
            TokenBlocker(max_block_size=60),
            comparator,
            classifier,
            candidate_pairs=[frozenset(pair) for pair in pairs],
            n_shards=n_shards,
            backend="inline",
        )
        wall = time.perf_counter() - start
        if wall < wall_best:
            wall_best, best = wall, run
        elapsed = [shard.elapsed for shard in run.shards]
        coordinator = min(coordinator, max(0.0, wall - sum(elapsed)))
        worker_times = [min(pair) for pair in zip(worker_times, elapsed)]
    makespan = coordinator + max(worker_times)
    counts = [shard.n_pairs for shard in best.shards]
    mean = sum(counts) / len(counts) if counts else 0.0
    skew = (max(counts) / mean) if mean else 1.0
    return {
        "n_shards": n_shards,
        "wall_seconds": round(wall_best, 4),
        "makespan_seconds": round(makespan, 4),
        "coordinator_seconds": round(coordinator, 4),
        "max_shard_seconds": round(max(worker_times), 4),
        "skew": round(skew, 3),
        "spanning_pairs": best.n_spanning_pairs,
    }, best


def run_experiment(records, by_id, pairs, repeats: int = 1):
    """``(serial resolve s, serial matching s, one row per shard count)``."""
    reference, serial_match = _serial_baseline(records, by_id, pairs, repeats)
    serial_matching = _serial_matching(by_id, pairs, repeats)
    rows = []
    for n_shards in SHARD_COUNTS:
        row, run = _measure_sharded(records, pairs, n_shards, repeats)
        result = run.result
        assert result.match_pairs == reference.match_pairs
        assert result.scored_edges == reference.scored_edges
        assert result.clusters == reference.clusters
        row["identical"] = True
        row["speedup_makespan"] = round(
            serial_match / row["makespan_seconds"], 2
        ) if row["makespan_seconds"] else float("inf")
        row["shard_balance"] = round(
            row["max_shard_seconds"] / (serial_matching / n_shards), 2
        )
        rows.append(row)
    return serial_match, serial_matching, rows


HEADERS = [
    "shards", "wall s", "makespan s", "speedup", "balance", "skew",
    "spanning",
]


def _table_rows(rows):
    return [
        [
            row["n_shards"],
            row["wall_seconds"],
            row["makespan_seconds"],
            row["speedup_makespan"],
            row["shard_balance"],
            row["skew"],
            row["spanning_pairs"],
        ]
        for row in rows
    ]


def _write_json(
    serial_match, serial_matching, rows, n_entities, n_sources,
    path=RESULT_PATH,
):
    payload = {
        "experiment": "E24 sharded pipeline runtime scaling",
        "corpus": {
            "n_entities": n_entities,
            "n_sources": n_sources,
            "categories": ["camera", "notebook"],
        },
        "threshold": THRESHOLD,
        "serial_resolve_seconds": round(serial_match, 4),
        "serial_matching_seconds": round(serial_matching, 4),
        "simulated": True,
        "methodology": (
            "makespan = coordinator time (serial) + slowest shard's "
            "worker-measured matching time, a simulated-parallel figure "
            "(the inline backend runs shards one after another); "
            "shard_balance = slowest shard's matching time / (serial "
            "engine matching time / n_shards). The gate holds "
            "shard_balance and coordinator_seconds, each on its own, "
            "while asserting byte-identical output"
        ),
        "cpu_count": os.cpu_count(),
        "unix_time": round(time.time(), 1),
        "shard_counts": rows,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def bench_e24_sharded(benchmark, capsys):
    n_entities, n_sources = 60, 12
    records, by_id, pairs = _corpus_pairs(n_entities, n_sources)
    serial_match, serial_matching, rows = run_experiment(records, by_id, pairs)
    comparator = default_product_comparator()
    classifier = ThresholdClassifier(THRESHOLD)
    benchmark(
        lambda: sharded_resolve(
            records,
            TokenBlocker(max_block_size=60),
            comparator,
            classifier,
            candidate_pairs=[frozenset(pair) for pair in pairs],
            n_shards=4,
            backend="inline",
        )
    )
    _write_json(serial_match, serial_matching, rows, n_entities, n_sources)
    emit(
        capsys,
        "E24: sharded runtime scaling "
        f"({len(pairs)} candidate pairs, serial resolve "
        f"{serial_match:.3f} s)",
        HEADERS,
        _table_rows(rows),
        note=(
            "Expected shape: simulated makespan speedup grows with shard "
            "count while inline wall-clock stays flat-to-worse; balance "
            "well under the shard count (<= 2.5 at 4 shards, the CI "
            "gate) means the shards divide the matching; skew near 1.0 "
            "means hash partitioning spread the pairs evenly."
        ),
    )
    by_count = {row["n_shards"]: row for row in rows}
    assert by_count[4]["shard_balance"] <= 2.5


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--no-bench",
        action="store_true",
        help="table-only mode (this entry point never runs the "
        "pytest-benchmark kernel anyway)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus smoke run; does not overwrite "
        "BENCH_sharded.json",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="where to write machine-readable results "
        "(default: BENCH_sharded.json at the repo root; "
        "--quick writes nowhere unless --json is given)",
    )
    args = parser.parse_args(argv)
    n_entities, n_sources = (20, 6) if args.quick else (60, 12)
    records, by_id, pairs = _corpus_pairs(n_entities, n_sources)
    serial_match, serial_matching, rows = run_experiment(
        records, by_id, pairs, args.repeats
    )
    if args.json is not None or not args.quick:
        path = _write_json(
            serial_match, serial_matching, rows, n_entities, n_sources,
            args.json or RESULT_PATH,
        )
        print(f"wrote {path}")
    from repro.quality import render_table

    print(
        render_table(
            HEADERS,
            _table_rows(rows),
            title="E24: sharded runtime scaling "
            f"({len(pairs)} pairs, serial resolve {serial_match:.3f} s)",
            float_digits=3,
        )
    )


if __name__ == "__main__":
    main()
