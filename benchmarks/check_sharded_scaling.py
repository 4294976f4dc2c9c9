"""Gate: the sharded runtime divides the work and stays byte-identical.

The sharded runtime exists to spread matching across workers without
changing a single output byte, so CI holds it to both halves of that
contract on the standard linkage corpus:

* **identity** — at every shard count the merged match pairs, scored
  edges, and clusters equal the serial ``resolve`` exactly (checked
  inside :func:`bench_e24_sharded.run_experiment`; any mismatch is a
  hard failure).
* **scaling**, as the two things the old single ratio (serial resolve
  over coordinator + slowest shard, floor 1.8x) mixed — once the
  similarity memos made matching cheap that ratio read 1.4-2.6x run
  to run, decided by the coordinator's few fixed milliseconds:

  - *the shards divide the matching*: the slowest shard's
    worker-measured matching seconds stay within ``1 +
    --skew-allowance`` of an even share of the serial engine's
    (``serial matching / n_shards``). Partition skew and the records
    every shard has to prepare for itself live inside the allowance;
    a shard that redid all the work would read ``n_shards``.
  - *the coordinator stays small*: its seconds (partitioning,
    merging, reconciliation — the serial share) stay under an
    absolute budget (``COORDINATOR_BUDGET_S``).

  The makespan speedup is still printed, as the simulated-parallel
  figure it is (``simulated: true``): inline shards run one after
  another. On a multi-core machine (``os.cpu_count() >= 4``) the
  ``process`` backend's *wall clock* is additionally required not to
  regress below serial — a sanity check that real parallelism is
  actually wired up; smaller containers (CI) skip that half.

Run:  PYTHONPATH=src python benchmarks/check_sharded_scaling.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from bench_e20_engine import THRESHOLD, _corpus_pairs
from bench_e24_sharded import run_experiment

from repro.dist import sharded_resolve
from repro.linkage import (
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
)


#: What the coordinator may take at the gated shard count: about four
#: times the 0.04-0.07 s it measures on the standard corpus and seven
#: times the 0.005-0.008 s of the ``--quick`` one (2 cores).
COORDINATOR_BUDGET_S = 0.25
QUICK_COORDINATOR_BUDGET_S = 0.05


def _wall_clock_check(records, pairs, n_shards: int, serial_seconds: float):
    """Process-backend wall clock on a genuinely multi-core machine."""
    start = time.perf_counter()
    sharded_resolve(
        records,
        TokenBlocker(max_block_size=60),
        default_product_comparator(),
        ThresholdClassifier(THRESHOLD),
        candidate_pairs=[frozenset(pair) for pair in pairs],
        n_shards=n_shards,
        backend="process",
    )
    wall = time.perf_counter() - start
    print(f"  process wall:       {wall:.4f} s (serial {serial_seconds:.4f} s)")
    if wall > serial_seconds * 1.5:
        raise SystemExit(
            f"process-backend wall clock regressed: {wall:.3f} s vs "
            f"{serial_seconds:.3f} s serial on {os.cpu_count()} cores"
        )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small corpus (CI smoke)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--skew-allowance",
        type=float,
        default=1.5,
        help="how far past an even share of the serial matching time "
        "the slowest shard may run (1.5 = up to 2.5x; 1.5-1.7x is "
        "typical at 4 shards on either corpus, 4x is no division)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count the gate applies to",
    )
    args = parser.parse_args(argv)

    n_entities, n_sources = (20, 6) if args.quick else (60, 12)
    gate_shards = args.shards
    budget = QUICK_COORDINATOR_BUDGET_S if args.quick else COORDINATOR_BUDGET_S
    records, by_id, pairs = _corpus_pairs(n_entities, n_sources)
    # run_experiment raises AssertionError on any identity mismatch.
    serial_seconds, matching_seconds, rows = run_experiment(
        records, by_id, pairs, args.repeats
    )
    by_count = {row["n_shards"]: row for row in rows}
    if gate_shards not in by_count:
        raise SystemExit(
            f"shard count {gate_shards} not measured (have "
            f"{sorted(by_count)})"
        )
    row = by_count[gate_shards]

    print("Sharded scaling gate")
    print(f"  corpus:             {n_entities} entities x {n_sources}"
          f" sources -> {len(pairs)} pairs")
    even_share = matching_seconds / gate_shards
    limit = 1.0 + args.skew_allowance
    print(f"  serial resolve:     {serial_seconds:.4f} s"
          f" (engine matching {matching_seconds:.4f} s)")
    print(f"  slowest shard @{gate_shards}:  {row['max_shard_seconds']:.4f} s"
          f" = {row['shard_balance']}x an even share of {even_share:.4f} s"
          f" (allowed <= {limit}x), skew {row['skew']}")
    print(f"  coordinator @{gate_shards}:    "
          f"{row['coordinator_seconds']:.4f} s (budget {budget} s)")
    print(f"  makespan @{gate_shards}:       {row['makespan_seconds']:.4f} s,"
          f" {row['speedup_makespan']}x serial resolve (simulated: true,"
          " not gated)")
    if row["shard_balance"] > limit:
        raise SystemExit(
            f"sharded scaling regression: slowest of {gate_shards} shards "
            f"took {row['shard_balance']}x an even share of the serial "
            f"matching time (allowed {limit}x)"
        )
    if row["coordinator_seconds"] > budget:
        raise SystemExit(
            f"sharded coordinator regression: {row['coordinator_seconds']} s"
            f" at {gate_shards} shards (budget {budget} s)"
        )
    if (os.cpu_count() or 1) >= 4:
        _wall_clock_check(records, pairs, gate_shards, serial_seconds)
    else:
        print(f"  wall-clock check:   skipped ({os.cpu_count()} core(s))")
    print("  OK: identical output, shards divide the matching, "
          "coordinator within budget")


if __name__ == "__main__":
    main()
