"""Gate: every switched-off option leaves the default engine its speed.

The observability layer (`repro.obs`) wires spans and counters into
the comparison engine's hot path; recovery threads an optional
checkpoint store through the same chunk loop and out-of-core an
optional memory budget. Each is free when off by design: the default
:data:`~repro.obs.NULL_TRACER` batches all metric work outside the
per-pair loops, and ``checkpoint=None`` / ``budget=None`` are one
``is None`` check per chunk. All three leave behind the same
``ParallelComparisonEngine(default_product_comparator())``, so this is
the one place its prepared+early-exit throughput is timed.

Absolute pairs/sec is machine-dependent (CI runners ≠ the box that
wrote the baseline), so the gate compares the *relative* speedup of
the early-exit path over the naive path, measured fresh on this
machine with each timed run on a new comparator, against
``bench_common.RECORDED_EARLY_EXIT_SPEEDUP``. A genuine per-pair
instrumentation cost would drag the measured ratio down on every
machine alike; run-to-run noise would not, so the threshold is lenient
(default: measured ratio must stay above half the recorded one — the
recorded ratio is ~16×, 11-23× on the ``--quick`` corpus, so even a 5%
hot-path regression plus generous noise clears it, while per-pair
tracer calls, which cost 2-3×, and a staged decision grown to twice
its recorded per-pair cost do not).

Run:  PYTHONPATH=src python benchmarks/check_obs_overhead.py [--quick]
"""

from __future__ import annotations

import argparse

from bench_common import (
    RECORDED_EARLY_EXIT_SPEEDUP,
    corpus_pairs,
    early_exit_speedup,
)


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
        "--min-ratio",
        type=float,
        default=0.5,
        help="measured speedup must exceed this fraction of the baseline",
    )
    args = parser.parse_args(argv)

    n_entities, n_sources = (20, 6) if args.quick else (60, 12)
    __, by_id, pairs = corpus_pairs(n_entities, n_sources)
    measured = early_exit_speedup(by_id, pairs, args.repeats)
    recorded = RECORDED_EARLY_EXIT_SPEEDUP
    floor = args.min_ratio * recorded

    print("NullTracer overhead gate (early-exit vs naive speedup)")
    print(f"  corpus:            {n_entities} entities x {n_sources} sources"
          f" -> {len(pairs)} pairs")
    print(f"  naive:             {len(pairs) / measured['naive_best']:.1f}"
          " pairs/sec")
    print(f"  early-exit:        {len(pairs) / measured['early_best']:.1f}"
          " pairs/sec  (instrumented path, NullTracer)")
    print(f"  measured speedup:  {measured['measured_speedup']}x")
    print(f"  baseline speedup:  {recorded}x  (recorded, bench_common.py)")
    print(f"  required:          > {floor:.2f}x")
    if measured["measured_speedup"] <= floor:
        raise SystemExit(
            f"instrumentation overhead detected: measured speedup "
            f"{measured['measured_speedup']}x <= {floor:.2f}x "
            f"({args.min_ratio} x baseline {recorded}x)"
        )
    print("  OK: NullTracer path within noise of the recorded baseline")


if __name__ == "__main__":
    main()
