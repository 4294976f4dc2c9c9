"""Gate: degraded-mode read p99 stays within 3x of healthy serving.

Degraded mode's contract is that reads are untaxed: when the serve
circuit breaker opens, writes are shed but queries keep answering from
the last published generation through the same probe-and-cache path.
This gate runs the degraded read workload from
``bench_e25_supervision.py``, which probes the same warm service
before and after the breaker opens, and fails the build when the
degraded p99 exceeds ``3 x`` the healthy p99 of the same run (floored,
so machine variance on sub-millisecond latencies cannot trip it) —
i.e. when degraded mode started charging reads for the breaker, the
shed path, or a lock held across write shedding.

Run:  PYTHONPATH=src python benchmarks/check_supervision_degraded.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from bench_e25_supervision import (
    DEGRADED_FLOOR_MS,
    DEGRADED_RATIO_BUDGET,
    _corpus,
    _degraded_read_phase,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus (CI smoke size)",
    )
    args = parser.parse_args(argv)

    n_entities, n_sources = (12, 4) if args.quick else (30, 6)
    n_probes = 24 if args.quick else 60
    reads = _degraded_read_phase(
        _corpus(n_entities, n_sources), n_probes=n_probes
    )

    healthy_p99_ms = reads["healthy_p99_ms"]
    degraded_p99_ms = reads["degraded_p99_ms"]
    budget_ms = max(
        DEGRADED_RATIO_BUDGET * healthy_p99_ms, DEGRADED_FLOOR_MS
    )
    print(
        f"degraded read p99 {degraded_p99_ms:.3f} ms vs budget "
        f"{budget_ms:.1f} ms ({DEGRADED_RATIO_BUDGET:g}x healthy p99 "
        f"{healthy_p99_ms:.3f} ms, floor {DEGRADED_FLOOR_MS:.0f} ms); "
        f"ratio {reads['degraded_over_healthy']:g}"
    )
    if degraded_p99_ms > budget_ms:
        raise SystemExit(
            "degraded-mode read regression: p99 "
            f"{degraded_p99_ms:.3f} ms exceeds {budget_ms:.1f} ms "
            f"({DEGRADED_RATIO_BUDGET:g}x the healthy p99 of the same run)"
        )
    print("degraded-mode read latency gate: OK")


if __name__ == "__main__":
    main()
