"""The repo's one benchmark: five workloads, one ledger.

Three ways in:

``run.py --workload W --seed N --seconds T --trace 0|1``
    One driver run (see ``BENCHMARK.json``): the last line of standard
    output is one JSON object with ``correct``, ``attempted``, ``failed``
    and the end-to-end (``--trace 0``) or per-layer (``--trace 1``)
    metrics.

``run.py [--seed 3] [--repeats 5] [--smoke] [--out ledger.json]``
    The whole ledger: every workload, ``--repeats`` untraced runs and one
    traced run each, every metric printed by name with its unit, median,
    quartiles and sample count, and the full record written to ``--out``.

``run.py --compare A.json B.json``
    Two ledgers side by side with a verdict per (workload, metric).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# The library is used from source; the driver's checkout is not installed.
sys.path.insert(0, str(HERE.parents[1] / "src"))

from metrics import WORKLOADS  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-contract", action="store_true")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.child is not None:
        from harness import repetition

        print(json.dumps(repetition(json.loads(args.child))))
        return 0
    if args.write_contract:
        from metrics import contract

        path = HERE.parents[1] / "BENCHMARK.json"
        path.write_text(json.dumps(contract(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if importlib.util.find_spec("repro") is None:
        print("run.py: the library (src/repro) is not in this checkout; "
              "there is nothing to measure", file=sys.stderr)
        return 2
    if args.workload:
        from ledger import driver_run

        return driver_run(args)
    from ledger import ledger_run

    return ledger_run(args)


if __name__ == "__main__":
    sys.exit(main())
