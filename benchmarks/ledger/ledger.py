"""The two run modes: one driver run, and the whole ledger."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    measure,
    quartiles,
    run_value,
    summarise,
    trace_run,
)
from metrics import COMPARED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

__all__ = ["driver_run", "ledger_run"]

REPO = Path(__file__).resolve().parents[2]

#: ``--smoke`` asks for this long per workload; a run is at least one
#: repetition, which at smoke size takes a second or two.
SMOKE_SECONDS = 1.0


def driver_run(args) -> int:
    """One run as the driver asks for it; one JSON object as the last line."""
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    if args.trace:
        reps = [
            trace_run(args.workload, args.seed, args.smoke, args.trace_out)
        ]
    else:
        reps = measure(args.workload, args.seed, seconds, args.smoke)
    report = summarise(reps, traced=bool(args.trace))
    for rep in reps:
        for failure in rep["failures"]:
            print(f"FAILED {rep['workload']} seed {rep['seed']}: {failure}",
                  file=sys.stderr)
    if not args.trace:
        # For the record: the medians before scaling to reference seconds,
        # the run's speed, and what the disk really took over the fsyncs.
        print("as timed: " + json.dumps({
            "repetitions": len(reps),
            **{
                name: run_value(reps, name)
                for name in (
                    "setup_wall_s", "items_per_wall_s", "speed_factor",
                    "fsyncs", "fsync_wait_s",
                )
            },
        }))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


# --- the whole ledger --------------------------------------------------------


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args, seconds: float, repeats: int) -> dict:
    """Where, on what and with which settings these numbers were taken."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "repeats": repeats,
        "seconds": seconds,
        "smoke": args.smoke,
        "taken_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # Every figure in this file is a measured wall time, a count or a
        # ratio of the two; nothing comes from a cost model.
        "simulated": False,
    }


def _print_metric(name, unit, values, note) -> None:
    if not values:
        return
    low, middle, high = quartiles(values)
    print(
        f"  {name:<26} {middle:>12.4f} {unit:<6}"
        f" q1 {low:.4f}  q3 {high:.4f}  n={len(values)}  ({note})"
    )


def _print_per_layer(layers: dict, shares: dict) -> None:
    print("  self time by layer, as a share of the traced call: " + ", ".join(
        f"{layer} {share:.1%}"
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])
    ))
    for metric in PER_LAYER:
        value = layers.get(metric.name)
        if value:
            print(f"  {metric.name:<38} {value:>14.4f} {metric.unit}")


def _per_run(runs: list[list[dict]], name: str) -> list[float]:
    """One value per run, over that run's repetitions."""
    values = (run_value(reps, name) for reps in runs)
    return [value for value in values if value is not None]


def ledger_run(args) -> int:
    """Every workload: ``--repeats`` untraced runs and one traced run."""
    if args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS
    repeats = 1 if args.smoke else args.repeats
    document = {
        "provenance": provenance(args, seconds, repeats),
        "workloads": {},
    }
    units = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}
    correct = True
    for workload in WORKLOADS:
        print(f"== {workload}: {WORKLOADS[workload]}")
        runs = [
            measure(workload, args.seed, seconds, args.smoke)
            for _ in range(repeats)
        ]
        traced = trace_run(
            workload, args.seed, args.smoke,
            f"{args.trace_out}.{workload}.jsonl" if args.trace_out else None,
        )
        repetitions = [rep for reps in runs for rep in reps]
        failures = [
            f"seed {rep['seed']}: {failure}"
            for rep in [*repetitions, traced]
            for failure in rep["failures"]
        ]
        # Each run checks its own repetitions against its first; the runs
        # of one seed must repeat each other exactly as well.
        first = runs[0][0]
        failures += [
            f"seed {args.seed}: {key} differs between two runs"
            for reps in runs[1:]
            for key in ("output_sha256", "input_sha256", "counts")
            if first["ok"] and reps[0]["ok"] and first[key] != reps[0][key]
        ]
        for failure in failures:
            print(f"  FAILED {failure}")
        correct = correct and not failures
        end_to_end = {
            metric.name: _per_run(runs, metric.name) for metric in END_TO_END
        }
        compared = {
            entry.name: _per_run(runs, entry.name)
            for entry in COMPARED
            if workload in entry.workloads
        }
        for metric in END_TO_END:
            _print_metric(
                metric.name, metric.unit, end_to_end[metric.name],
                f"{metric.better} is better, bound {metric.bound:.0%}",
            )
        for entry in COMPARED:
            if entry.name in compared and entry.name not in end_to_end:
                _print_metric(
                    entry.name, units[entry.name], compared[entry.name],
                    f"{entry.better} is better",
                )
        # The verified repetition of the first run: what was measured.
        measured = {
            key: first.get(key)
            for key in (
                "seed", "sizes", "input_sha256", "output_sha256", "counts",
            )
        }
        print(f"  input of seed {args.seed}: " + ", ".join(
            f"{key} {value}"
            for key, value in (measured["sizes"] or {}).items()
        ))
        _print_per_layer(
            traced.get("layers", {}), traced.get("layer_shares", {})
        )
        document["workloads"][workload] = {
            "input": measured,
            "attempted": sum(rep["ops_attempted"] for rep in repetitions),
            "failed": sum(rep["ops_failed"] for rep in repetitions),
            "failures": failures,
            "end_to_end": end_to_end,
            "compared": compared,
            "per_layer": traced.get("layers", {}),
            "layer_shares": traced.get("layer_shares", {}),
            "repetitions": [
                [
                    {
                        key: rep.get(key)
                        for key in (
                            "seed", "ok", "items", "setup_wall_s",
                            "run_wall_s", "items_per_wall_s", "kernel_s",
                            "fsyncs", "fsync_wait_s", "speed_factor",
                            "setup_s", "items_per_s", "peak_rss_mb",
                            "quality", "output_sha256", "layers",
                        )
                    }
                    for rep in reps
                ]
                for reps in runs
            ],
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {args.out}")
    print("ledger: " + ("all checks passed" if correct else "CHECKS FAILED"))
    return 0 if correct else 1
