"""``run.py --compare A.json B.json``: two ledgers, one verdict per metric.

A is the parent, B the change; both measured the same seed, so the same
inputs. The verdict follows the choosing-metrics rule for "no
regression": B's median may not be worse than A's by more than the
metric's bound; where the run-to-run spread (distance between the
quartiles, on either side) is wider than the bound the metric is
*unresolved*, not unchanged - unless every run of B reads better than
every run of A. What is judged, on which workload and with which bound is
the ``COMPARED`` table in ``metrics.py``.
"""

from __future__ import annotations

import json

from harness import quartiles
from metrics import COMPARED

__all__ = ["compare_files", "verdict"]


def verdict(
    parent, change, better: str, bound: float, absolute: bool = False
) -> dict:
    """Compare two lists of per-run values of one metric.

    ``bound`` and the reported ``difference`` and ``spread`` are shares of
    the parent's median, or plain differences when ``absolute`` is set.
    """
    parent_low, parent_median, parent_high = quartiles(parent)
    change_low, change_median, change_high = quartiles(change)
    scale = 1.0 if absolute else parent_median
    difference = (change_median - parent_median) / scale
    worse_by = -difference if better == "higher" else difference
    sign = 1.0 if better == "higher" else -1.0
    all_better = min(sign * v for v in change) > max(sign * v for v in parent)
    all_worse = max(sign * v for v in change) < min(sign * v for v in parent)
    spread = max(parent_high - parent_low, change_high - change_low) / scale
    if all_better:
        status = "ok"
    elif spread > bound and not (all_worse and worse_by > bound):
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    else:
        status = "ok"
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "difference": difference,
        "spread": spread,
        "status": status,
    }


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        ledger_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        ledger_b = json.load(handle)
    for label, ledger in (("A", ledger_a), ("B", ledger_b)):
        stamp = ledger["provenance"]
        print(
            f"{label}: git {stamp['git_sha'][:12]} seed {stamp['seed']} "
            f"repeats {stamp['repeats']} seconds {stamp['seconds']} "
            f"smoke {stamp['smoke']} cpus {stamp['cpu_count']} "
            f"python {stamp['python']} numpy {stamp['numpy']} "
            f"taken {stamp['taken_at']}"
        )
    print(
        f"{'workload':<14} {'metric':<26} {'A median':>12} {'B median':>12}"
        f" {'B vs A':>8} {'spread':>8} {'bound':>7}  verdict"
    )
    bad = 0
    for workload, entry_a in ledger_a["workloads"].items():
        entry_b = ledger_b["workloads"].get(workload)
        if entry_b is None:
            print(f"{workload:<14} missing from B")
            bad += 1
            continue
        for metric in COMPARED:
            if workload not in metric.workloads:
                continue
            values_a = entry_a["compared"][metric.name]
            values_b = entry_b["compared"][metric.name]
            if not values_a or not values_b:
                print(f"{workload:<14} {metric.name:<26} not measured")
                bad += 1
                continue
            result = verdict(
                values_a, values_b, metric.better, metric.bound,
                metric.absolute,
            )
            bad += result["status"] != "ok"
            kind = ".4f" if metric.absolute else ".1%"
            print(
                f"{workload:<14} {metric.name:<26}"
                f" {result['parent_median']:>12.4f}"
                f" {result['change_median']:>12.4f}"
                f" {result['difference']:>+8{kind}}"
                f" {result['spread']:>8{kind}} {metric.bound:>7{kind}}"
                f"  {result['status']}"
            )
        print(
            f"{workload:<14} {'failed operations':<26}"
            f" {entry_a['failed']:>12} {entry_b['failed']:>12}"
        )
        bad += bool(entry_a["failed"] or entry_b["failed"])
        same = entry_a["input"] == entry_b["input"]
        print(
            f"{workload:<14} sizes, counts, input and output digest: "
            f"{'same' if same else 'DIFFERENT'}"
        )
    print("compare: " + ("no metric worse or unresolved" if not bad
                         else f"{bad} metric(s) worse or unresolved"))
    return 1 if bad else 0
