"""Ten runs on ten seeds per workload, as the driver makes them.

usage: spread.py CHECKOUT OUT.json SEED,SEED,... [WORKLOAD,...]

Runs ``BENCHMARK.json``'s command from the checkout's root with its
``run_seconds`` and prints, per (workload, end-to-end metric), the median,
the quartiles and (q3 - q1) / median over the runs; for the two timed
metrics also the same over what the benchmark's clock read before scaling
to reference seconds, and over the run's speed factor.
"""
import json
import statistics
import subprocess
import sys
import time

root, out_path = sys.argv[1:3]
seeds = [int(x) for x in sys.argv[3].split(",")]
with open(f"{root}/BENCHMARK.json", encoding="utf-8") as handle:
    contract = json.load(handle)
workloads = (
    sys.argv[4].split(",")
    if len(sys.argv) > 4
    else [entry["name"] for entry in contract["workloads"]]
)
AS_TIMED = {"setup_s": "setup_wall_s", "items_per_s": "items_per_wall_s"}

print(
    f"{'workload':<14} {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12}"
    f" {'(q3-q1)/median':>15} {'range/median':>13}"
)


def row(workload, metric, values):
    low, __, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    print(
        f"{workload:<14} {metric:<30} {median:>12.4f} {low:>12.4f}"
        f" {high:>12.4f} {(high - low) / median:>15.4f}"
        f" {(max(values) - min(values)) / median:>13.4f}",
        flush=True,
    )


out = {}
for workload in workloads:
    runs = []
    for seed in seeds:
        started = time.time()
        done = subprocess.run(
            [
                *contract["command"], "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", "0",
            ],
            capture_output=True, text=True, cwd=root, check=False,
        )
        lines = done.stdout.strip().splitlines()
        run = json.loads(lines[-1])
        run["as_timed"] = json.loads(lines[-2].split(":", 1)[1])
        run["seed"] = seed
        run["invocation_s"] = time.time() - started
        runs.append(run)
        if done.returncode or not run["correct"]:
            print("INCORRECT", workload, seed, done.stderr[-500:])
    out[workload] = runs
    for metric in runs[0]["metrics"]:
        row(workload, metric, [r["metrics"][metric]["value"] for r in runs])
        if metric in AS_TIMED:
            row(
                workload, f"  as timed ({AS_TIMED[metric]})",
                [r["as_timed"][AS_TIMED[metric]] for r in runs],
            )
    row(workload, "  speed_factor", [r["as_timed"]["speed_factor"] for r in runs])
    took = [r["invocation_s"] for r in runs]
    print(
        f"{workload:<14} invocation: median {statistics.median(took):.1f} s,"
        f" max {max(took):.1f} s; repetitions per run"
        f" {sorted(r['as_timed']['repetitions'] for r in runs)};"
        f" failed operations {sum(r['failed'] for r in runs)}",
        flush=True,
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
