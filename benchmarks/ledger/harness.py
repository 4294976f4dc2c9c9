"""Repetitions, the speedometer, and the loop that measures a workload.

One *repetition* is one fresh subprocess that imports the library,
generates the workload's input from its seed, makes the workload's call
once, checks the output and prints one JSON line. One *run* is what the
driver asks for: repetitions of the one input of its seed, one at a time,
for about ``--seconds`` seconds, reported as one rate over all of them and
as medians.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import refclock
from metrics import END_TO_END, PER_LAYER
from refclock import clock
from spans import Recorder

__all__ = [
    "MODULE_OF",
    "Speedometer",
    "canonical_sha256",
    "measure",
    "quartiles",
    "repetition",
    "run_value",
    "summarise",
    "tail",
    "to_reference",
    "trace_run",
]

HERE = Path(__file__).resolve().parent
#: Everything a repetition writes (stores, logs, spill runs) goes here: the
#: benchmark reads and writes only inside its own checkout.
SCRATCH = HERE / ".scratch"

#: workload name -> module that implements it.
MODULE_OF = {
    "batch_link": "wl_batch",
    "batch_wide": "wl_batch",
    "fuse_copiers": "wl_fuse",
    "serve_mixed": "wl_serve",
    "stream_steady": "wl_stream",
}

#: One repetition may take this long before it is killed and counted failed.
REPETITION_TIMEOUT_S = 150

#: What the speedometer kernel took, in seconds, on the machine and at the
#: moment this benchmark was defined. Every time the benchmark reports is
#: in *reference seconds*: seconds on the benchmark's clock (``refclock``)
#: times REFERENCE_KERNEL_S / (the mean kernel time of the run), so that
#: an hour in which the box runs 1.2x slower does not read as a 1.2x
#: regression.
REFERENCE_KERNEL_S = 0.05

_UNITS = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}
#: Reported as measured, beside the reference seconds: the untraced call of
#: a traced repetition, and the disk.
_AS_MEASURED = {"run.wall_s", "serve.fsync_wait_ms"}


class Speedometer:
    """A fixed piece of interpreter work, timed to tell how fast the box is.

    The sandbox this benchmark runs in changes speed by 15-50% for minutes
    at a time, in wall and CPU time alike, so the repetitions of one run
    share the slow-down and no median over them removes it
    (``baseline/FINDINGS.md`` has the spreads with and without). It also
    wobbles by +-15% from one second to the next, which two 50 ms samples
    around a 2 s call cannot follow: every repetition samples the kernel
    before its set-up, after it and after its call, and the *run* is scaled
    by the mean of all its samples, never one repetition by its own. The
    kernel is string sorting plus scattered reads over a few MB of small
    objects, which tracked the library's slow-downs better than a tight
    integer loop did. It is harness code and never changes with the
    library, so a faster library still reads faster.
    """

    def __init__(self) -> None:
        rng = random.Random(20130408)
        self._words = [
            f"tok{rng.randrange(10**6)}" * 3 for _ in range(80_000)
        ]
        self._order = [rng.randrange(len(self._words)) for _ in range(60_000)]

    def __call__(self) -> float:
        words = self._words
        started = time.perf_counter()
        sorted(words[:60_000])
        seen = set()
        pieces = 0
        for index in self._order:
            word = words[index]
            seen.add(word)
            pieces += len(word.split("k"))
        return time.perf_counter() - started


def _in_reference_seconds(values: dict, factor: float) -> dict:
    """``values`` with every time and rate scaled by ``factor``, by unit."""
    scale = {"s": factor, "ms": factor, "1/s": 1.0 / factor}
    return {
        name: value
        if name in _AS_MEASURED
        else value * scale.get(_UNITS[name], 1.0)
        for name, value in values.items()
    }


def canonical_sha256(value) -> str:
    """sha256 of the canonical JSON form of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); all equal for one value."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, middle, high


def tail(samples) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, capped at p99.

    Returns ``(value, percentile)``; with fewer than 20 samples there is
    no such percentile above the median and the median is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    beyond = max(10, n - int(n * 0.99))
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


# --- one repetition (runs in the child process) ------------------------


def repetition(spec: dict) -> dict:
    """Set up, call, check (and optionally trace) one workload once.

    Everything is reported as the benchmark's clock read it; the parent
    scales a whole run to reference seconds (``to_reference``).
    """
    SCRATCH.mkdir(exist_ok=True)
    tempfile.tempdir = str(SCRATCH)
    refclock.install()
    speedometer = Speedometer()
    name = spec["workload"]
    started = clock()
    workload = importlib.import_module(MODULE_OF[name])
    sizes = (workload.SMOKE_SIZES if spec["smoke"] else workload.SIZES)[name]
    imported = clock()
    kernel_s = [speedometer()]
    setup_started = clock()
    inputs = workload.setup(name, spec["seed"], sizes)
    setup_wall = (imported - started) + (clock() - setup_started)
    kernel_s.append(speedometer())
    run_started = clock()
    output = workload.run(inputs)
    run_wall = clock() - run_started
    kernel_s.append(speedometer())
    fsyncs, fsync_wait_s = refclock.fsyncs()
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    outcome = workload.check(inputs, output, verify=spec["verify"])
    result = {
        "workload": name,
        "seed": spec["seed"],
        "ok": not outcome["failures"],
        "failures": outcome["failures"],
        "ops_attempted": outcome["ops_attempted"],
        "ops_failed": outcome["ops_failed"] + len(outcome["failures"]),
        "items": outcome["items"],
        "setup_wall_s": setup_wall,
        "run_wall_s": run_wall,
        "items_per_wall_s": outcome["items"] / run_wall,
        "kernel_s": kernel_s,
        # What the clock left out and put in: the fsyncs of set-up and call,
        # and how long the box really took over them.
        "fsyncs": fsyncs,
        "fsync_wait_s": fsync_wait_s,
        "peak_rss_mb": peak_rss_mb,
        "quality": outcome["quality"],
        "output_sha256": outcome["output_sha256"],
        "input_sha256": inputs.digest,
        # Resolved sizes: what was generated plus what the call made of it.
        "sizes": {**inputs.sizes, **outcome["counts"]},
        "counts": outcome["counts"],
        # The workload's own user-visible numbers, from this untraced call.
        "layers": outcome["layers"],
    }
    if spec["trace"]:
        # The traced pass repeats the workload's call under one root span,
        # "run.traced", with the layers' calls wrapped in spans beneath it.
        recorder = Recorder(f"{name}/{spec['seed']}")
        layers, failures = workload.trace(inputs, output, recorder)
        kernel_s.append(speedometer())
        result["failures"] += failures
        result["ops_failed"] += len(failures)
        result["ok"] = not result["failures"]
        traced_wall = recorder.total("run.traced")
        shares = {
            layer: own / traced_wall
            for layer, own in recorder.layer_self_times().items()
        }
        layers["trace.overhead_ratio"] = traced_wall / run_wall
        # The root span's own time is what no layer's span covers.
        layers["trace.unattributed_share"] = shares.pop("run")
        result["layer_shares"] = shares
        layers["synth.generate_s"] = inputs.generate_s
        layers["synth.records"] = result["sizes"].get("records", 0)
        layers["run.wall_s"] = run_wall
        result["layers"] = {**layers, **result["layers"]}
        if spec.get("trace_out"):
            recorder.dump(spec["trace_out"])
    return result


# --- the parent side -----------------------------------------------------


def _spawn(spec: dict) -> dict:
    """Run one repetition in a fresh interpreter and parse its report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec),
    ]
    failure = None
    try:
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=REPETITION_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        failure = f"repetition exceeded {REPETITION_TIMEOUT_S}s"
    else:
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            failure = (
                f"repetition exited {done.returncode}: "
                + done.stderr.strip()[-600:]
            )
        else:
            return json.loads(lines[-1])
    return {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "ok": False,
        "failures": [failure],
        "ops_attempted": 1,
        "ops_failed": 1,
    }


def to_reference(reps: list[dict]) -> None:
    """Put one run's times into reference seconds, all by the same factor."""
    samples = sorted(
        sample for rep in reps for sample in rep.get("kernel_s", ())
    )
    if not samples:
        return
    # The mean without the highest and lowest tenth: one sample that caught
    # a hiccup of the box must not rescale the whole run.
    tenth = len(samples) // 10
    factor = REFERENCE_KERNEL_S / statistics.mean(
        samples[tenth : len(samples) - tenth]
    )
    for rep in reps:
        if "kernel_s" not in rep:
            continue
        rep["speed_factor"] = factor
        rep["setup_s"] = rep["setup_wall_s"] * factor
        rep["items_per_s"] = rep["items_per_wall_s"] / factor
        rep["layers"] = _in_reference_seconds(rep["layers"], factor)
        if "layer_shares" in rep:
            rep["layers"]["run.speed_factor"] = factor


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> list[dict]:
    """Untraced repetitions of the seed's input, one at a time.

    The first pays for the slow reference checks; each later one must
    reproduce the output digest, input digest and counts the first
    verified. Repetitions are made while the next one is expected to end
    within ``seconds`` (at least one is made).
    """
    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        rep = _spawn(
            {
                "workload": workload,
                "seed": seed,
                "smoke": smoke,
                "trace": False,
                "verify": not reps,
            }
        )
        if reps and rep["ok"] and reps[0]["ok"]:
            for key in ("output_sha256", "input_sha256", "counts"):
                if rep[key] != reps[0][key]:
                    rep["ok"] = False
                    rep["failures"].append(
                        f"{key} differs from the verified repetition"
                    )
                    rep["ops_failed"] += 1
        reps.append(rep)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(reps) > seconds:
            break
    to_reference(reps)
    return reps


def trace_run(
    workload: str, seed: int, smoke: bool, trace_out: str | None = None
) -> dict:
    """One traced repetition; its ``layers`` hold the per-layer numbers."""
    rep = _spawn(
        {
            "workload": workload,
            "seed": seed,
            "smoke": smoke,
            "trace": True,
            "verify": True,
            "trace_out": trace_out,
        }
    )
    to_reference([rep])
    return rep


def run_value(reps: list[dict], name: str) -> float | None:
    """One run's value of ``name``, from the repetitions that report it.

    The rate is all the run's items over all the seconds its calls took;
    everything else is the median over the repetitions. A repetition that
    crashed has no numbers at all, and one that skipped the slow reference
    check has no ``quality``.
    """
    if name in ("items_per_s", "items_per_wall_s"):
        done = [rep for rep in reps if name in rep]
        if not done:
            return None
        return sum(rep["items"] for rep in done) / sum(
            rep["items"] / rep[name] for rep in done
        )
    values = [
        rep.get(name, rep.get("layers", {}).get(name)) for rep in reps
    ]
    values = [value for value in values if value is not None]
    return statistics.median(values) if values else None


def summarise(reps: list[dict], traced: bool) -> dict:
    """The driver's view of a run: verdict, counts and metrics."""
    report = {
        "correct": all(rep["ok"] for rep in reps),
        "attempted": sum(rep["ops_attempted"] for rep in reps),
        "failed": sum(rep["ops_failed"] for rep in reps),
        "metrics": {},
    }
    if traced:
        layers = reps[0].get("layers", {})
        report["metrics"] = {
            metric.name: {
                "value": layers.get(metric.name, 0),
                "unit": metric.unit,
            }
            for metric in PER_LAYER
        }
    else:
        for metric in END_TO_END:
            value = run_value(reps, metric.name)
            if value is not None:
                report["metrics"][metric.name] = {
                    "value": value,
                    "unit": metric.unit,
                }
    return report
