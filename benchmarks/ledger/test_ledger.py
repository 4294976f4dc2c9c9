"""Tests of the ledger itself; run with ``pytest benchmarks/ledger``.

Not part of the tier-1 ``testpaths``: three smoke ledgers spawn about
thirty subprocesses and take a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402
from harness import run_value, tail, to_reference  # noqa: E402
from metrics import (  # noqa: E402
    COMPARED,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    contract,
)
from spans import Recorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=REPO, capture_output=True, text=True, timeout=600, check=False,
    )


def _smoke(tmp_path, seed: int, label: str) -> dict:
    out = tmp_path / f"{label}.json"
    done = _run("--smoke", "--seed", str(seed), "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ledger")
    return {
        "first": _smoke(tmp_path, 3, "first"),
        "again": _smoke(tmp_path, 3, "again"),
        "other": _smoke(tmp_path, 4, "other"),
    }


# --- the tables --------------------------------------------------------------


def test_names_units_and_limits():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = [*WORKLOADS, *(m.name for m in END_TO_END)]
    names += [m.name for m in PER_LAYER]
    assert len(set(names)) == len(names), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for why in WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    for metric in (*END_TO_END, *PER_LAYER):
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("higher", "lower"), metric
    for metric in END_TO_END:
        assert 0.0 < metric.bound <= 0.25, metric
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    reported = {m.name: m.better for m in (*END_TO_END, *PER_LAYER)}
    for entry in COMPARED:
        assert reported[entry.name] == entry.better, entry
        assert entry.bound > 0 and set(entry.workloads) <= set(WORKLOADS)


def test_contract_file_matches_the_tables():
    on_disk = json.loads((REPO / "BENCHMARK.json").read_text())
    assert on_disk == contract()
    assert set(on_disk) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert len((REPO / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# --- the pieces --------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    rec = Recorder("test")
    with rec.span("outer.a"):
        with rec.span("inner.b"):
            pass
        with rec.span("inner.b"):
            pass
    own = rec.self_times()
    assert own["outer.a"] == pytest.approx(
        rec.total("outer.a") - rec.total("inner.b")
    )
    assert [span["name"] for span in rec.spans].count("inner.b") == 2
    assert sum(rec.layer_self_times().values()) == pytest.approx(
        rec.total("outer.a")
    )
    assert {span["run"] for span in rec.spans} == {"test"}


def test_wrap_records_and_restores():
    class Layer:
        def work(self, x):
            return x + 1

    rec = Recorder("test")
    rec.wrap(Layer, "work", "layer.work")
    assert Layer().work(1) == 2
    rec.restore()
    assert Layer().work(1) == 2
    assert [span["name"] for span in rec.spans] == ["layer.work"]
    assert "work" in vars(Layer) and not hasattr(Layer.work, "__wrapped__")


def test_tail_keeps_ten_samples_beyond():
    value, percentile = tail(range(2000))
    assert (value, percentile) == (1979, 99.0)
    value, percentile = tail(range(500))
    assert value == 489 and percentile == 98.0
    assert tail(range(10)) == (4.5, 50.0)


def test_a_run_is_scaled_by_one_factor():
    reps = [
        {"items": 100, "setup_wall_s": 0.2, "items_per_wall_s": 100.0,
         "layers": {"serve.refresh_s": 1.0, "serve.fsync_wait_ms": 1.0},
         "kernel_s": [0.025] * 5},
        {"items": 100, "setup_wall_s": 0.4, "items_per_wall_s": 25.0,
         "layers": {}, "kernel_s": [0.025, 0.001, 0.025, 0.5, 0.025]},
        {"failures": ["crashed"]},
    ]
    to_reference(reps)
    # Without the highest and the lowest of the ten samples their mean is
    # 0.025 s against the reference 0.05 s: the box ran at twice the
    # reference speed, so its seconds count double.
    assert [rep.get("speed_factor") for rep in reps] == [2.0, 2.0, None]
    assert [rep.get("setup_s") for rep in reps] == [0.4, 0.8, None]
    assert [rep.get("items_per_s") for rep in reps] == [50.0, 12.5, None]
    assert reps[0]["layers"] == {
        "serve.refresh_s": 2.0, "serve.fsync_wait_ms": 1.0,
    }
    # 200 items in 1 + 4 seconds as timed, 2 + 8 reference seconds.
    assert run_value(reps, "items_per_wall_s") == 40.0
    assert run_value(reps, "items_per_s") == 20.0
    assert run_value(reps, "setup_s") == pytest.approx(0.6)


def test_the_clock_stands_still_during_fsync(tmp_path):
    script = (
        "import os, sys, time; sys.path.insert(0, sys.argv[1]);"
        "import refclock; refclock.install();"
        "start, real = refclock.clock(), time.perf_counter();"
        "handle = open(sys.argv[2], 'wb');"
        "[(handle.write(b'x'), handle.flush(), os.fsync(handle.fileno()))"
        " for _ in range(20)];"
        "count, waited = refclock.fsyncs();"
        "took, really = refclock.clock() - start, time.perf_counter() - real;"
        "assert count == 20 and 0 < waited <= really;"
        "assert abs(took - (really - waited)) < 1e-3, (took, really, waited)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(HERE), str(tmp_path / "log")],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stderr


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, steady, "higher", 0.1)["status"] == "ok"
    slower = [v * 0.8 for v in steady]
    assert verdict(steady, slower, "higher", 0.1)["status"] == "worse"
    assert verdict(steady, slower, "lower", 0.1)["status"] == "ok"
    noisy = [70.0, 100.0, 130.0, 85.0, 115.0]
    assert verdict(noisy, noisy, "higher", 0.1)["status"] == "unresolved"
    faster = [v * 3 for v in noisy]
    assert verdict(noisy, faster, "higher", 0.1)["status"] == "ok"
    exact = [0.9858] * 5
    dropped = [0.9758] * 5
    assert verdict(exact, exact, "higher", 0.005, True)["status"] == "ok"
    assert verdict(exact, dropped, "higher", 0.005, True)["status"] == "worse"
    assert verdict(exact, dropped, "higher", 0.02)["status"] == "ok"


# --- the runs ----------------------------------------------------------------


def test_smoke_covers_every_workload_and_metric(ledgers):
    first = ledgers["first"]
    stamp = first["provenance"]
    for key in ("git_sha", "cpu_count", "python", "numpy", "seed", "repeats"):
        assert key in stamp
    assert stamp["simulated"] is False
    assert list(first["workloads"]) == list(WORKLOADS)
    for workload, entry in first["workloads"].items():
        assert entry["failed"] == 0 and not entry["failures"], workload
        assert entry["input"]["sizes"], workload
        for metric in END_TO_END:
            values = entry["end_to_end"][metric.name]
            assert values and all(v > 0 for v in values), (workload, metric)
        assert set(entry["compared"]) == {
            m.name for m in COMPARED if workload in m.workloads
        }
        assert all(entry["compared"].values()), workload
        assert set(entry["per_layer"]) <= {m.name for m in PER_LAYER}
    reported = set().union(
        *(entry["per_layer"] for entry in first["workloads"].values())
    )
    assert reported == {m.name for m in PER_LAYER}


def test_same_seed_reproduces_outputs_and_counts(ledgers):
    count_names = [m.name for m in PER_LAYER if m.unit == "count"]
    for workload, entry in ledgers["first"]["workloads"].items():
        again = ledgers["again"]["workloads"][workload]
        other = ledgers["other"]["workloads"][workload]
        # Sizes, counts, input and output digest of the seed's input.
        assert entry["input"] == again["input"], workload
        for name in count_names:
            assert entry["per_layer"].get(name) == again["per_layer"].get(
                name
            ), (workload, name)
        # On equal inputs quality is exact, whatever the machine did.
        assert entry["end_to_end"]["quality"] == again["end_to_end"]["quality"]
        for name in ("quality.linkage_f1", "quality.fusion_accuracy"):
            assert entry["compared"].get(name) == again["compared"].get(name)
        assert (
            entry["input"]["input_sha256"] != other["input"]["input_sha256"]
        ), workload


def test_compare_of_a_ledger_with_itself(ledgers, tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledgers["first"]))
    done = _run("--compare", str(path), str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    for entry in COMPARED:
        assert entry.name in done.stdout
    assert "DIFFERENT" not in done.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_run_prints_the_contract_shape(trace):
    done = _run(
        "--workload", "fuse_copiers", "--seed", "5", "--seconds", "1",
        "--trace", trace, "--smoke",
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["attempted"] >= 1 and report["failed"] == 0
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert list(report["metrics"]) == [m.name for m in expected]
    for metric in expected:
        assert report["metrics"][metric.name]["unit"] == metric.unit
