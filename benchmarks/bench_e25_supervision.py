"""E25 — supervision: recovery time and degraded-mode read latency.

The self-healing layer (`repro.supervision`) makes two promises that
are cheap to state and easy to quietly break:

* **recovery is bounded** — when a shard worker is killed, the
  supervisor restarts it from its checkpoint namespace and the run
  completes with byte-identical output; the price is the re-executed
  tail of the dead incarnation plus the restart machinery, not a
  rerun of the whole job. This experiment kills a process-backend
  worker mid-run and reports the wall-clock overhead against an
  unfaulted supervised run of the same workload;
* **degraded mode never taxes reads** — when the serve-side circuit
  breaker opens, writes are shed but reads keep answering from the
  last published generation through exactly the same probe-and-cache
  path. The read p99 while degraded must stay within a small multiple
  of the healthy read p99 (the gate in
  ``benchmarks/check_supervision_degraded.py`` enforces 3x against
  the healthy p99 of the same run).

``BENCH_supervision.json`` at the repo root records both numbers.

Run with::

    PYTHONPATH=src python benchmarks/bench_e25_supervision.py
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from bench_common import linkage_corpus, table

from repro.dist import sharded_resolve
from repro.linkage import (
    StandardBlocker,
    ThresholdClassifier,
    default_product_comparator,
)
from repro.linkage.blocking import first_token_key
from repro.obs import Tracer
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.resilience.testing import FaultInjector, crash, kill
from repro.serve import ResolutionService, percentile
from repro.supervision import OverloadPolicy, SupervisionPolicy, Supervisor

THRESHOLD = 0.72
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_supervision.json"
#: Degraded reads ride the same probe-and-cache path as healthy reads;
#: the budget is a small multiple of the healthy p99, floored so
#: machine variance on sub-millisecond latencies cannot trip it.
DEGRADED_RATIO_BUDGET = 3.0
DEGRADED_FLOOR_MS = 15.0


def _corpus(n_entities: int, n_sources: int):
    dataset = linkage_corpus(n_entities=n_entities, n_sources=n_sources)
    return list(dataset.records())


#: The corpus is schema-heterogeneous — sources call the product name
#: "title", "product name", or "model" — so the blocking key must
#: probe the aliases or most ingests never find a candidate.
def _name_key():
    return first_token_key("name", aliases=("title", "product name", "model"))


def _blocker() -> StandardBlocker:
    return StandardBlocker(_name_key())


def _supervised_run(records, checkpoint, injector=None, tracer=None):
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        failure="retry",
        fault_injector=injector,
    )
    supervisor = Supervisor(
        SupervisionPolicy(
            max_restarts=2,
            poll_interval=0.02,
            backoff=RetryPolicy(
                max_attempts=1, base_delay=0.01, multiplier=1.0,
                max_delay=0.05,
            ),
        ),
        tracer=tracer,
    )
    run = sharded_resolve(
        records,
        _blocker(),
        default_product_comparator(),
        ThresholdClassifier(THRESHOLD),
        n_shards=2,
        backend="process",
        checkpoint=checkpoint,
        resilience=resilience,
        supervisor=supervisor,
    )
    return run, supervisor


def _recovery_phase(records):
    """Kill a process-backend worker; time the healed run vs clean."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-sup-") as root:
        start = time.perf_counter()
        clean, _ = _supervised_run(records, checkpoint=f"{root}/clean")
        clean_seconds = time.perf_counter() - start

        injector = FaultInjector(kill(chunk=0, shard=1, incarnations=(1,)))
        start = time.perf_counter()
        faulted, supervisor = _supervised_run(
            records, checkpoint=f"{root}/faulted", injector=injector
        )
        faulted_seconds = time.perf_counter() - start

    if faulted.result.clusters != clean.result.clusters:
        raise SystemExit("healed run diverged from the unfaulted run")
    kinds = [event.kind for event in supervisor.events]
    return {
        "clean_seconds": round(clean_seconds, 4),
        "faulted_seconds": round(faulted_seconds, 4),
        "recovery_overhead_seconds": round(
            max(faulted_seconds - clean_seconds, 0.0), 4
        ),
        "deaths": kinds.count("death"),
        "restarts": kinds.count("restart"),
        "exhausted": kinds.count("exhausted"),
    }


def _degraded_read_phase(records, n_probes: int, tracer=None):
    """Probe read p50/p99 healthy, trip the breaker, probe again."""
    tracer = tracer or Tracer()
    warm = records[: (2 * len(records)) // 3]
    probes = records[len(warm) :][:n_probes] or warm[:n_probes]
    # The two ingests *after* the warm set are the ones injected to
    # fail (chunk index == log position), tripping the breaker.
    injector = FaultInjector(
        crash(chunk=len(warm)), crash(chunk=len(warm) + 1)
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-deg-") as root:
        service = ResolutionService(
            root,
            key_functions=[_name_key()],
            comparator=default_product_comparator(),
            classifier=ThresholdClassifier(THRESHOLD),
            refresh_blocker=_blocker(),
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1, base_delay=0.0),
                failure="skip",
                fault_injector=injector,
            ),
            overload=OverloadPolicy(
                max_pending_writes=64,
                failure_threshold=2,
                reset_timeout=600.0,
                shed="dead_letter",
            ),
            tracer=tracer,
            durable=False,
        )
        for record in warm:
            service.ingest(record)

        def _probe_pass():
            latencies = []
            for probe in probes:
                start = time.perf_counter()
                service.match(probe)
                latencies.append(time.perf_counter() - start)
            return latencies

        _probe_pass()  # warm-up: both measured passes hit warm caches
        healthy = _probe_pass()
        for record in records[len(warm) : len(warm) + 2]:
            service.ingest(record)
        if service.health()["status"] != "degraded":
            raise SystemExit("breaker never opened; degraded pass is moot")
        degraded = _probe_pass()
        generation = service.generation

    healthy_p99 = percentile(healthy, 99.0) * 1000.0
    degraded_p99 = percentile(degraded, 99.0) * 1000.0
    return {
        "probes": len(probes),
        "generation": generation,
        "healthy_p50_ms": round(percentile(healthy, 50.0) * 1000.0, 4),
        "healthy_p99_ms": round(healthy_p99, 4),
        "degraded_p50_ms": round(percentile(degraded, 50.0) * 1000.0, 4),
        "degraded_p99_ms": round(degraded_p99, 4),
        "degraded_over_healthy": round(
            degraded_p99 / healthy_p99 if healthy_p99 else 1.0, 3
        ),
    }


def _run_phases(records, n_probes: int):
    tracer = Tracer()
    recovery = _recovery_phase(records)
    reads = _degraded_read_phase(records, n_probes, tracer=tracer)
    counters = {
        name: counter.value
        for name, counter in tracer.metrics._counters.items()
        if name.startswith(("serve.", "supervision."))
    }
    return {"recovery": recovery, "reads": reads, "counters": counters}


def _sanity(results) -> None:
    recovery = results["recovery"]
    if recovery["deaths"] != 1 or recovery["restarts"] != 1:
        raise SystemExit(
            "kill fault did not produce exactly one death + restart: "
            f"{recovery}"
        )
    if recovery["exhausted"]:
        raise SystemExit("supervisor exhausted its restart budget")
    counters = results["counters"]
    if not counters.get("serve.breaker.opened"):
        raise SystemExit("degraded pass never opened the breaker")
    if not counters.get("serve.ingest_comparisons"):
        raise SystemExit(
            "warm ingests never compared a candidate — the blocking "
            "key stopped matching the corpus schemas"
        )


def _write_json(results, n_entities, n_sources, path=RESULT_PATH):
    payload = {
        "experiment": "E25 supervision: recovery and degraded reads",
        "corpus": {
            "n_entities": n_entities,
            "n_sources": n_sources,
            "categories": ["camera", "notebook"],
        },
        "threshold": THRESHOLD,
        "unix_time": round(time.time(), 1),
        "degraded_ratio_budget": DEGRADED_RATIO_BUDGET,
        "degraded_floor_ms": DEGRADED_FLOOR_MS,
        **results,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


HEADERS = ["phase", "metric", "value"]


def _rows(results):
    recovery, reads = results["recovery"], results["reads"]
    return [
        ["recovery", "clean run (s)", recovery["clean_seconds"]],
        ["recovery", "killed-worker run (s)", recovery["faulted_seconds"]],
        [
            "recovery",
            "overhead (s)",
            recovery["recovery_overhead_seconds"],
        ],
        ["reads", "healthy p99 (ms)", reads["healthy_p99_ms"]],
        ["reads", "degraded p99 (ms)", reads["degraded_p99_ms"]],
        ["reads", "degraded / healthy", reads["degraded_over_healthy"]],
    ]


NOTE = (
    "Expected shape: recovery overhead a fraction of the clean run "
    "(one re-executed shard tail, not a rerun); degraded read p99 "
    "within noise of healthy — the breaker sheds writes, the read "
    "path is untouched."
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus smoke run; does not overwrite "
        "BENCH_supervision.json",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="where to write machine-readable results "
        "(default: BENCH_supervision.json at the repo root; "
        "--quick writes nowhere unless --json is given)",
    )
    args = parser.parse_args(argv)

    n_entities, n_sources = (12, 4) if args.quick else (30, 6)
    n_probes = 24 if args.quick else 60
    records = _corpus(n_entities, n_sources)
    results = _run_phases(records, n_probes=n_probes)
    _sanity(results)

    path = args.json
    if path is None and not args.quick:
        path = RESULT_PATH
    if path is not None:
        _write_json(results, n_entities, n_sources, path)
        print(f"results -> {path}")

    print(
        table(
            "E25: supervision — recovery and degraded reads "
            f"({n_entities} entities x {n_sources} sources, "
            f"{n_probes} probes)",
            HEADERS,
            _rows(results),
            note=NOTE,
        )
    )


if __name__ == "__main__":
    main()
