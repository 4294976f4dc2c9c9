"""Sacrificial subprocess for the kill/resume acceptance tests.

The kill fault (``FaultSpec(kind="kill")``) terminates the whole
process via ``os._exit`` — no unwinding, no cleanup — so it can only
be exercised from a process built to die. This driver is that process:
the tests launch it once with ``--kill-chunk`` (it dies mid-run with
exit status 137 after checkpointing the chunks it completed), then
again without (it resumes from the same store and prints its result as
JSON), and compare against an uninterrupted run.

Modes
-----

``engine``
    The shared 8-record / 28-pair workload through
    ``ParallelComparisonEngine.match_pairs`` with ``chunk_size=7`` —
    exactly 4 chunks under serial or process execution, so
    ``--kill-chunk 2`` always dies with chunks 0–1 checkpointed.
``pipeline``
    A full ``BDIPipeline.run(checkpoint=...)`` over a small
    three-source corpus; the kill lands in the linkage stage's chunk
    loop, leaving a partial stage ledger behind.
``solver``
    TruthFinder over a claim set, killed after ``--kill-iter`` durable
    iteration saves (a kill at an iteration boundary rather than a
    chunk boundary).

Each mode prints a deterministic JSON document on success; a killed
invocation prints nothing and exits 137 (``KILL_EXIT_CODE``).
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.core import Dataset, Record, Source  # noqa: E402
from repro.core.pipeline import BDIPipeline, PipelineConfig  # noqa: E402
from repro.fusion import Claim, ClaimSet, TruthFinder  # noqa: E402
from repro.linkage import (  # noqa: E402
    FieldComparator,
    ParallelComparisonEngine,
    RecordComparator,
    ThresholdClassifier,
)
from repro.obs import Tracer  # noqa: E402
from repro.recovery import RunStore  # noqa: E402
from repro.resilience import ResilienceConfig, RetryPolicy  # noqa: E402
from repro.resilience.testing import FaultInjector, kill  # noqa: E402
from repro.text import exact_similarity  # noqa: E402


def _recovery_counters(tracer):
    counters = tracer.report().metrics.get("counters", {})
    return {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith("recovery.")
    }


def _engine_workload():
    records = [
        Record(
            f"r{i}", f"s{i % 2}", {"name": f"item {i // 2}", "brand": "acme"}
        )
        for i in range(8)
    ]
    ids = [record.record_id for record in records]
    pairs = [
        (ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    ]
    return records, pairs


def _comparator():
    return RecordComparator(
        fields=[
            FieldComparator("name", exact_similarity, weight=2.0),
            FieldComparator("brand", exact_similarity, weight=1.0),
        ]
    )


def run_engine(root, kill_chunk, execution):
    records, pairs = _engine_workload()
    injector = None
    if kill_chunk is not None:
        injector = FaultInjector(kill(chunk=kill_chunk, attempts=1))
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01),
        failure="retry",
        fault_injector=injector,
    )
    tracer = Tracer()
    engine = ParallelComparisonEngine(
        _comparator(),
        execution=execution,
        n_workers=1 if execution == "serial" else 2,
        chunk_size=7,
        tracer=tracer,
        resilience=resilience,
        checkpoint=RunStore(root),
    )
    run = engine.match_pairs(records, pairs, ThresholdClassifier(0.9))
    return {
        "match_pairs": sorted(sorted(pair) for pair in run.match_pairs),
        "scored_edges": [
            [left, right, round(score, 12)]
            for left, right, score in run.scored_edges
        ],
        "completed_chunks": run.completed_chunks,
        "n_chunks": run.n_chunks,
        "counters": _recovery_counters(tracer),
    }


def _pipeline_dataset():
    sources = []
    for s in range(3):
        records = [
            Record(
                f"s{s}r{i}",
                f"src{s}",
                {
                    "title": f"widget model {i % 6} deluxe",
                    "brand": ["acme", "acme", "bolt"][s],
                    "price": str(10 + (i % 6)),
                },
            )
            for i in range(12)
        ]
        sources.append(Source(f"src{s}", records))
    return Dataset(sources)


def run_pipeline(root, kill_chunk):
    injector = None
    if kill_chunk is not None:
        injector = FaultInjector(kill(chunk=kill_chunk, attempts=1))
    config = PipelineConfig(
        fusion="truthfinder",
        n_workers=4,
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            failure="retry",
            fault_injector=injector,
        ),
    )
    tracer = Tracer()
    result = BDIPipeline(config).run(
        _pipeline_dataset(), tracer=tracer, checkpoint=root
    )
    return {
        "entity_table": result.entity_table,
        "clusters": sorted(sorted(cluster) for cluster in result.clusters),
        "chosen": dict(sorted(result.fusion.chosen.items())),
        "iterations": result.fusion.iterations,
        "counters": _recovery_counters(tracer),
    }


class _KillAfterSaves:
    """A checkpoint wrapper that dies after N durable saves.

    Models a crash landing exactly on an iteration boundary: the Nth
    iteration's state is fully committed, then the process is gone.
    """

    def __init__(self, store, kill_after):
        self._store = store
        self._kill_after = kill_after
        self._saves = 0

    def load(self, key, signature=None):
        return self._store.load(key, signature)

    def save(self, key, value, signature=None):
        meta = self._store.save(key, value, signature)
        self._saves += 1
        if self._saves >= self._kill_after:
            os._exit(137)
        return meta


def _solver_claims():
    claims = ClaimSet()
    for item in range(6):
        for source in range(5):
            value = "true-value" if source < 3 else f"wrong-{source}"
            claims.add(Claim(f"src{source}", f"item{item}", value))
    return claims


def run_solver(root, kill_iter):
    store = RunStore(root)
    checkpoint = (
        store if kill_iter is None else _KillAfterSaves(store, kill_iter)
    )
    tracer = Tracer()
    fuser = TruthFinder(
        max_iterations=40, tolerance=1e-9, tracer=tracer, checkpoint=checkpoint
    )
    result = fuser.fuse(_solver_claims())
    return {
        "chosen": dict(sorted(result.chosen.items())),
        "confidence": {
            item: round(value, 12)
            for item, value in sorted(result.confidence.items())
        },
        "source_accuracy": {
            source: round(value, 12)
            for source, value in sorted(result.source_accuracy.items())
        },
        "iterations": result.iterations,
        "counters": _recovery_counters(tracer),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("engine", "pipeline", "solver"))
    parser.add_argument("root", help="run-store directory")
    parser.add_argument("--kill-chunk", type=int, default=None)
    parser.add_argument("--kill-iter", type=int, default=None)
    parser.add_argument(
        "--execution", choices=("serial", "process"), default="serial"
    )
    options = parser.parse_args()
    if options.mode == "engine":
        document = run_engine(
            options.root, options.kill_chunk, options.execution
        )
    elif options.mode == "pipeline":
        document = run_pipeline(options.root, options.kill_chunk)
    else:
        document = run_solver(options.root, options.kill_iter)
    json.dump(document, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
