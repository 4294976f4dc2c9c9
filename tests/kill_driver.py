"""The process built to die: every kill/resume scenario of the suite.

A kill is ``os._exit``: no unwinding, no cleanup, nothing an
in-process test can survive. So each scenario runs here, in a fresh
interpreter (``tests/procs.py::run_driver``), once killed and once not,
and the tests compare what the runs print.

    PYTHONPATH=src python tests/kill_driver.py SCENARIO ROOT [--kill K] ...

:data:`SCENARIOS` maps a name to ``(root, kill, **params) -> dict``.
``ROOT`` is the run-store directory. With ``--kill`` the run dies with
exit status :data:`KILL_EXIT_CODE` at that point and prints nothing;
without it the run goes (or resumes) to the end and prints its document
as sorted JSON. The unit of ``--kill`` is the scenario's:

``engine``
    Engine chunk index. 8 records, 28 pairs, chunk size 7: 4 chunks
    under ``--execution serial|process``, so ``--kill 2`` dies with
    chunks 0-1 checkpointed.
``pipeline``
    Chunk index in the linkage stage of a checkpointed
    ``BDIPipeline.run`` over three small sources.
``solver``
    Durable TruthFinder iteration saves: dies right after the K-th.
``serial``
    No kill, no store: plain ``resolve`` over the sharded corpus, the
    baseline ``sharded`` resumes to (``--entities``, ``--seed``).
``sharded``
    ``SHARD:CHUNK``: that shard's chunk, under the inline backend, which
    runs shards in order (``--entities``, ``--seed``, ``--shards``,
    ``--chunk-size``). Prints the merged result plus per-shard forensics.
``serve``
    Log position: dies ingesting record K, after its durable append and
    before linking. Ingests ``--n`` records, refreshing after the
    ``--refresh-at``-th; ``--n 0`` reopens the root without ingesting.
``streaming``
    Records consumed, replayed ones included, until ``--windows``
    windows have closed.
``coordinator``
    No ``--kill``: dies by itself once both process shard workers are
    scoring, printing ``both shards busy`` first.
``hang``
    No ``--kill`` and no store: a worker hung past its timeout is
    killed; prints the quarantined pairs, this process's live children
    and the time ``match_pairs`` returned.
"""

import argparse
import hashlib
import json
import math
import os
import threading
import time

# Packages, not names: a package is a table that loads a submodule when
# one of its names is read, so each scenario loads only its own layer.
import repro
from repro import (
    dist,
    fusion,
    linkage,
    obs,
    recovery,
    resilience,
    serve,
    streaming,
    synth,
    text,
)
from repro.linkage.blocking import first_token_key
from repro.resilience import testing as faults


def die(code: int = faults.KILL_EXIT_CODE) -> None:
    """End this process now: no unwinding, no flush, no cleanup."""
    os._exit(code)


def _dying(kill, failure="retry", max_attempts=2, **where):
    """Retries whose first attempt at chunk ``kill`` (an index, or
    ``None`` for a run that lives) ends the process."""
    injector = None
    if kill is not None:
        injector = faults.FaultInjector(
            faults.kill(chunk=int(kill), attempts=1, **where)
        )
    return resilience.ResilienceConfig(
        retry=resilience.RetryPolicy(
            max_attempts=max_attempts, base_delay=0.01
        ),
        failure=failure,
        fault_injector=injector,
    )


def _counters(tracer, *prefixes):
    counters = tracer.report().metrics.get("counters", {})
    return {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(prefixes)
    }


def _edges(scored_edges):
    return [
        [left, right, round(score, 12)] for left, right, score in scored_edges
    ]


# --- engine, pipeline, solver -----------------------------------------


def run_engine(root, kill=None, execution="serial"):
    records = [
        repro.Record(
            f"r{i}", f"s{i % 2}", {"name": f"item {i // 2}", "brand": "acme"}
        )
        for i in range(8)
    ]
    pairs = [(f"r{i}", f"r{j}") for i in range(8) for j in range(i + 1, 8)]
    exact = text.exact_similarity
    tracer = obs.Tracer()
    run = linkage.ParallelComparisonEngine(
        linkage.RecordComparator(
            fields=[
                linkage.FieldComparator("name", exact, weight=2.0),
                linkage.FieldComparator("brand", exact, weight=1.0),
            ]
        ),
        execution=execution,
        n_workers=1 if execution == "serial" else 2,
        chunk_size=7,
        tracer=tracer,
        resilience=_dying(kill),
        checkpoint=recovery.RunStore(root),
    ).match_pairs(records, pairs, linkage.ThresholdClassifier(0.9))
    return {
        "match_pairs": sorted(sorted(pair) for pair in run.match_pairs),
        "scored_edges": _edges(run.scored_edges),
        "completed_chunks": run.completed_chunks,
        "n_chunks": run.n_chunks,
        "counters": _counters(tracer, "recovery."),
    }


def run_pipeline(root, kill=None):
    sources = [
        repro.Source(
            f"src{s}",
            [
                repro.Record(
                    f"s{s}r{i}",
                    f"src{s}",
                    {
                        "title": f"widget model {i % 6} deluxe",
                        "brand": ["acme", "acme", "bolt"][s],
                        "price": str(10 + (i % 6)),
                    },
                )
                for i in range(12)
            ],
        )
        for s in range(3)
    ]
    config = repro.PipelineConfig(
        fusion="truthfinder",
        n_workers=4,
        resilience=_dying(kill),
    )
    tracer = obs.Tracer()
    result = repro.BDIPipeline(config).run(
        repro.Dataset(sources), tracer=tracer, checkpoint=root
    )
    return {
        "entity_table": result.entity_table,
        "clusters": sorted(sorted(cluster) for cluster in result.clusters),
        "chosen": dict(sorted(result.fusion.chosen.items())),
        "iterations": result.fusion.iterations,
        "counters": _counters(tracer, "recovery."),
    }


class _KillAfterSaves:
    """A checkpoint that dies right after its N-th durable save: a
    crash landing exactly on an iteration boundary."""

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
            die()
        return meta


def run_solver(root, kill=None):
    claims = fusion.ClaimSet()
    for item in range(6):
        for source in range(5):
            value = "true-value" if source < 3 else f"wrong-{source}"
            claims.add(fusion.Claim(f"src{source}", f"item{item}", value))
    store = recovery.RunStore(root)
    if kill is not None:
        store = _KillAfterSaves(store, int(kill))
    tracer = obs.Tracer()
    result = fusion.TruthFinder(
        max_iterations=40, tolerance=1e-9, tracer=tracer, checkpoint=store
    ).fuse(claims)

    def rounded(table):
        return {key: round(value, 12) for key, value in sorted(table.items())}

    return {
        "chosen": dict(sorted(result.chosen.items())),
        "confidence": rounded(result.confidence),
        "source_accuracy": rounded(result.source_accuracy),
        "iterations": result.iterations,
        "counters": _counters(tracer, "recovery."),
    }


# --- sharded ----------------------------------------------------------


def make_corpus(n_entities: int, seed: int):
    """The deterministic corpus of one ``serial``/``sharded`` run:
    ``(records, blocker, comparator, classifier)``."""
    world = synth.generate_world(
        synth.WorldConfig(
            categories=("camera",), entities_per_category=n_entities, seed=seed
        )
    )
    dataset = synth.generate_dataset(
        world, synth.CorpusConfig(n_sources=5, seed=seed + 1)
    )
    return (
        list(dataset.records()),
        linkage.TokenBlocker(max_block_size=40),
        linkage.default_product_comparator(),
        linkage.ThresholdClassifier(0.72),
    )


def choose_kill(records, blocker, n_shards: int, chunk_size: int):
    """A kill point guaranteed to be mid-run, or ``None``.

    Picks the shard with the most pairs (ties to the smaller id) and
    kills its second chunk, so at least one chunk is checkpointed before
    death and at least one is never attempted. Returns ``(shard,
    kill_chunk, n_chunks)``, or ``None`` when no shard spans two chunks.
    """
    from repro.dist.runtime import _canonical_pairs, _partition_pairs

    pairs = blocker.block(records).candidate_pairs()
    buckets, __ = _partition_pairs(_canonical_pairs(pairs), n_shards)
    counts = [len(bucket) for bucket in buckets]
    shard = max(range(n_shards), key=lambda k: (counts[k], -k))
    n_chunks = math.ceil(counts[shard] / chunk_size)
    if n_chunks < 2:
        return None
    return shard, 1, n_chunks


def _linkage_document(result) -> dict:
    return {
        "match_pairs": sorted(sorted(pair) for pair in result.match_pairs),
        "scored_edges": _edges(result.scored_edges),
        "clusters": sorted(sorted(cluster) for cluster in result.clusters),
        "n_candidates": result.n_candidates,
    }


def run_serial(root=None, kill=None, entities=24, seed=11):
    """The single-process ``resolve`` a sharded resume must equal."""
    corpus = make_corpus(entities, seed)
    return _linkage_document(linkage.resolve(*corpus))


def run_sharded(
    root, kill=None, entities=24, seed=11, shards=3, chunk_size=64
):
    records, blocker, comparator, classifier = make_corpus(entities, seed)
    where = {}
    if kill is not None:
        shard, kill = kill.split(":")
        where["shard"] = int(shard)
    tracer = obs.Tracer()
    run = dist.sharded_resolve(
        records,
        blocker,
        comparator,
        classifier,
        n_shards=shards,
        backend="inline",
        chunk_size=chunk_size,
        tracer=tracer,
        resilience=_dying(kill, **where),
        checkpoint=root,
    )
    document = _linkage_document(run.result)
    document["shards"] = [
        {
            "shard": shard.shard,
            "n_pairs": shard.n_pairs,
            "n_chunks": shard.n_chunks,
            "completed_chunks": shard.completed_chunks,
            "replayed_chunks": shard.replayed_chunks,
            "resumed": shard.resumed,
        }
        for shard in run.shards
    ]
    document["counters"] = _counters(tracer, "dist.", "recovery.")
    return document


# --- serve ------------------------------------------------------------

_BRANDS = ("canon", "nikon", "sony", "kodak", "fuji")


def build_records(n: int) -> list:
    """A deterministic stream of n records over ~n/3 true entities.

    Every third record describes the same camera from a different
    source, with light value disagreement for fusion to resolve, so the
    stream creates singletons, joins clusters and conflicts across
    sources.
    """
    records = []
    for i in range(n):
        entity = i // 3
        source = f"s{i % 3}"
        brand = _BRANDS[entity % len(_BRANDS)]
        attributes = {
            "name": f"{brand} powershot model{entity}",
            "brand": brand if i % 3 != 2 else brand.upper(),
            "zoom": f"{3 + entity % 4}x",
        }
        records.append(repro.Record(f"{source}/r{i}", source, attributes))
    return records


def run_serve(root, kill=None, n=24, refresh_at=None):
    service = serve.ResolutionService(
        root,
        key_functions=[first_token_key("name")],
        comparator=linkage.default_product_comparator(),
        classifier=linkage.ThresholdClassifier(0.72),
        refresh_blocker=linkage.StandardBlocker(first_token_key("name")),
        source_accuracies={"s0": 0.9, "s1": 0.8, "s2": 0.6},
        resilience=None
        if kill is None
        else _dying(kill, failure="fail", max_attempts=1),
    )
    for index, record in enumerate(build_records(n)):
        service.ingest(record)
        if index + 1 == refresh_at:
            service.refresh()
    raw = service.store.generation_bytes(service.generation)
    return {
        "generation": service.generation,
        "log_length": service.store.log_length,
        "snapshot": service.snapshot(),
        "generation_sha": (
            None if raw is None else hashlib.sha256(raw).hexdigest()
        ),
    }


# --- streaming --------------------------------------------------------

def _drift_world():
    """A mid-stream accuracy flip, so the checkpoint carries non-trivial
    tracker and monitor state."""
    return streaming.DriftWorld(
        streaming.DriftStreamConfig(
            n_entities=10,
            n_sources=5,
            flip_at=12.0,
            flip_source=0,
            flip_to=0.2,
            seed=11,
        )
    )


def build_resolver(root):
    return streaming.StreamingResolver(
        key_functions=[first_token_key("name")],
        comparator=linkage.default_product_comparator(),
        classifier=linkage.ThresholdClassifier(0.72),
        source_accuracies=_drift_world().accuracies_at(0.0),
        window=streaming.WindowConfig(size=2.0),
        decay=0.7,
        tracked_attributes=streaming.CONFLICT_ATTRIBUTES,
        checkpoint_store=recovery.RunStore(root, durable=False),
    )


def run_streaming(root, kill=None, windows=10):
    resolver = build_resolver(root)
    stream = iter(_drift_world().stream())
    resolver.resume(stream)

    def doomed(records):
        for record in records:
            yield record
            if kill is not None and resolver.consumed >= int(kill):
                die()

    for __ in resolver.process(doomed(stream)):
        if resolver.windows_closed >= windows:
            break
    return {
        "snapshot": resolver.snapshot(),
        "estimates": resolver.estimates(),
        "events": [event.to_json() for event in resolver.events],
    }


# --- process death under live workers ---------------------------------


class _Busy:
    """A similarity taking ~0.7 s per shard, each call logging its
    worker's pid to ``mark``."""

    def __init__(self, mark):
        self.mark = mark

    def __call__(self, left, right):
        with open(self.mark, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        time.sleep(0.02)
        return 1.0 if left == right else 0.0


def run_coordinator(root, kill=None):
    os.makedirs(root, exist_ok=True)
    mark = os.path.join(root, "busy_pids")

    def kill_when_both_busy():
        while True:
            time.sleep(0.01)
            if os.path.exists(mark):
                with open(mark) as handle:
                    if len(set(handle.read().split())) == 2:
                        print("both shards busy", flush=True)
                        die()

    threading.Thread(target=kill_when_both_busy, daemon=True).start()
    records = [
        repro.Record(f"r{i}", "s", {"name": f"item {i % 3}"})
        for i in range(12)
    ]
    dist.sharded_resolve(
        records,
        None,
        linkage.RecordComparator(
            [linkage.FieldComparator("name", _Busy(mark))]
        ),
        linkage.ThresholdClassifier(0.5),
        candidate_pairs=[
            (f"r{i}", f"r{j}") for i in range(12) for j in range(i + 1, 12)
        ],
        n_shards=2,
        backend="process",
    )
    return {"survived": True}


def _hanging(left, right):
    if "hang" in (left, right):
        time.sleep(60.0)
    return 1.0 if left == right else 0.0


def run_hang(root, kill=None):
    # Run as a script, the driver's own directory is on ``sys.path``.
    from procs import live_processes

    records = [
        repro.Record("p0", "s0", {"name": "hang"}),
        repro.Record("p1", "s1", {"name": "alpha"}),
        repro.Record("p2", "s0", {"name": "alpha"}),
    ]
    run = linkage.ParallelComparisonEngine(
        linkage.RecordComparator([linkage.FieldComparator("name", _hanging)]),
        execution="process",
        n_workers=2,
        chunk_size=2,
        resilience=resilience.ResilienceConfig(
            retry=resilience.RetryPolicy(max_attempts=1),
            failure="skip",
            timeout=0.5,
        ),
    ).match_pairs(
        records,
        [("p0", "p1"), ("p1", "p2"), ("p0", "p2")],
        linkage.ThresholdClassifier(0.9),
    )
    return {
        "quarantined": sorted(run.quarantined_pairs),
        "children": live_processes(parent=os.getpid()),
        "returned": time.time(),
    }


SCENARIOS = {
    "engine": run_engine,
    "pipeline": run_pipeline,
    "solver": run_solver,
    "serial": run_serial,
    "sharded": run_sharded,
    "serve": run_serve,
    "streaming": run_streaming,
    "coordinator": run_coordinator,
    "hang": run_hang,
}


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("root", nargs="?", help="run-store directory")
    parser.add_argument("--kill", help="where to die (see above)")
    parser.add_argument("--execution", choices=("serial", "process"))
    sizes = ("entities", "seed", "shards", "chunk-size", "n", "refresh-at")
    for option in (*sizes, "windows"):
        parser.add_argument(f"--{option}", type=int)
    options = vars(parser.parse_args())
    scenario = SCENARIOS[options.pop("scenario")]
    root = options.pop("root")
    params = {name: v for name, v in options.items() if v is not None}
    print(json.dumps(scenario(root, **params), sort_keys=True))


if __name__ == "__main__":
    main()
