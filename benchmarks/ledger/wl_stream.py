"""stream_steady: windowed incremental linkage + fusion over a stream.

The same incremental core as ``serve_mixed`` used the other way round:
many candidates per record (capped at 64), no disk, so scalar pair
scoring dominates. The stream is consumed as fast as it is produced, so
records per second is the sustainable rate.
"""

from __future__ import annotations

import json
import statistics
import tempfile
from dataclasses import dataclass, field

from repro.linkage import (
    IncrementalLinker,
    ParallelComparisonEngine,
    StandardBlocker,
    ThresholdClassifier,
    default_product_comparator,
)
from repro.linkage.blocking import first_token_key
from repro.quality import clusters_to_pairs, pair_quality
from repro.recovery import RunStore
from repro.streaming import (
    CONFLICT_ATTRIBUTES,
    DriftStreamConfig,
    DriftWorld,
    StreamingResolver,
    WindowConfig,
    batch_reference_snapshot,
    projection_accuracy,
)

from harness import canonical_sha256
from refclock import clock

#: The stream is its seed's: ``DriftWorld`` draws entities, sources and
#: arrivals from one seed. Streams of two seeds differ by about 2% in
#: records and comparisons, which the other workloads' corpora do not
#: (their generators' draws differ twofold, so those are fixed).
SIZES = {"stream_steady": dict(n_entities=25, n_sources=6, max_windows=4)}
SMOKE_SIZES = {
    "stream_steady": dict(n_entities=10, n_sources=4, max_windows=2)
}

MATCH_THRESHOLD = 0.72
WINDOW_SIZE = 2.0
MAX_CANDIDATES = 64


def _comparator_and_classifier():
    return default_product_comparator(), ThresholdClassifier(MATCH_THRESHOLD)


def make_resolver(world: DriftWorld, decay=None, checkpoint_store=None):
    comparator, classifier = _comparator_and_classifier()
    return StreamingResolver(
        key_functions=[first_token_key("name")],
        comparator=comparator,
        classifier=classifier,
        source_accuracies=world.accuracies_at(0.0),
        window=WindowConfig(size=WINDOW_SIZE),
        decay=decay,
        max_candidates_per_record=MAX_CANDIDATES,
        tracked_attributes=CONFLICT_ATTRIBUTES,
        checkpoint_store=checkpoint_store,
    )


@dataclass
class Inputs:
    name: str
    world: DriftWorld
    max_windows: int
    resolver: StreamingResolver
    sizes: dict
    digest: str
    generate_s: float


def setup(name: str, seed: int, sizes: dict) -> Inputs:
    config = DriftStreamConfig(
        n_entities=sizes["n_entities"], n_sources=sizes["n_sources"], seed=seed
    )
    world = DriftWorld(config)
    return Inputs(
        name=name,
        world=world,
        max_windows=sizes["max_windows"],
        resolver=make_resolver(world),
        sizes={"sources": sizes["n_sources"], "windows": sizes["max_windows"]},
        # The stream is generated lazily while it is consumed; its input
        # is pinned by the generator's configuration.
        digest=canonical_sha256(
            {"config": repr(config), "windows": sizes["max_windows"]}
        ),
        generate_s=0.0,
    )


@dataclass
class Output:
    results: list
    consumed: list
    snapshot: dict
    close_s: list = field(default_factory=list)
    late_records: int = 0
    wall_s: float = 0.0


def consume(inputs: Inputs, resolver: StreamingResolver) -> Output:
    """Drive the resolver over the stream for ``max_windows`` closes.

    The tap keeps every record the resolver pulled (the reference check
    needs them) and stamps when it handed each one over, which gives each
    window close's duration from outside: from handing over the record
    that closed the window to receiving the window's result.
    """
    consumed: list = []
    handed_over = [0.0]

    def tap(stream):
        for record in stream:
            consumed.append(record)
            handed_over[0] = clock()
            yield record

    results, close_s = [], []
    started = clock()
    for result in resolver.process(tap(inputs.world.stream())):
        close_s.append(clock() - handed_over[0])
        results.append(result)
        if len(results) >= inputs.max_windows:
            break
    return Output(
        results=results,
        consumed=consumed,
        snapshot=resolver.snapshot(),
        close_s=close_s,
        late_records=resolver.late_records,
        wall_s=clock() - started,
    )


def run(inputs: Inputs) -> Output:
    return consume(inputs, inputs.resolver)


def _closed_records(out: Output) -> list:
    closed = {
        member
        for entity in out.snapshot["entities"].values()
        for member in entity["members"]
    }
    return [record for record in out.consumed if record.record_id in closed]


def check(inputs: Inputs, out: Output, verify: bool) -> dict:
    """Closed records partition into entities; with ``verify``, the
    projection equals the batch reference."""
    failures: list[str] = []
    entities = out.snapshot["entities"]
    n_records = sum(result.n_records for result in out.results)
    closed = _closed_records(out)
    if len(closed) != n_records or len({r.record_id for r in closed}) != n_records:
        failures.append("entities do not partition the closed windows' records")
    if len(out.results) != inputs.max_windows:
        failures.append(f"only {len(out.results)} windows closed")
    # What the runtime promises on a drift-free stream: the projection is
    # what a from-scratch batch resolve-and-fuse of the closed windows'
    # records arrives at. The reference costs as much as the run itself,
    # so only the repetitions asked to verify pay for it.
    agreement = None
    if verify:
        comparator, classifier = _comparator_and_classifier()
        reference = batch_reference_snapshot(
            closed,
            StandardBlocker(first_token_key("name")),
            comparator,
            classifier,
            inputs.world.accuracies_at(0.0),
        )["entities"]
        agreement = sum(
            1
            for entity_id, entity in entities.items()
            if reference.get(entity_id) == entity
        ) / len(entities)
        if agreement < 1.0 or len(reference) != len(entities):
            failures.append(
                f"only {agreement:.4f} of the projection equals the batch "
                "reference"
            )
    world = inputs.world
    planted: dict[int, list[str]] = {}
    for record in closed:
        planted.setdefault(world.entity_index_of(record.record_id), []).append(
            record.record_id
        )
    linkage_f1 = pair_quality(
        clusters_to_pairs(e["members"] for e in entities.values()),
        clusters_to_pairs(planted.values()),
    ).f1
    accuracy = projection_accuracy(
        world, entities, out.results[-1].end - 1.0
    )
    comparisons = sum(result.comparisons for result in out.results)
    return {
        "failures": failures,
        "ops_attempted": n_records,
        "ops_failed": 0,
        "items": n_records,
        "quality": agreement,
        "output_sha256": canonical_sha256(entities),
        "counts": {
            "records": n_records,
            "comparisons": comparisons,
            "entities": len(entities),
            "late_records": out.late_records,
        },
        "layers": {
            "quality.linkage_f1": linkage_f1,
            "quality.fusion_accuracy": accuracy,
            "streaming.window_close_p50_ms": 1e3
            * statistics.median(out.close_s),
            "streaming.window_close_max_ms": 1e3 * max(out.close_s),
            "streaming.comparisons": comparisons,
            "streaming.state_bytes": len(json.dumps(out.snapshot)),
            "streaming.late_records": out.late_records,
            "incremental.comparisons": comparisons,
            "incremental.comparisons_per_record": comparisons / n_records,
        },
    }


# --- the traced pass -------------------------------------------------------


def _stream_pairs(closed: list) -> list[tuple[str, str]]:
    """The candidate pairs a bare linker replay of the stream compares."""
    comparator, classifier = _comparator_and_classifier()
    linker = IncrementalLinker(
        [first_token_key("name")],
        comparator,
        classifier,
        max_candidates_per_record=MAX_CANDIDATES,
    )
    pairs = []
    for record in closed:
        pairs.extend(
            (record.record_id, other) for other in linker.candidates(record)
        )
        linker.add_batch([record])
    return pairs


def trace(inputs: Inputs, plain: Output, rec) -> tuple[dict, list[str]]:
    failures: list[str] = []
    world = inputs.world
    rec.wrap(IncrementalLinker, "add_batch", "incremental.add_batch")
    try:
        with rec.root():
            with rec.span("streaming.run"):
                traced = consume(inputs, make_resolver(world))
    finally:
        rec.restore()
    if traced.snapshot["entities"] != plain.snapshot["entities"]:
        failures.append("traced run's projection differs from the untraced")

    with tempfile.TemporaryDirectory(prefix="ledger-stream-") as root:
        checkpointed = consume(
            inputs,
            make_resolver(
                world, checkpoint_store=RunStore(root, durable=False)
            ),
        )
    drifting = consume(inputs, make_resolver(world, decay=0.7))

    closed = _closed_records(plain)
    by_id = {record.record_id: record for record in closed}
    pairs = _stream_pairs(closed)
    comparator, classifier = _comparator_and_classifier()
    rates = {}
    for representation in ("dict", "columnar"):
        engine = ParallelComparisonEngine(
            comparator, representation=representation
        )
        started = clock()
        engine.match_pairs(by_id, pairs, classifier)
        rates[representation] = len(pairs) / (clock() - started)

    comparisons = sum(result.comparisons for result in traced.results)
    own = rec.self_times()
    layers = {
        "incremental.stream_add_batch_s": rec.total("incremental.add_batch"),
        "streaming.windowing_fusion_residual_s": own["streaming.run"],
        "streaming.comparisons_per_s": comparisons
        / rec.total("incremental.add_batch"),
        "streaming.checkpoint_overhead_ratio": checkpointed.wall_s
        / plain.wall_s,
        "streaming.drift_records_per_s": sum(
            result.n_records for result in drifting.results
        )
        / drifting.wall_s,
        "engine.stream_pairs_dict_per_s": rates["dict"],
        "engine.stream_pairs_columnar_per_s": rates["columnar"],
        "engine.pairs": len(pairs),
    }
    return layers, failures
