"""Self-healing walkthrough: workers die, the run completes anyway.

The chaos-soak drill for the supervision layer
(:mod:`repro.supervision`), deterministic end to end:

1. A sharded linkage run executes under a :class:`Supervisor` while a
   ``flap`` fault matrix kills workers on schedule — one shard's
   worker dies on launch *and* on its first restart (the canonical
   flapping worker), another shard's worker dies once. The supervisor
   restarts every victim from its checkpoint namespace, within a
   bounded backoff-governed budget, and the final output is asserted
   **byte-identical** to a serial run that never saw a fault. Zero
   unhandled worker deaths: every ``death`` event is followed by a
   ``restart``, and no shard escalates to ``exhausted``.
2. The serving side demonstrates degraded mode: quarantined ingests
   trip the circuit breaker, writes are shed into the dead-letter log
   while reads keep answering from the last published generation, and
   one successful trial write re-arms the breaker automatically.

Run:  python examples/supervision.py [--json PATH]
      (--json writes the supervisor event-log artifact to PATH)
"""

import argparse
import json

from repro.core import Record
from repro.dist import sharded_resolve
from repro.linkage import (
    StandardBlocker,
    ThresholdClassifier,
    default_product_comparator,
    resolve,
)
from repro.linkage.blocking import first_token_key
from repro.obs import ManualClock, Tracer, observe_supervisor
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.resilience.testing import FaultInjector, crash, flap
from repro.serve import ResolutionService
from repro.supervision import OverloadPolicy, SupervisionPolicy, Supervisor
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)


def build_corpus():
    world = generate_world(
        WorldConfig(categories=("camera",), entities_per_category=12, seed=7)
    )
    dataset = generate_dataset(world, CorpusConfig(n_sources=4, seed=8))
    return list(dataset.records())


def blocker():
    return StandardBlocker(first_token_key("name", aliases=("item name",)))


def supervised_run(records):
    """The flap matrix: shard A dies twice, shard 2 dies once."""
    injector = FaultInjector(
        # Canonical flapping worker: dead on launch, dead on the first
        # restart, clean on the second (incarnation 3).
        flap(chunk=0, incarnations=(1, 2), max_fires=2),
        # A second, shard-targeted victim: one death, one restart.
        flap(shard=2, chunk=0, incarnations=(1,), max_fires=1),
    )
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        failure="retry",
        fault_injector=injector,
    )
    tracer = Tracer()
    supervisor = Supervisor(
        SupervisionPolicy(max_restarts=2, sleep=lambda seconds: None),
        tracer=tracer,
    )
    run = sharded_resolve(
        records,
        blocker(),
        default_product_comparator(),
        ThresholdClassifier(0.72),
        n_shards=3,
        backend="inline",
        resilience=resilience,
        supervisor=supervisor,
    )
    observe_supervisor(tracer, supervisor)
    return run, supervisor, tracer


def check_zero_unhandled_deaths(supervisor):
    """Every death healed: death -> restart, and nobody exhausted."""
    kinds = [event.kind for event in supervisor.events]
    assert "exhausted" not in kinds, "a shard exceeded its restart budget"
    assert kinds.count("death") == kinds.count("restart"), (
        "a worker death was not answered with a restart"
    )
    per_shard = {}
    for event in supervisor.events:
        per_shard.setdefault(event.shard, []).append(event.kind)
    for shard, timeline in per_shard.items():
        if "death" in timeline:
            assert timeline[-1] == "recovered", (
                f"shard {shard} died but never recovered: {timeline}"
            )


def degraded_serving(root):
    """Trip the breaker, shed writes, keep reading, re-arm."""
    clock = ManualClock(tick=0.0)
    injector = FaultInjector(crash(chunk=2), crash(chunk=3))
    tracer = Tracer()
    service = ResolutionService(
        root,
        key_functions=[first_token_key("name")],
        comparator=default_product_comparator(),
        classifier=ThresholdClassifier(0.72),
        refresh_blocker=StandardBlocker(first_token_key("name")),
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            failure="skip",
            clock=clock,
            sleep=clock.advance,
            fault_injector=injector,
        ),
        overload=OverloadPolicy(
            max_pending_writes=4,
            failure_threshold=2,
            reset_timeout=5.0,
            shed="dead_letter",
        ),
        tracer=tracer,
        durable=False,
    )
    service.ingest(Record("g1", "s0", {"name": "canon eos r5"}))
    service.ingest(Record("g2", "s1", {"name": "canon eos r5"}))
    # Two quarantined links trip the breaker: degraded mode.
    service.ingest(Record("q1", "s0", {"name": "nikon z6"}))
    service.ingest(Record("q2", "s1", {"name": "sony a7"}))
    health = service.health()
    assert health["status"] == "degraded" and health["breaker"] == "open"

    shed = service.ingest(Record("w1", "s2", {"name": "leica q3"}))
    assert shed.shed, "degraded-mode write was not shed"
    probe = service.match(Record("probe", "s9", {"name": "canon eos r5"}))
    assert probe is not None, "reads stopped answering while degraded"

    clock.advance(5.0)  # the breaker's window closes -> half-open
    trial = service.ingest(Record("t1", "s0", {"name": "fuji xt5"}))
    assert trial.entity_id and service.health()["status"] == "ok"
    counters = tracer.metrics.snapshot()["counters"]
    return health, shed, counters


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the supervisor event-log artifact to PATH",
    )
    args = parser.parse_args()

    records = build_corpus()

    # 1. The unfaulted serial baseline the healed run must reproduce.
    serial = resolve(
        records,
        blocker(),
        default_product_comparator(),
        ThresholdClassifier(0.72),
    )
    print(
        f"serial baseline: {len(serial.match_pairs)} matches, "
        f"{len(serial.clusters)} clusters"
    )

    # 2. The supervised run under the flap matrix.
    run, supervisor, tracer = supervised_run(records)
    result = run.result
    assert result.match_pairs == serial.match_pairs
    assert result.scored_edges == serial.scored_edges
    assert result.clusters == serial.clusters
    check_zero_unhandled_deaths(supervisor)
    deaths = sum(1 for e in supervisor.events if e.kind == "death")
    restarts = sum(1 for e in supervisor.events if e.kind == "restart")
    print(
        f"supervised run:  {deaths} worker deaths, {restarts} restarts, "
        f"0 unhandled — output byte-identical to serial"
    )
    for event in supervisor.events:
        detail = f"  ({event.detail})" if event.detail else ""
        print(
            f"  [shard {event.shard} inc {event.incarnation}] "
            f"{event.kind}{detail}"
        )

    # 3. Degraded-mode serving: shed writes, live reads, auto re-arm.
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-supervise-eg-") as root:
        health, shed, serve_counters = degraded_serving(root)
    print(
        "degraded mode:   breaker opened after "
        f"{health['dead_letters']} quarantines; write {shed.record_id!r} "
        "shed to the dead-letter log; reads kept answering; one trial "
        "write re-armed the breaker"
    )
    for name in ("serve.shed", "serve.breaker.opened", "serve.breaker.rearmed"):
        print(f"  {name:30s} {serve_counters.get(name, 0):g}")

    # 4. The machine view: the full supervision event timeline plus the
    #    healing gauges, as one CI artifact.
    if args.json:
        gauges = tracer.metrics.snapshot()["gauges"]
        payload = {
            "events": [event.to_dict() for event in supervisor.events],
            "deaths": deaths,
            "restarts": restarts,
            "unhandled_deaths": 0,
            "healed_shards": gauges["supervision.healed_shards"],
            "max_shard_restarts": gauges["supervision.max_shard_restarts"],
            "serve_counters": serve_counters,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote supervisor event log to {args.json}")


if __name__ == "__main__":
    main()
