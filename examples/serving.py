"""Serving walkthrough: a live entity-resolution API that survives kill -9.

The batch pipeline answers "what are the entities?" once; a serving
deployment answers it continuously while records keep arriving. This
example stands up a :class:`repro.serve.ResolutionService` and walks
the full lifecycle:

1. **Ingest** a stream of product records from three disagreeing
   sources — each ingest is durably logged, incrementally linked, and
   its entity re-fused online (never the batch pipeline).
2. **Query** it: ``match`` routes a never-seen record to its entity,
   ``get`` returns fused attributes with per-attribute provenance and
   confidence.
3. **Refresh**: full batch re-resolution runs into a new generation
   and readers swap atomically; the projection is unchanged
   (incremental ≡ batch), but the generation is now durable.
4. **Kill**: a sacrificial subprocess resumes the same store and is
   murdered via ``os._exit(137)`` mid-ingest — after the durable log
   append, before linking. No unwinding, no cleanup.
5. **Restart + query**: reopening the store replays the log tail past
   the published generation's watermark; the acknowledged-but-unlinked
   record is served as if the crash never happened.

Run:  python examples/serving.py [--json PATH]
      (--json writes the serve.* counters and final state to PATH)
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

from repro.core import Record
from repro.linkage import (
    StandardBlocker,
    ThresholdClassifier,
    default_product_comparator,
)
from repro.linkage.blocking import first_token_key
from repro.obs import Tracer
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.resilience.testing import KILL_EXIT_CODE, FaultInjector, kill
from repro.serve import ResolutionService

CATALOG = [
    ("canon", "powershot a560", "4x"),
    ("nikon", "coolpix p50", "3.6x"),
    ("sony", "cybershot w80", "3x"),
    ("kodak", "easyshare z712", "12x"),
]


def build_records():
    """Three sources describing four cameras, with the third source
    habitually sloppy about brand casing — fusion's job to clean up."""
    records = []
    for index, (brand, model, zoom) in enumerate(CATALOG):
        for s, source in enumerate(("retail", "feed", "scraper")):
            records.append(
                Record(
                    f"{source}/{index}",
                    source,
                    {
                        "name": f"{brand} {model}",
                        "brand": brand.upper() if source == "scraper" else brand,
                        "zoom": zoom,
                    },
                )
            )
    return records


def build_service(root, doomed_at=None, tracer=None):
    resilience = None
    if doomed_at is not None:
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1),
            fault_injector=FaultInjector(kill(chunk=doomed_at)),
        )
    return ResolutionService(
        root,
        key_functions=[first_token_key("name")],
        comparator=default_product_comparator(),
        classifier=ThresholdClassifier(0.72),
        refresh_blocker=StandardBlocker(first_token_key("name")),
        source_accuracies={"retail": 0.9, "feed": 0.8, "scraper": 0.6},
        resilience=resilience,
        tracer=tracer,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write counters and final state to PATH",
    )
    parser.add_argument(
        "--doomed",
        metavar="STORE",
        help=argparse.SUPPRESS,  # internal: the sacrificial run
    )
    args = parser.parse_args()

    if args.doomed:
        # The sacrificial subprocess: the next ingest is durably
        # appended, then the process dies before linking it.
        service = build_service(
            args.doomed, doomed_at=service_log_length(args.doomed)
        )
        service.ingest(
            Record(
                "late/0",
                "late",
                {"name": "canon powershot a560", "zoom": "4x"},
            )
        )
        raise SystemExit("unreachable: the kill fault should have fired")

    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix="repro-serving-") as root:
        service = build_service(root, tracer=tracer)

        # 1. Ingest the live stream.
        records = build_records()
        for record in records:
            service.ingest(record)
        print(
            f"ingested:   {len(records)} records -> "
            f"{len(service.entities())} entities "
            f"(log fsynced per ingest)"
        )

        # 2. Query it.
        probe = Record("q/0", "q", {"name": "canon powershot a560"})
        entity_id = service.match(probe)
        entity = service.get(entity_id)
        print(f"match:      {probe.attributes['name']!r} -> {entity_id}")
        print(
            f"get:        members={list(entity.members)} "
            f"brand={entity.attributes['brand']!r} "
            f"(confidence {entity.confidence['brand']:.2f}, "
            f"claimed by {list(entity.provenance['brand'])})"
        )

        # 3. Refresh: batch re-resolution, atomic generation swap.
        before = service.snapshot()
        generation = service.refresh()
        assert service.snapshot()["entities"] == before["entities"]
        # Batch and live clusterings agree, so every entity is kept as
        # the live table holds it: the refresh fuses none.
        refused = tracer.metrics.counter("serve.refresh_refused").value
        assert refused == 0, refused
        print(
            f"refresh:    generation {generation} published "
            "(batch == incremental, swap atomic, cache invalidated "
            f"by construction, {refused:g} entities re-fused)"
        )

        # 4. Murder a resumed deployment mid-ingest.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH", "")])
        )
        process = subprocess.run(
            [sys.executable, __file__, "--doomed", root],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        assert process.returncode == KILL_EXIT_CODE, process.returncode
        print(
            f"killed:     os._exit({KILL_EXIT_CODE}) mid-ingest — the "
            "record was acknowledged (fsynced) but never linked"
        )

        # 5. Restart: the log tail replays through the same
        # incremental path; the orphaned ingest is served.
        restarted = build_service(root, tracer=tracer)
        late_entity = restarted.match(
            Record("q/1", "q", {"name": "canon powershot a560"})
        )
        members = restarted.get(late_entity).members
        assert "late/0" in members, members
        assert restarted.generation == generation
        print(
            f"restarted:  generation {generation} reloaded, log tail "
            f"replayed -> {late_entity} now serves "
            f"members={list(members)}"
        )

        counters = {
            name: counter.value
            for name, counter in sorted(tracer.metrics._counters.items())
            if name.startswith("serve.")
        }
        state = {
            "generation": restarted.generation,
            "log_length": restarted.store.log_length,
            "entities": len(restarted.entities()),
            "counters": counters,
        }
    for name, value in counters.items():
        print(f"  {name:30s} {value:g}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=2, sort_keys=True)
        print(f"\nwrote serving stats to {args.json}")


def service_log_length(root) -> int:
    """Log position the doomed ingest will land on (kill target)."""
    from repro.serve import EntityStore

    return EntityStore(root).log_length


if __name__ == "__main__":
    main()
