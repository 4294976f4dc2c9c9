"""serve_mixed: the live path, writes beside reads over one lock.

A closed loop with one client, because ``ResolutionService`` is an
in-process library whose callers wait for the reply. The flush policy
is the service's default: one fsync per ingest; every time here is read
from the benchmark's clock, which stands still during an fsync
(``refclock``). The script is: bulk ingest, seeded mixed ingest/match/get
traffic, ``refresh()``, ``checkpoint()``, then a reopen of the same root.
"""

from __future__ import annotations

import random
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.linkage import (
    IncrementalLinker,
    StandardBlocker,
    ThresholdClassifier,
    default_product_comparator,
)
from repro.linkage.blocking import first_token_key
from repro.quality import pairwise_cluster_quality
from repro.serve import (
    MISS,
    EntityStore,
    GenerationCache,
    ResolutionService,
    TrafficConfig,
    run_traffic,
)

import refclock
import wl_batch
from harness import canonical_sha256, tail
from refclock import clock

_TRAFFIC = dict(ingest_fraction=0.3, get_fraction=0.35)

#: The corpus is batch_link's family; ``bulk`` records are ingested first
#: and the rest feed the traffic's ingest side. The deployment is fixed:
#: one corpus arriving in one order, part of the workload's definition like
#: its size. The seed draws the traffic, the script of operations the
#: client sends. Operations per second differ 3.5-fold between corpora
#: (with how many sources keep the attribute name ``name`` that the
#: blocking key reads) and by up to 40% between arrival orders of one
#: corpus; between traffic scripts they differ by a few percent.
#: The mixed phase is long against the bulk phase: it is the live path.
_CORPUS = dict(corpus_seed=0, arrival_seed=0)
SIZES = {
    "serve_mixed": dict(
        corpus=dict(
            wl_batch.SIZES["batch_link"], entities=200, max_source_size=350,
            **_CORPUS,
        ),
        bulk=500, n_ops=4000,
    ),
}
SMOKE_SIZES = {
    "serve_mixed": dict(
        corpus=dict(
            wl_batch.SMOKE_SIZES["batch_link"], entities=40,
            max_source_size=60, **_CORPUS,
        ),
        bulk=100, n_ops=400,
    ),
}

MATCH_THRESHOLD = 0.72


def make_service(root) -> ResolutionService:
    return ResolutionService(
        root,
        key_functions=[first_token_key("name")],
        comparator=default_product_comparator(),
        classifier=ThresholdClassifier(MATCH_THRESHOLD),
        refresh_blocker=StandardBlocker(first_token_key("name")),
        durable=True,
    )


@dataclass
class Inputs:
    name: str
    records: list
    truth: object
    bulk: int
    n_ops: int
    seed: int
    root: tempfile.TemporaryDirectory
    service: ResolutionService
    sizes: dict
    digest: str
    generate_s: float


def setup(name: str, seed: int, sizes: dict) -> Inputs:
    started = clock()
    dataset = wl_batch.generate_corpus(sizes["corpus"])
    records = list(dataset.records())
    random.Random(sizes["corpus"]["arrival_seed"]).shuffle(records)
    generate_s = clock() - started
    root = tempfile.TemporaryDirectory(prefix="ledger-serve-")
    return Inputs(
        name=name,
        records=records,
        truth=dataset.ground_truth,
        bulk=sizes["bulk"],
        n_ops=sizes["n_ops"],
        seed=seed,
        root=root,
        service=make_service(root.name),
        sizes={
            "records": len(records),
            "sources": len(dataset),
            "bulk": sizes["bulk"],
            "ops": sizes["n_ops"],
        },
        digest=canonical_sha256(
            [wl_batch.records_digest(records), sizes["n_ops"], _TRAFFIC, seed]
        ),
        generate_s=generate_s,
    )


class Client:
    """The one client: forwards each call and counts what went wrong.

    A raised, refused, shed or quarantined operation counts as failed; the
    traffic driver gets a ``None``-like answer back and carries on, so one
    bad operation costs one sample and not the run.
    """

    class _Refused:
        entity_id = None

    def __init__(self, service: ResolutionService) -> None:
        self._service = service
        self.failed = 0
        self.first_error: str | None = None
        self.comparisons = 0

    def _fail(self, error) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = repr(error)

    def ingest(self, record):
        try:
            result = self._service.ingest(record)
        except Exception as error:  # noqa: BLE001 - the client's boundary
            self._fail(error)
            return self._Refused
        if result.quarantined or result.shed:
            self._fail("ingest quarantined or shed")
        self.comparisons += result.comparisons
        return result

    def match(self, record):
        try:
            return self._service.match(record)
        except Exception as error:  # noqa: BLE001 - the client's boundary
            self._fail(error)
            return None

    def get(self, entity_id):
        try:
            return self._service.get(entity_id)
        except Exception as error:  # noqa: BLE001 - the client's boundary
            self._fail(error)
            return None


@dataclass
class Output:
    phases: dict = field(default_factory=dict)
    latencies: dict = field(default_factory=dict)
    n_ops: int = 0
    failed: int = 0
    first_error: str | None = None
    comparisons: int = 0
    live: dict | None = None
    before: dict | None = None
    after: dict | None = None
    log_bytes: int = 0
    log_length: int = 0
    replayed: int = 0
    fsyncs: int = 0
    fsync_wait_s: float = 0.0


def script(inputs: Inputs, service: ResolutionService, reopen) -> Output:
    """Bulk ingest, mixed traffic, refresh, checkpoint, reopen."""
    out = Output()
    client = Client(service)
    fsyncs_before, waited_before = refclock.fsyncs()

    started = clock()
    for record in inputs.records[: inputs.bulk]:
        client.ingest(record)
    out.phases["bulk"] = clock() - started

    started = clock()
    traffic = run_traffic(
        client,
        inputs.records[inputs.bulk :],
        TrafficConfig(n_ops=inputs.n_ops, seed=inputs.seed, **_TRAFFIC),
        clock=clock,
    )
    out.phases["mixed"] = clock() - started
    out.latencies = traffic.latencies
    out.n_ops = traffic.n_ops

    out.live = service.snapshot()
    started = clock()
    service.refresh()
    out.phases["refresh"] = clock() - started
    started = clock()
    service.checkpoint()
    out.phases["checkpoint"] = clock() - started
    out.before = service.snapshot()
    store = service.store
    out.log_length = store.log_length
    out.log_bytes = store.log_path.stat().st_size
    published = store.load_generation(store.current_generation())
    out.replayed = store.log_length - published["watermark"]

    started = clock()
    reopened = reopen()
    out.phases["restart"] = clock() - started
    out.after = reopened.snapshot()
    fsyncs_after, waited_after = refclock.fsyncs()
    out.fsyncs = fsyncs_after - fsyncs_before
    out.fsync_wait_s = waited_after - waited_before
    out.failed = client.failed
    out.first_error = client.first_error
    out.comparisons = client.comparisons
    return out


def run(inputs: Inputs) -> Output:
    return script(
        inputs, inputs.service, lambda: make_service(inputs.root.name)
    )


def check(inputs: Inputs, out: Output, verify: bool) -> dict:
    """Every acknowledged write is served after the reopen, the live
    projection equals the batch re-resolution, and no operation failed."""
    failures: list[str] = []
    if out.failed:
        failures.append(f"{out.failed} operations failed: {out.first_error}")
    if out.before != out.after:
        failures.append("snapshot after the reopen differs from before it")
    # What the service promises: the incrementally maintained entities are
    # the ones a from-scratch batch resolution (refresh) arrives at.
    live, batch = out.live["entities"], out.before["entities"]
    agreement = sum(
        1 for entity_id, entity in live.items() if batch.get(entity_id) == entity
    ) / len(live)
    if agreement < 1.0 or len(live) != len(batch):
        failures.append(
            f"only {agreement:.4f} of the live entities survive refresh()"
        )
    ingested = out.log_length
    members = sorted(
        member
        for entity in out.after["entities"].values()
        for member in entity["members"]
    )
    acknowledged = sorted(
        record.record_id for record in inputs.records[:ingested]
    )
    if members != acknowledged:
        failures.append("served entities do not partition the ingested records")
    clusters = [
        entity["members"] for entity in out.after["entities"].values()
    ]
    linkage_f1 = pairwise_cluster_quality(
        clusters, inputs.truth.restricted_to(acknowledged)
    ).f1
    ingest_tail, __ = tail(out.latencies["ingest"])
    queries = out.latencies["match"] + out.latencies["get"]
    query_tail, __ = tail(queries)
    return {
        "failures": failures,
        # ... plus refresh, checkpoint and reopen; each raises if it fails.
        "ops_attempted": inputs.bulk + out.n_ops + 3,
        "ops_failed": out.failed,
        # The script's operations over the script's seconds. The mixed
        # phase alone is a quarter of a repetition, too short a stretch to
        # time steadily on this box; its rate, the bulk rate, refresh and
        # restart are reported on their own below.
        "items": inputs.bulk + out.n_ops + 3,
        "quality": agreement,
        "output_sha256": canonical_sha256(out.after["entities"]),
        "counts": {
            "ingested": ingested,
            "entities": len(out.after["entities"]),
            "comparisons": out.comparisons,
            "fsyncs": out.fsyncs,
            "ingest_samples": len(out.latencies["ingest"]),
            "query_samples": len(queries),
        },
        "layers": {
            "quality.linkage_f1": linkage_f1,
            "serve.bulk_records_per_s": inputs.bulk / out.phases["bulk"],
            "serve.mixed_ops_per_s": out.n_ops / out.phases["mixed"],
            "serve.ingest_p50_ms": 1e3
            * statistics.median(out.latencies["ingest"]),
            "serve.ingest_p99_ms": 1e3 * ingest_tail,
            "serve.query_p50_ms": 1e3 * statistics.median(queries),
            "serve.query_p99_ms": 1e3 * query_tail,
            "serve.refresh_s": out.phases["refresh"],
            "serve.checkpoint_s": out.phases["checkpoint"],
            "serve.restart_s": out.phases["restart"],
            # The disk, as measured: none of the times above holds it.
            "serve.fsyncs": out.fsyncs,
            "serve.fsync_wait_ms": 1e3 * out.fsync_wait_s / out.fsyncs,
            "serve.log_bytes_per_record": out.log_bytes / out.log_length,
            "serve.replayed_records": out.replayed,
            "incremental.comparisons": out.comparisons,
            "incremental.comparisons_per_record": out.comparisons / ingested,
        },
    }


# --- the traced pass -------------------------------------------------------


@contextmanager
def _counting_cache(counts: dict):
    """Count ``GenerationCache.get`` hits and misses while the block runs."""
    original = GenerationCache.get

    def counted(self, version, key):
        value = original(self, version, key)
        counts["miss" if value is MISS else "hit"] += 1
        return value

    GenerationCache.get = counted
    try:
        yield
    finally:
        GenerationCache.get = original


def trace(inputs: Inputs, plain: Output, rec) -> tuple[dict, list[str]]:
    failures: list[str] = []
    cache = {"hit": 0, "miss": 0}
    with tempfile.TemporaryDirectory(prefix="ledger-serve-") as root:
        service = make_service(root)
        for method in (
            "ingest", "match", "get", "refresh", "checkpoint", "snapshot",
        ):
            rec.wrap(ResolutionService, method, f"serve.{method}")
        rec.wrap(EntityStore, "append_record", "serve.store_append")
        rec.wrap(IncrementalLinker, "add_batch", "incremental.add_batch")
        rec.wrap(IncrementalLinker, "probe", "incremental.probe")

        def reopen():
            with rec.span("serve.restart"):
                return make_service(root)

        try:
            with _counting_cache(cache), rec.root():
                traced = script(inputs, service, reopen)
        finally:
            rec.restore()
    if traced.after != plain.after:
        failures.append("traced run's snapshot differs from the untraced run's")

    bulk = inputs.records[: inputs.bulk]
    linker = IncrementalLinker(
        [first_token_key("name")],
        default_product_comparator(),
        ThresholdClassifier(MATCH_THRESHOLD),
    )
    started = clock()
    for record in bulk:
        linker.add_batch([record])
    add_batch_s = clock() - started
    started = clock()
    for record in bulk:
        linker.probe(record)
    probe_s = clock() - started

    own = rec.self_times()
    layers = {
        "serve.store_append_s": rec.total("serve.store_append"),
        "serve.ingest_s_total": rec.total("serve.ingest"),
        "serve.match_s_total": rec.total("serve.match"),
        "serve.get_s_total": rec.total("serve.get"),
        "serve.fusion_residual_s": own["serve.ingest"],
        "serve.cache_hit_rate": cache["hit"] / (cache["hit"] + cache["miss"]),
        "incremental.add_batch_s": add_batch_s,
        "incremental.probe_s": probe_s,
    }
    return layers, failures
