"""The serving layer: durable entity store, live query/ingest API,
generation-keyed caching, atomic refresh, and crash recovery.

Three contracts anchor this file:

1. **Durability** — an acknowledged ingest survives process death; a
   restarted service reconstructs the exact pre-crash projection
   (byte-identical store artifacts for completed generations). The
   real-kill version lives in ``TestServeKillRestart`` (``slow``,
   subprocess via ``tests/serve_driver.py``).
2. **Equivalence** — the incremental ingest path and the batch refresh
   path resolve to the same entities, so a refresh is invisible to
   correct readers.
3. **Atomicity** — concurrent readers always observe one consistent
   generation across a refresh swap.
"""

import copy
import json
import os
import subprocess
import sys
import threading
from unittest import mock

import pytest

from repro.core import Record
from repro.core.errors import ConfigurationError
from repro.linkage import (
    StandardBlocker,
    ThresholdClassifier,
    default_product_comparator,
    projection,
)
from repro.linkage.blocking import first_token_key
from repro.linkage.blocking.base import Blocker
from repro.linkage.comparison import FieldComparator, RecordComparator
from repro.obs import ManualClock, Tracer
from repro.resilience import ResilienceConfig
from repro.resilience.testing import FaultInjector, crash, kill
from repro.resilience.testing import KILL_EXIT_CODE
from repro.supervision import OverloadPolicy
from repro.text.similarity import jaccard_similarity
from repro.serve import (
    MISS,
    EntityStore,
    GenerationCache,
    ResolutionService,
    TrafficConfig,
    run_traffic,
)
from tests.serve_driver import build_records

DRIVER = os.path.join(os.path.dirname(__file__), "serve_driver.py")


def make_service(root, tracer=None, resilience=None, accuracies=None):
    return ResolutionService(
        root,
        key_functions=[first_token_key("name")],
        comparator=default_product_comparator(),
        classifier=ThresholdClassifier(0.72),
        refresh_blocker=StandardBlocker(first_token_key("name")),
        source_accuracies=accuracies,
        resilience=resilience,
        tracer=tracer,
        durable=False,
    )


def camera(record_id, source, name, **extra):
    return Record(record_id, source, {"name": name, **extra})


class TestEntityStore:
    def test_append_and_replay_round_trip(self, tmp_path):
        store = EntityStore(tmp_path, durable=False)
        records = build_records(5)
        for index, record in enumerate(records):
            assert store.append_record(record) == index
        assert store.log_length == 5
        replayed = list(store.records_from(0))
        assert replayed == records
        assert list(store.records_from(3)) == records[3:]
        assert list(store.records_from(1, 3)) == records[1:3]

    def test_reopen_counts_existing_log(self, tmp_path):
        store = EntityStore(tmp_path, durable=False)
        for record in build_records(4):
            store.append_record(record)
        again = EntityStore(tmp_path, durable=False)
        assert again.log_length == 4

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        store = EntityStore(tmp_path, durable=False)
        for record in build_records(3):
            store.append_record(record)
        with store.log_path.open("a", encoding="utf-8") as handle:
            handle.write('{"record_id": "torn", "sou')  # no newline
        reopened = EntityStore(tmp_path, durable=False)
        assert reopened.log_length == 3
        # The repaired log is fully indexable again.
        indexed = reopened.open_record_store()
        assert len(indexed) == 3

    def test_indexed_record_store_over_log(self, tmp_path):
        store = EntityStore(tmp_path, durable=False)
        records = build_records(6)
        for record in records:
            store.append_record(record)
        indexed = store.open_record_store()
        assert indexed[records[4].record_id] == records[4]

    def test_generation_publish_cycle(self, tmp_path):
        store = EntityStore(tmp_path, durable=False)
        assert store.current_generation() is None
        entities = {"ent:a": {"members": ["a"], "attributes": {}}}
        store.save_generation(1, 3, entities)
        assert store.current_generation() is None  # saved != published
        store.publish_generation(1)
        assert store.current_generation() == 1
        assert store.load_generation(1)["entities"] == entities
        assert store.load_generation(1)["watermark"] == 3

    def test_publish_unknown_generation_refused(self, tmp_path):
        store = EntityStore(tmp_path, durable=False)
        with pytest.raises(ConfigurationError):
            store.publish_generation(7)
        # A damaged artifact is refused too, by its checksum.
        store.save_generation(8, 0, {"ent:a": {"members": ["a"]}})
        (artifact,) = (tmp_path / "artifacts").glob("serve.generation.8-*")
        raw = artifact.read_bytes()
        artifact.write_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))
        with pytest.raises(ConfigurationError):
            store.publish_generation(8)
        assert store.current_generation() is None

    def test_generation_bytes_canonical(self, tmp_path):
        left = EntityStore(tmp_path / "a", durable=False)
        right = EntityStore(tmp_path / "b", durable=False)
        entities = {"ent:a": {"members": ["a", "b"], "attributes": {"x": "1"}}}
        left.save_generation(2, 5, entities)
        right.save_generation(2, 5, entities)
        assert left.generation_bytes(2) == right.generation_bytes(2)
        assert left.generation_bytes(99) is None


class TestGenerationCache:
    def test_miss_is_distinguishable_from_cached_none(self):
        cache = GenerationCache(capacity=4)
        assert cache.get((0, 0), "k") is MISS
        cache.put((0, 0), "k", None)
        assert cache.get((0, 0), "k") is None

    def test_version_change_invalidates_by_construction(self):
        cache = GenerationCache(capacity=4)
        cache.put((0, 0), "k", "old")
        assert cache.get((0, 1), "k") is MISS  # ingest bumped mutations
        assert cache.get((1, 0), "k") is MISS  # refresh swapped generation
        assert cache.get((0, 0), "k") == "old"

    def test_lru_eviction(self):
        cache = GenerationCache(capacity=2)
        cache.put((0, 0), "a", 1)
        cache.put((0, 0), "b", 2)
        cache.get((0, 0), "a")  # refresh a; b is now oldest
        cache.put((0, 0), "c", 3)
        assert cache.get((0, 0), "b") is MISS
        assert cache.get((0, 0), "a") == 1
        assert len(cache) == 2

    def test_counters(self):
        tracer = Tracer()
        cache = GenerationCache(capacity=2, tracer=tracer)
        cache.get((0, 0), "k")
        cache.put((0, 0), "k", 1)
        cache.get((0, 0), "k")
        counters = tracer.metrics
        assert counters.counter("serve.cache_hits").value == 1
        assert counters.counter("serve.cache_misses").value == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            GenerationCache(capacity=0)


class TestResolutionService:
    def test_ingest_match_get_entities(self, tmp_path):
        service = make_service(tmp_path)
        a = service.ingest(camera("s1/1", "s1", "canon a560", brand="canon"))
        b = service.ingest(camera("s2/1", "s2", "canon a560", brand="cannon"))
        c = service.ingest(camera("s1/2", "s1", "nikon p50", brand="nikon"))
        assert a.entity_id == b.entity_id == "ent:s1/1"
        assert b.matched_entities == ("ent:s1/1",)
        assert c.entity_id == "ent:s1/2"

        assert service.match(camera("q/1", "q", "canon a560")) == "ent:s1/1"
        assert service.match(camera("q/2", "q", "panasonic lumix")) is None

        entity = service.get("ent:s1/1")
        assert entity.members == ("s1/1", "s2/1")
        assert entity.attributes["name"] == "canon a560"
        # s1 (accuracy default) claimed "canon", s2 "cannon" — whichever
        # wins, provenance points at the records that claimed it.
        winner = entity.attributes["brand"]
        assert set(entity.provenance["brand"]) <= {"s1/1", "s2/1"}
        assert all(
            service.store.open_record_store()[rid].attributes["brand"]
            == winner
            for rid in entity.provenance["brand"]
        )
        assert 0.0 <= entity.confidence["brand"] <= 1.0

        listed = service.entities()
        assert [e.entity_id for e in listed] == ["ent:s1/1", "ent:s1/2"]
        assert service.get("ent:nope") is None

    def test_fusion_prefers_accurate_source(self, tmp_path):
        service = make_service(
            tmp_path, accuracies={"good": 0.95, "bad": 0.55}
        )
        service.ingest(camera("bad/1", "bad", "canon a560", zoom="9x"))
        service.ingest(camera("good/1", "good", "canon a560", zoom="4x"))
        entity = service.get("ent:bad/1")
        assert entity.attributes["zoom"] == "4x"
        assert entity.provenance["zoom"] == ("good/1",)

    def test_duplicate_ingest_rejected(self, tmp_path):
        service = make_service(tmp_path)
        service.ingest(camera("a", "s", "canon a560"))
        with pytest.raises(ConfigurationError):
            service.ingest(camera("a", "s", "canon a560"))

    def test_restart_replays_unpublished_log(self, tmp_path):
        service = make_service(tmp_path)
        for record in build_records(9):
            service.ingest(record)
        before = service.snapshot()
        reopened = make_service(tmp_path)
        assert reopened.snapshot() == before

    def test_restart_from_published_generation(self, tmp_path):
        tracer = Tracer()
        service = make_service(tmp_path)
        records = build_records(12)
        for record in records[:8]:
            service.ingest(record)
        service.refresh()
        for record in records[8:]:
            service.ingest(record)
        before = service.snapshot()
        reopened = ResolutionService(
            tmp_path,
            key_functions=[first_token_key("name")],
            comparator=default_product_comparator(),
            classifier=ThresholdClassifier(0.72),
            tracer=tracer,
            durable=False,
        )
        assert reopened.snapshot() == before
        assert reopened.generation == 1
        # Only the post-watermark tail was replayed, not the whole log.
        assert tracer.metrics.counter("serve.replayed_records").value == 4

    def test_checkpoint_shrinks_replay(self, tmp_path):
        service = make_service(tmp_path)
        for record in build_records(6):
            service.ingest(record)
        service.checkpoint()
        tracer = Tracer()
        reopened = make_service(tmp_path, tracer=tracer)
        assert reopened.snapshot() == service.snapshot()
        assert tracer.metrics.counter("serve.replayed_records").value == 0

    def test_refresh_is_equivalent_and_durable(self, tmp_path):
        tracer = Tracer()
        service = make_service(tmp_path, tracer=tracer)
        for record in build_records(12):
            service.ingest(record)
        before = service.snapshot()
        number = service.refresh()
        assert number == 1
        after = service.snapshot()
        assert after["generation"] == 1
        # Batch re-resolution decides the same entities as the
        # incremental path did.
        assert after["entities"] == before["entities"]
        assert service.store.current_generation() == 1
        assert tracer.metrics.counter("serve.generation_swaps").value == 1

    def test_refreshes_keep_one_generation_on_disk(self, tmp_path):
        """Only the generation ``current`` names is ever loaded: each
        publish deletes the ones it supersedes and writes no ledger."""
        service = make_service(tmp_path)
        for record in build_records(30):
            service.ingest(record)
        for __ in range(5):
            service.refresh()
            service.checkpoint()
        run_store = service.store.run_store
        assert [
            key for key in run_store.keys() if ".generation." in key
        ] == ["serve.generation.5"]
        assert run_store.completed_stages() == ()
        assert make_service(tmp_path).snapshot() == service.snapshot()

    def test_refresh_requires_blocker(self, tmp_path):
        service = ResolutionService(
            tmp_path,
            key_functions=[first_token_key("name")],
            comparator=default_product_comparator(),
            classifier=ThresholdClassifier(0.72),
            durable=False,
        )
        with pytest.raises(ConfigurationError):
            service.refresh()

    def test_cache_hits_and_ingest_invalidation(self, tmp_path):
        tracer = Tracer()
        service = make_service(tmp_path, tracer=tracer)
        service.ingest(camera("a", "s", "canon a560"))
        counters = tracer.metrics
        service.get("ent:a")
        service.get("ent:a")
        assert counters.counter("serve.cache_hits").value == 1
        # An ingest bumps the generation stamp: previously cached reads
        # are unreachable, the next read recomputes.
        service.ingest(camera("b", "s2", "canon a560"))
        hits = counters.counter("serve.cache_hits").value
        service.get("ent:a")
        assert counters.counter("serve.cache_hits").value == hits

    def test_match_caches_under_generation_stamp(self, tmp_path):
        tracer = Tracer()
        service = make_service(tmp_path, tracer=tracer)
        service.ingest(camera("a", "s", "canon a560"))
        probe = camera("q", "q", "canon a560")
        assert service.match(probe) == "ent:a"
        assert service.match(probe) == "ent:a"
        assert tracer.metrics.counter("serve.cache_hits").value == 1
        assert tracer.metrics.counter("serve.queries").value == 2

    def test_skip_policy_quarantines_and_refresh_reconciles(
        self, tmp_path, resilience_config
    ):
        tracer = Tracer()
        # The record at log position 1 fails linking on every attempt.
        config = resilience_config(
            failure="skip", max_attempts=2, injector=FaultInjector(crash(chunk=1))
        )
        service = make_service(tmp_path, tracer=tracer, resilience=config)
        service.ingest(camera("a", "s1", "canon a560"))
        result = service.ingest(camera("b", "s2", "canon a560"))
        assert result.quarantined
        assert result.entity_id is None
        assert result.position == 1
        [entry] = service.dead_letters.entries
        assert entry.scope == "serve.ingest"
        assert entry.items == ("b",)
        assert tracer.metrics.counter("serve.quarantined_ingests").value == 1
        # Quarantined-but-durable: invisible to reads now...
        assert service.get("ent:a").members == ("a",)
        assert service.store.log_length == 2
        # ...and reconciled by the next batch refresh, which re-reads
        # the full log.
        service.refresh()
        assert service.get("ent:a").members == ("a", "b")

    def test_checkpoint_does_not_strand_a_quarantined_ingest(
        self, tmp_path, resilience_config
    ):
        """Quarantine -> checkpoint -> restart: the watermark has moved
        past the quarantined record, so the restart must replay it (no
        saved entity contains it) rather than index it entity-less."""
        records = build_records(9)
        clean = make_service(tmp_path / "clean")
        for record in records:
            clean.ingest(record)
        config = resilience_config(
            failure="skip", max_attempts=2, injector=FaultInjector(crash(chunk=1))
        )
        service = make_service(tmp_path / "faulted", resilience=config)
        results = [service.ingest(record) for record in records]
        assert [r.quarantined for r in results] == [False, True] + [False] * 7
        service.checkpoint()
        tracer = Tracer()
        reopened = make_service(tmp_path / "faulted", tracer=tracer)
        quarantined = records[1].record_id
        assert any(
            quarantined in entity.members for entity in reopened.entities()
        )
        assert reopened.snapshot() == clean.snapshot()
        assert tracer.metrics.counter("serve.replayed_records").value == 1
        # ... and a checkpoint of the reconciled state sticks.
        reopened.checkpoint()
        assert make_service(tmp_path / "faulted").snapshot() == clean.snapshot()

    def test_reingest_of_a_quarantined_id_is_refused(
        self, tmp_path, resilience_config
    ):
        """The quarantined row is still in the log, unlinked: a second
        row for the id would make every later refresh fail."""
        config = resilience_config(
            failure="skip", max_attempts=2, injector=FaultInjector(crash(chunk=1))
        )
        service = make_service(tmp_path, resilience=config)
        service.ingest(camera("a", "s1", "canon a560"))
        assert service.ingest(camera("b", "s2", "canon a560")).quarantined
        with pytest.raises(ConfigurationError, match="already ingested"):
            service.ingest(camera("b", "s2", "canon a560"))
        assert service.store.log_length == 2
        reopened = make_service(tmp_path).snapshot()["entities"]
        service.refresh()
        assert service.snapshot()["entities"] == reopened
        assert make_service(tmp_path).snapshot()["entities"] == reopened
        assert service.get("ent:a").members == ("a", "b")

    def test_a_log_holding_an_id_twice_refreshes_from_its_last_row(
        self, tmp_path
    ):
        """A store that took such a re-ingest: refresh and reopen both
        build from the id's last row, as restart replay always did."""
        service = make_service(tmp_path)
        service.ingest(camera("a", "s1", "canon a560"))
        service.ingest(camera("b", "s2", "canon a560"))
        service.store.append_record(camera("b", "s2", "canon a560", zoom="4x"))
        replayed = make_service(tmp_path)
        before = replayed.snapshot()["entities"]
        assert replayed.get("ent:a").attributes["zoom"] == "4x"
        assert replayed.refresh() == 1
        assert replayed.snapshot()["entities"] == before
        assert make_service(tmp_path).snapshot()["entities"] == before

    def test_retry_policy_recovers_transient_ingest_faults(
        self, tmp_path, resilience_config
    ):
        config = resilience_config(
            failure="retry",
            max_attempts=3,
            injector=FaultInjector(crash(chunk=1, attempts=1)),
        )
        service = make_service(tmp_path, resilience=config)
        service.ingest(camera("a", "s1", "canon a560"))
        result = service.ingest(camera("b", "s2", "canon a560"))
        assert not result.quarantined
        assert result.entity_id == "ent:a"
        # The retry consumed backoff on the injected clock.
        assert config.clock.now() > 0.0

    def test_ingest_retried_after_a_partial_link_lands_the_same_snapshot(
        self, tmp_path, resilience_config
    ):
        """The comparator fails after the arriving record has already
        matched two separate entities. The retry withdraws the record
        and relinks it; no merge of the failed attempt may outlive it,
        or the linker would call the two entities one (and decide them
        once) while the table still holds two."""

        class FlakyComparator(RecordComparator):
            calls = 0

            def decide(self, *args, **kwargs):
                self.calls += 1
                if self.calls == 6:  # d's third candidate, first attempt
                    raise RuntimeError("similarity backend hiccup")
                return super().decide(*args, **kwargs)

        fields = [FieldComparator("name", jaccard_similarity)]
        steady, hiccuping = RecordComparator(fields), FlakyComparator(fields)

        def service(root, comparator, resilience=None):
            return ResolutionService(
                root,
                key_functions=[first_token_key("name")],
                comparator=comparator,
                classifier=ThresholdClassifier(0.5),
                resilience=resilience,
                durable=False,
            )

        records = [
            camera("a", "s1", "acme x0 x1 x2"),
            camera("b", "s2", "acme x2 x3 x4"),
            camera("c", "s3", "acme y0 y1 y2"),
            camera("d", "s4", "acme x1 x2 x3"),  # matches a and b, not c
        ]
        clean = service(tmp_path / "clean", steady)
        flaky = service(
            tmp_path / "flaky",
            hiccuping,
            resilience_config(failure="retry", max_attempts=2),
        )
        for record in records:
            expected, result = clean.ingest(record), flaky.ingest(record)
            assert result == expected
        assert hiccuping.calls == 6 + 3  # the failed attempt, then the retry
        assert result.matched_entities == ("ent:a", "ent:b")
        assert flaky.snapshot() == clean.snapshot()
        assert flaky.get("ent:a").members == ("a", "b", "d")

    def test_concurrent_readers_see_consistent_generations(self, tmp_path):
        tracer = Tracer()
        service = make_service(tmp_path, tracer=tracer)
        records = build_records(30)
        for record in records[:10]:
            service.ingest(record)

        errors: list[str] = []
        seen_generations: list[int] = []
        stop = threading.Event()

        def reader():
            last_generation = -1
            while not stop.is_set():
                snapshot = service.snapshot()
                generation = snapshot["generation"]
                if generation < last_generation:
                    errors.append(
                        f"generation went backwards: {last_generation} "
                        f"-> {generation}"
                    )
                last_generation = generation
                seen_generations.append(generation)
                members_seen: set[str] = set()
                for entity_id, entity in snapshot["entities"].items():
                    if min(entity["members"]) != entity_id[4:]:
                        errors.append(
                            f"{entity_id} inconsistent with members "
                            f"{entity['members']}"
                        )
                    overlap = members_seen.intersection(entity["members"])
                    if overlap:
                        errors.append(f"member in two entities: {overlap}")
                    members_seen.update(entity["members"])

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            cursor = 10
            for _ in range(3):
                refresh = service.refresh_async()
                while cursor < len(records) and refresh.is_alive():
                    service.ingest(records[cursor])
                    cursor += 1
                refresh.join(timeout=60)
                assert not refresh.is_alive()
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not errors, errors[:3]
        assert tracer.metrics.counter("serve.generation_swaps").value == 3
        assert max(seen_generations, default=0) <= 3

    def test_fingerprint_guards_store_identity(self, tmp_path):
        from repro.recovery import CheckpointMismatchError

        def service(threshold):
            return ResolutionService(
                tmp_path,
                key_functions=[first_token_key("name")],
                comparator=default_product_comparator(),
                classifier=ThresholdClassifier(threshold),
                durable=False,
            )

        service(0.72).ingest(camera("a", "s", "canon a560"))
        with pytest.raises(CheckpointMismatchError):
            service(0.5)
        assert service(0.72).get("ent:a").members == ("a",)


def _fusions():
    """Count entity fusions while the block runs."""
    return mock.patch.object(
        projection, "_fuse_sorted", wraps=projection._fuse_sorted
    )


def _disputed(tag):
    """Two sources naming one camera with different colours."""
    return [
        camera(f"a/{tag}", "a", f"canon a{tag}", color="white"),
        camera(f"b/{tag}", "b", f"canon a{tag}", color="black"),
    ]


WHITE = {"a": 0.9, "b": 0.6}
BLACK = {"a": 0.6, "b": 0.9}


class TestLiveTable:
    """The table is served as it is kept: a snapshot shares its entries,
    and a refresh re-fuses only the entities it may not keep."""

    def test_snapshot_keeps_what_it_saw(self, tmp_path):
        records = build_records(15)
        service = make_service(tmp_path)
        for record in records[:9]:
            service.ingest(record)
        snapshot = service.snapshot()
        copied = copy.deepcopy(snapshot)
        for record in records[9:12]:
            service.ingest(record)
        service.match(records[0])
        service.refresh()
        service.set_source_accuracies({"s0": 0.95, "s1": 0.7, "s2": 0.55})
        service.checkpoint()
        reopened = make_service(tmp_path)
        for record in records[12:]:
            reopened.ingest(record)
        reopened.refresh()
        assert snapshot == copied

    def test_refresh_keeps_an_unmoved_table(self, tmp_path):
        tracer = Tracer()
        service = make_service(tmp_path, tracer=tracer)
        for record in build_records(12):
            service.ingest(record)
        before = service.snapshot()["entities"]
        with _fusions() as fused:
            service.refresh()
        assert fused.call_count == 0
        assert tracer.metrics.counter("serve.refresh_refused").value == 0
        after = service.snapshot()["entities"]
        assert after == before
        assert all(after[eid] is entry for eid, entry in before.items())

    def test_refresh_refuses_what_a_restart_adopted(self, tmp_path):
        records = _disputed(1) + _disputed(2)
        service = make_service(tmp_path / "live", accuracies=WHITE)
        for record in records:
            service.ingest(record)
        service.checkpoint()
        tracer = Tracer()
        restarted = make_service(
            tmp_path / "live", tracer=tracer, accuracies=BLACK
        )
        # Adopted as saved: fused under the other process's accuracies.
        assert restarted.get("ent:a/1").attributes["color"] == "white"
        with _fusions() as fused:
            restarted.refresh()
        assert fused.call_count == 2
        assert tracer.metrics.counter("serve.refresh_refused").value == 2
        assert restarted.get("ent:a/1").attributes["color"] == "black"
        reference = make_service(tmp_path / "reference", accuracies=BLACK)
        for record in records:
            reference.ingest(record)
        assert (
            restarted.snapshot()["entities"]
            == reference.snapshot()["entities"]
        )

    def test_an_accuracy_push_during_a_refresh_is_kept(self, tmp_path):
        service = make_service(tmp_path, accuracies=WHITE)
        for record in _disputed(1):
            service.ingest(record)
        assert service.get("ent:a/1").attributes["color"] == "white"
        rebuild = projection.EntityProjection.rebuild

        def rebuild_then_push(self, *args, **kwargs):
            fused = rebuild(self, *args, **kwargs)
            service.set_source_accuracies(BLACK)
            return fused

        with mock.patch.object(
            projection.EntityProjection, "rebuild", rebuild_then_push
        ):
            service.refresh()
        assert service.get("ent:a/1").attributes["color"] == "black"
        assert make_service(tmp_path, accuracies=BLACK).snapshot() == (
            service.snapshot()
        )

    def test_refreshes_racing_ingests_keep_only_current_entries(
        self, tmp_path
    ):
        """Rebuilds read the live table while ingests rewrite it, after
        a restart under other accuracies: whatever interleaving, every
        entry left after a refresh is fused under the current view."""
        saved = [record for tag in range(1, 11) for record in _disputed(tag)]
        records = saved + build_records(30)
        service = make_service(tmp_path / "live", accuracies=WHITE)
        for record in saved:
            service.ingest(record)
        service.checkpoint()
        restarted = make_service(tmp_path / "live", accuracies=BLACK)
        errors: list[Exception] = []

        def ingest(share):
            try:
                for record in share:
                    restarted.ingest(record)
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        ingesters = [
            threading.Thread(target=ingest, args=(records[20 + i :: 3],))
            for i in range(3)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in ingesters:
                thread.start()
            refreshes = 0
            while refreshes < 2 or any(t.is_alive() for t in ingesters):
                restarted.refresh()
                refreshes += 1
            for thread in ingesters:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert not errors, errors[:1]
        reference = make_service(tmp_path / "reference", accuracies=BLACK)
        for record in records:
            reference.ingest(record)
        assert (
            restarted.snapshot()["entities"]
            == reference.snapshot()["entities"]
        )


class TestServeTraffic:
    def test_deterministic_workload(self, tmp_path):
        pool = build_records(20)
        first = run_traffic(
            make_service(tmp_path / "a"), pool, TrafficConfig(n_ops=80, seed=5)
        )
        second = run_traffic(
            make_service(tmp_path / "b"), pool, TrafficConfig(n_ops=80, seed=5)
        )
        assert first.ingested == second.ingested
        assert first.matches_found == second.matches_found
        assert {
            kind: len(samples) for kind, samples in first.latencies.items()
        } == {
            kind: len(samples) for kind, samples in second.latencies.items()
        }
        summary = first.summary()
        assert summary["ops"] == first.n_ops
        assert summary["query_p99_ms"] >= summary["query_p50_ms"] >= 0.0

    def test_fractions_validated(self):
        with pytest.raises(ConfigurationError):
            TrafficConfig(n_ops=0)
        with pytest.raises(ConfigurationError):
            TrafficConfig(ingest_fraction=0.8, get_fraction=0.5)


def _run_driver(*args, expect=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(
            None,
            [
                os.path.join(os.path.dirname(DRIVER), "..", "src"),
                env.get("PYTHONPATH", ""),
            ],
        )
    )
    process = subprocess.run(
        [sys.executable, DRIVER, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert process.returncode == expect, (
        f"driver {args} exited {process.returncode}, expected {expect}\n"
        f"stderr: {process.stderr}"
    )
    return process.stdout


@pytest.mark.slow
class TestServeKillRestart:
    """The acceptance contract: murder the serving process mid-ingest,
    restart it, and it serves exactly what an unkilled deployment
    serves — byte-identical artifacts for completed generations."""

    def test_kill_mid_ingest_restart_serves_same_entities(self, tmp_path):
        # The doomed run: refresh (durable generation 1) after 12
        # ingests, die at log position 18 — after the durable append,
        # before linking.
        _run_driver(
            str(tmp_path / "killed"),
            "--n",
            "24",
            "--refresh-at",
            "12",
            "--kill-at",
            "18",
            expect=KILL_EXIT_CODE,
        )
        # The reference deployment ingests exactly the records the
        # doomed run acknowledged (positions 0..18), never dying.
        reference = json.loads(
            _run_driver(
                str(tmp_path / "reference"),
                "--n",
                "19",
                "--refresh-at",
                "12",
            )
        )
        restarted = json.loads(
            _run_driver(str(tmp_path / "killed"), "--report")
        )
        assert restarted["log_length"] == 19
        assert restarted["generation"] == 1
        assert restarted["snapshot"] == reference["snapshot"]
        # Completed generations are byte-identical across deployments.
        assert restarted["generation_sha"] == reference["generation_sha"]
        assert restarted["generation_sha"] is not None

    def test_kill_before_any_generation(self, tmp_path):
        _run_driver(
            str(tmp_path / "killed"),
            "--n",
            "10",
            "--kill-at",
            "6",
            expect=KILL_EXIT_CODE,
        )
        reference = json.loads(
            _run_driver(str(tmp_path / "reference"), "--n", "7")
        )
        restarted = json.loads(
            _run_driver(str(tmp_path / "killed"), "--report")
        )
        assert restarted["snapshot"]["entities"] == (
            reference["snapshot"]["entities"]
        )


class _FlakyRefreshBlocker(Blocker):
    """A batch blocker that fails its first ``failures`` calls."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self._inner = StandardBlocker(first_token_key("name"))

    def block(self, records):
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("injected refresh failure")
        return self._inner.block(records)


class TestDegradedRefreshRace:
    """Concurrent ingest + failing background refreshes.

    The satellite contract: while the breaker is open because
    ``refresh_async`` keeps failing, readers never observe a torn or
    advanced generation, concurrent writes are shed into the
    dead-letter log (not the durable record log), and one successful
    refresh re-arms the whole service.
    """

    def test_readers_stay_consistent_while_breaker_open(self, tmp_path):
        clock = ManualClock(start=0.0, tick=0.0)
        blocker = _FlakyRefreshBlocker(failures=3)
        tracer = Tracer()
        service = ResolutionService(
            tmp_path,
            key_functions=[first_token_key("name")],
            comparator=default_product_comparator(),
            classifier=ThresholdClassifier(0.72),
            refresh_blocker=blocker,
            tracer=tracer,
            durable=False,
            resilience=ResilienceConfig(failure="fail", clock=clock),
            overload=OverloadPolicy(
                max_pending_writes=8,
                failure_threshold=1,
                reset_timeout=1e9,
                shed="dead_letter",
            ),
        )
        for record in build_records(4):
            assert not service.ingest(record).quarantined
        baseline = service.snapshot()

        stop = threading.Event()
        torn: list = []

        def reader() -> None:
            while not stop.is_set():
                snap = service.snapshot()
                if snap != baseline:
                    torn.append(snap)
                probe = service.health()
                if probe["generation"] != baseline["generation"]:
                    torn.append(probe)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            # Three background refreshes fail; the first opens the
            # breaker (threshold 1, effectively-infinite window).
            for _ in range(3):
                service.refresh_async().join()
            assert service.health()["status"] == "degraded"
            # Concurrent writes while degraded: all shed, none appended.
            shed_results: list = []
            writers = [
                threading.Thread(
                    target=lambda i=i: shed_results.append(
                        service.ingest(
                            Record(f"w{i}", "s9", {"name": f"flood {i}"})
                        )
                    ),
                )
                for i in range(6)
            ]
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join()
        finally:
            stop.set()
            for thread in readers:
                thread.join()

        assert torn == []
        assert len(shed_results) == 6
        assert all(result.shed for result in shed_results)
        assert service.store.log_length == 4
        assert len(service.dead_letters.by_kind("overload")) == 6
        health = service.health()
        assert health["status"] == "degraded"
        assert health["last_refresh_error"].startswith("RuntimeError")
        counters = tracer.report().metrics["counters"]
        assert counters["serve.refresh_failures"] == 3

        # Recovery: the dependency healed, and a successful refresh is
        # the automatic re-arm path -- no breaker window wait needed.
        assert service.refresh() == 1
        health = service.health()
        assert health["status"] == "ok"
        assert health["breaker"] == "closed"
        assert health["last_refresh_error"] is None
        accepted = service.ingest(Record("w9", "s9", {"name": "flood 9"}))
        assert not accepted.quarantined and accepted.entity_id
