"""The online entity-resolution service: query/ingest over a live store.

:class:`ResolutionService` is the projection layer of the
reconciliation pattern made user-facing. Four calls —

* ``ingest(record)`` — durably append the record, then fold it into
  the live :class:`~repro.linkage.projection.EntityProjection` — the
  incremental linker (never the batch pipeline) plus online re-fusion
  of the touched entity, the core shared with :mod:`repro.streaming`;
* ``match(record)`` — read-only: which entity would this record join?
* ``get(entity_id)`` — the resolved entity: members, fused attributes,
  provenance, confidence;
* ``entities()`` — every resolved entity.

Writes and reads share one lock, so every read observes a consistent
*generation*: the full linker + entity projection built from a single
prefix of the ingest log. A background :meth:`refresh` runs the full
batch pipeline into a *new* generation off-lock, replays the records
that arrived meanwhile, and swaps readers over atomically — both in
memory (one reference assignment under the lock) and on disk (the
:class:`~repro.serve.store.EntityStore`'s atomic ``current`` pointer).
The read-path cache is keyed by the generation stamp, so a swap or an
ingest invalidates it by construction rather than by bookkeeping.

Durability: an acknowledged ingest has been fsynced to the record log
*before* linking begins; a ``kill -9`` mid-ingest loses nothing that
was acknowledged. A restarted service reloads the published generation
artifact (byte-identical to what was saved) and replays the log suffix
through the same deterministic incremental path, reconstructing the
pre-crash projection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.linkage.blocking.base import Blocker, KeyFunction
from repro.linkage.comparison import RecordComparator
from repro.linkage.projection import DEFAULT_SOURCE_ACCURACY, EntityProjection
from repro.linkage.resolver import MatchClassifier, resolve
from repro.obs import NULL_TRACER, SystemClock
from repro.recovery import config_fingerprint
from repro.resilience import (
    ChunkResultInvalid,
    DeadLetterEntry,
    DeadLetterLog,
    DeadlineExceededError,
    ResilienceConfig,
    ResilientChunkExecutor,
)
from repro.serve.cache import MISS, GenerationCache
from repro.serve.store import EntityStore
from repro.supervision import AdmissionGate, CircuitBreaker, Overloaded, OverloadPolicy

__all__ = ["IngestResult", "ResolutionService", "ResolvedEntity"]

# Read-path LRU size (entries), keyed by generation stamp.
CACHE_CAPACITY = 1024

#: The most candidates an arriving record is compared with; part of the
#: linkage configuration a store is bound to.
MAX_CANDIDATES_PER_RECORD = 1000


@dataclass(frozen=True)
class ResolvedEntity:
    """One resolved entity as served by :meth:`ResolutionService.get`.

    ``provenance`` maps each fused attribute to the (sorted) member
    record ids that claimed the chosen value; ``confidence`` carries
    the fusion posterior per attribute. ``generation`` stamps which
    resolution generation produced this view.
    """

    entity_id: str
    members: tuple[str, ...]
    attributes: Mapping[str, str]
    confidence: Mapping[str, float]
    provenance: Mapping[str, tuple[str, ...]]
    generation: int


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one :meth:`ResolutionService.ingest` call.

    ``position`` is the record's durable log position (assigned before
    linking — it stands even if linking is quarantined). A quarantined
    ingest (``failure="skip"``) has ``entity_id=None`` and one
    ``scope="serve.ingest"`` dead letter, ``chunk_id`` = the position;
    the record is reconciled by the next refresh or restart replay, and
    its id refused until then. A *shed* ingest (degraded mode with
    ``shed="dead_letter"``) was never appended to the log at all —
    ``position`` is ``-1`` and the payload lives only in the
    dead-letter log, for replay once the service recovers.
    ``comparisons`` counts the match decisions linking made: one per
    candidate, except those in an entity the record had already matched.
    """

    record_id: str
    position: int
    entity_id: str | None
    comparisons: int = 0
    matched_entities: tuple[str, ...] = ()
    quarantined: bool = False
    shed: bool = False


def _last_rows(records: Iterable[Record]) -> list[Record]:
    """The last row per record id, in log order: what restart replay
    builds from a log that holds an id twice (written before re-ingests
    of a quarantined id were refused)."""
    latest: dict[str, Record] = {}
    for record in records:
        latest.pop(record.record_id, None)
        latest[record.record_id] = record
    return list(latest.values())


def _validate_link(items: list, value) -> None:
    if not isinstance(value, IngestResult):
        raise ChunkResultInvalid(
            f"linking {items[0]!r} returned {value!r:.80}"
        )


class _Generation(EntityProjection):
    """One consistent resolution state: the live projection (linker +
    entity table) plus the stamp readers and the cache see it under."""

    def __init__(self, number: int, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.number = number
        self.mutations = 0
        #: Logged ids whose linking raised or was quarantined.
        self.unlinked: set[str] = set()

    @property
    def version(self) -> tuple[int, int]:
        """The cache stamp: any swap or in-place write changes it."""
        return (self.number, self.mutations)


class ResolutionService:
    """Live entity-resolution serving over a durable :class:`EntityStore`.

    Parameters
    ----------
    root:
        Store directory. Reopening a directory resumes the deployment:
        the published generation is reloaded and the log suffix past
        its watermark replayed.
    key_functions, comparator, classifier:
        The incremental linkage machinery (identical semantics to the
        batch pipeline's blocking/comparison/classification), with at
        most :data:`MAX_CANDIDATES_PER_RECORD` candidates per arriving
        record. They are the deployment's linkage configuration, which
        the store is bound to: reopening a root under another one raises
        :class:`~repro.recovery.CheckpointMismatchError` instead of
        serving the other deployment's entities. Everything else —
        accuracies (runtime pushes), the refresh blocker (future
        refreshes only), resilience, overload, cache, durability,
        tracer — may change across a restart.
    refresh_blocker:
        Batch blocker used by :meth:`refresh`; required only if
        refreshes are requested.
    source_accuracies:
        Per-source accuracy estimates for fusion; unlisted sources get
        :data:`DEFAULT_SOURCE_ACCURACY`.
    resilience:
        The :class:`ResilienceConfig` every ingest links under, on the
        engine's :class:`~repro.resilience.ResilientChunkExecutor`
        (``None`` = ``failure="fail"``). It is the service's one source
        of a clock (breaker, dead letters, deadlines) and of the
        default deadline of :meth:`ingest` and :meth:`refresh`.
    durable:
        ``False`` skips fsyncs (benchmarks); atomicity is kept.
    overload:
        Optional :class:`repro.supervision.OverloadPolicy` turning on
        overload protection: a bounded admission gate on writes, a
        circuit breaker around ingest-side linking and refresh, and
        degraded-mode serving — reads keep answering from the last
        published generation while the breaker is open and writes are
        shed (rejected with :class:`~repro.supervision.Overloaded`, or
        dead-lettered under ``shed="dead_letter"``). The breaker
        re-arms automatically: after ``reset_timeout`` one trial write
        (or a successful :meth:`refresh`) closes it.
    """

    def __init__(
        self,
        root,
        key_functions: Sequence[KeyFunction],
        comparator: RecordComparator,
        classifier: MatchClassifier,
        refresh_blocker: Blocker | None = None,
        source_accuracies: Mapping[str, float] | None = None,
        resilience: ResilienceConfig | None = None,
        tracer=None,
        durable: bool = True,
        overload: OverloadPolicy | None = None,
    ) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._key_functions = tuple(key_functions)
        self._comparator = comparator
        self._classifier = classifier
        self._refresh_blocker = refresh_blocker
        self._source_accuracies = dict(source_accuracies or {})
        if resilience is None:
            resilience = ResilienceConfig(failure="fail")
        self._resilience = resilience
        self._clock = resilience.clock or SystemClock()
        self._executor = ResilientChunkExecutor(
            resilience, tracer=self._tracer, scope="serve.ingest"
        )
        self._store = EntityStore(root, tracer=self._tracer, durable=durable)
        self._store.run_store.bind_fingerprint(
            config_fingerprint(
                "serve",
                self._key_functions,
                comparator,
                classifier,
                MAX_CANDIDATES_PER_RECORD,
            )
        )
        self._cache = GenerationCache(CACHE_CAPACITY, tracer=self._tracer)
        self._lock = threading.RLock()
        self._dead_letters = DeadLetterLog(
            path=resilience.dead_letter_path,
            max_entries=resilience.dead_letter_max_entries,
        )
        if overload is not None and not isinstance(overload, OverloadPolicy):
            raise ConfigurationError(
                "overload must be an OverloadPolicy or None"
            )
        self._overload = overload
        self._gate: AdmissionGate | None = None
        self._breaker: CircuitBreaker | None = None
        self._last_refresh_error: str | None = None
        if overload is not None:
            self._gate = AdmissionGate(
                overload.max_pending_writes,
                retry_after=overload.admission_retry_after,
                tracer=self._tracer,
                name="serve",
            )
            self._breaker = CircuitBreaker(
                failure_threshold=overload.failure_threshold,
                reset_timeout=overload.reset_timeout,
                clock=self._clock,
                tracer=self._tracer,
                name="serve.breaker",
                on_state_change=self._on_breaker_state,
            )
            self._tracer.gauge("serve.degraded").set(0.0)
        self._generation = self._restore()

    # --- construction / recovery -------------------------------------

    def _accuracy_of(self, source_id: str) -> float:
        return self._source_accuracies.get(source_id, DEFAULT_SOURCE_ACCURACY)

    def _new_generation(self, number: int) -> _Generation:
        return _Generation(
            number,
            self._key_functions,
            self._comparator,
            self._classifier,
            self._accuracy_of,
            max_candidates_per_record=MAX_CANDIDATES_PER_RECORD,
        )

    def _restore(self) -> _Generation:
        """Rebuild the live generation from the store (crash-safe).

        The published generation artifact supplies the resolved state
        for the log prefix it covers (zero comparisons to reload); the
        rest of the log — the suffix past its watermark, and any prefix
        record no saved entity contains (an ingest quarantined before a
        :meth:`checkpoint`) — is replayed in log order through the
        normal incremental path — deterministic, so the projection
        equals the pre-crash one.
        """
        number = self._store.current_generation()
        generation = self._new_generation(number or 0)
        replay: list[Record] = []
        watermark = 0
        if number is not None:
            payload = self._store.load_generation(number)
            if payload is None:
                raise ConfigurationError(
                    f"published generation {number} is missing or damaged "
                    f"in store {str(self._store.root)!r}"
                )
            watermark = payload["watermark"]
            replay = generation.load(
                _last_rows(self._store.records_from(0, watermark)),
                payload["entities"],
            )
        replay.extend(self._store.records_from(watermark))
        for record in replay:
            self._link_record(generation, record)
        if replay:
            self._tracer.counter("serve.replayed_records").inc(len(replay))
        return generation

    # --- internals ----------------------------------------------------

    def _link_record(
        self, generation: _Generation, record: Record, position: int = -1
    ) -> IngestResult:
        """Fold one record into ``generation`` (linker + projection).

        The single write path: live ingests, restart replay, and
        refresh catch-up all come through here, which is what makes
        the three provably agree.
        """
        if record.record_id in generation.linker:
            # A retried attempt after a partial failure: withdraw the
            # previous attempt's index entries before relinking.
            generation.linker.remove(record.record_id)
        stats, (entity_id,), absorbed = generation.fold([record])
        generation.mutations += 1
        self._tracer.counter("serve.ingests").inc()
        self._tracer.counter("serve.ingest_comparisons").inc(
            stats.comparisons
        )
        self._tracer.counter("serve.ingest_matches").inc(stats.matches)
        return IngestResult(
            record_id=record.record_id,
            position=position,
            entity_id=entity_id,
            comparisons=stats.comparisons,
            matched_entities=absorbed,
        )

    def _on_breaker_state(self, old: str, new: str) -> None:
        """Mirror breaker transitions into the degraded-mode gauge."""
        self._tracer.gauge("serve.degraded").set(
            1.0 if new == "open" else 0.0
        )

    def _shed(self, record: Record) -> IngestResult:
        """Degraded mode: refuse (or dead-letter) one write.

        The record is *not* appended to the log — shedding exists to
        keep the ingest path's work off a struggling service entirely.
        Under ``shed="dead_letter"`` the payload is preserved in the
        dead-letter log for replay after recovery; under ``"reject"``
        the caller gets :class:`~repro.supervision.Overloaded` with the
        breaker's remaining open window as ``retry_after``.
        """
        assert self._breaker is not None and self._overload is not None
        retry_after = self._breaker.retry_after()
        self._tracer.counter("serve.shed").inc()
        self._tracer.counter("serve.shed_degraded").inc()
        if self._overload.shed == "dead_letter":
            self._dead_letters.add(
                DeadLetterEntry(
                    scope="serve.ingest.shed",
                    chunk_id=str(self._store.log_length),
                    kind="overload",
                    error_type="Overloaded",
                    error=(
                        f"breaker open; retry after {retry_after:.3f}s"
                    ),
                    attempts=0,
                    items=(record.record_id,),
                    quarantined_at=self._clock.now(),
                )
            )
            return IngestResult(
                record_id=record.record_id,
                position=-1,
                entity_id=None,
                quarantined=True,
                shed=True,
            )
        raise Overloaded(
            f"service degraded (breaker open); retry after "
            f"{retry_after:.3f}s",
            retry_after=retry_after,
        )

    def _link(
        self,
        generation: _Generation,
        record: Record,
        position: int,
        deadline: float | None,
    ) -> IngestResult:
        """Link one logged record as one chunk at its log position (a
        ``kill`` fault there is death after the durable append)."""
        try:
            outcome = self._executor.run_chunk(
                position,
                [record.record_id],
                lambda items, timeout: self._link_record(
                    generation, record, position
                ),
                _validate_link,
                deadline,
            )
        except DeadlineExceededError:
            self._tracer.counter("serve.deadline_exceeded").inc()
            raise
        if outcome.results:
            return outcome.results[0][1]
        # Already appended to the durable sink by the executor.
        self._dead_letters.restore(outcome.dead_letters)
        if outcome.dead_letters.by_kind("deadline"):
            self._tracer.counter("serve.deadline_exceeded").inc()
        self._tracer.counter("serve.quarantined_ingests").inc()
        return IngestResult(
            record_id=record.record_id,
            position=position,
            entity_id=None,
            quarantined=True,
        )

    # --- the serving API ---------------------------------------------

    @property
    def store(self) -> EntityStore:
        return self._store

    @property
    def dead_letters(self) -> DeadLetterLog:
        """Ingests quarantined under a ``failure="skip"`` policy."""
        return self._dead_letters

    @property
    def generation(self) -> int:
        """The generation number current reads are served from."""
        with self._lock:
            return self._generation.number

    def ingest(
        self, record: Record, deadline: float | None = None
    ) -> IngestResult:
        """Durably ingest one record and link it incrementally.

        The record is fsynced to the log *before* linking: once this
        method has appended, the record survives any crash (the restart
        replay relinks it). Linking fails as an engine chunk does:
        :class:`~repro.resilience.ChunkExecutionError` (chunk id = the
        log position, cause = the linking error) under ``"fail"``,
        :class:`~repro.resilience.PoisonPairError` when ``"retry"``
        runs out, :class:`DeadlineExceededError` when ``deadline``
        (seconds; default the config's) expires first; ``"skip"``
        quarantines (see :class:`IngestResult`). A logged id raises
        :class:`ConfigurationError`, linked or not.

        With an :class:`~repro.supervision.OverloadPolicy` configured,
        the write first passes the admission gate (raising
        :class:`~repro.supervision.Overloaded` when too many writes are
        already in flight) and then the circuit breaker: while the
        breaker is open the write is shed *before* the durable append
        (see :meth:`_shed`).
        """
        if self._gate is not None:
            self._gate.acquire()
        try:
            with self._lock:
                generation = self._generation
                if (
                    record.record_id in generation.linker
                    or record.record_id in generation.unlinked
                ):
                    raise ConfigurationError(
                        f"record {record.record_id!r} already ingested"
                    )
                if self._breaker is not None and not self._breaker.allow():
                    return self._shed(record)
                position = self._store.append_record(record)
                try:
                    result = self._link(generation, record, position, deadline)
                except Exception:
                    generation.unlinked.add(record.record_id)
                    if self._breaker is not None:
                        self._breaker.record_failure()
                    raise
                if result.quarantined:
                    generation.unlinked.add(record.record_id)
                    if self._breaker is not None:
                        self._breaker.record_failure()
                elif self._breaker is not None:
                    self._breaker.record_success()
                return result
        finally:
            if self._gate is not None:
                self._gate.release()

    def match(self, record: Record) -> str | None:
        """Which entity would ``record`` resolve to? (read-only)

        Probes the incremental linker without indexing anything;
        ``None`` means no indexed record matches. Results are cached
        under the generation stamp, so refreshes and ingests invalidate
        by construction.
        """
        with self._lock:
            generation = self._generation
            key = (
                "match",
                record.record_id,
                record.source_id,
                tuple(sorted(record.attributes.items())),
            )
            cached = self._cache.get(generation.version, key)
            self._tracer.counter("serve.queries").inc()
            if cached is not MISS:
                return cached
            probe = generation.linker.probe(record)
            entity_id = None
            for other_id, _ in probe.matches:
                entity_id = generation.entity_of.get(other_id)
                if entity_id is not None:
                    break
            self._cache.put(generation.version, key, entity_id)
            if entity_id is not None:
                self._tracer.counter("serve.matches_found").inc()
            return entity_id

    def get(self, entity_id: str) -> ResolvedEntity | None:
        """The resolved entity with this id, or ``None``."""
        with self._lock:
            generation = self._generation
            key = ("entity", entity_id)
            cached = self._cache.get(generation.version, key)
            self._tracer.counter("serve.queries").inc()
            if cached is not MISS:
                return cached
            resolved = None
            if entity_id in generation.entities:
                resolved = self._resolved(generation, entity_id)
            self._cache.put(generation.version, key, resolved)
            return resolved

    @staticmethod
    def _resolved(generation: _Generation, entity_id: str) -> ResolvedEntity:
        entity = generation.entities[entity_id]
        return ResolvedEntity(
            entity_id=entity_id,
            members=tuple(entity["members"]),
            attributes=dict(entity["attributes"]),
            confidence=dict(entity["confidence"]),
            provenance={
                attr: tuple(ids)
                for attr, ids in entity["provenance"].items()
            },
            generation=generation.number,
        )

    def entities(self) -> tuple[ResolvedEntity, ...]:
        """Every resolved entity, sorted by entity id."""
        with self._lock:
            generation = self._generation
            return tuple(
                self._resolved(generation, entity_id)
                for entity_id in sorted(generation.entities)
            )

    def snapshot(self) -> dict:
        """A canonical, JSON-able view of the current projection.

        Taken under the lock, so it is internally consistent (one
        generation); used by the equivalence and crash tests to compare
        whole services. The entity entries are shared with the live
        table and are read-only; a later write tables new entries, so a
        snapshot keeps what it saw.
        """
        with self._lock:
            generation = self._generation
            return {
                "generation": generation.number,
                "entities": generation.canonical(),
            }

    def set_source_accuracies(
        self, accuracies: Mapping[str, float]
    ) -> None:
        """Swap the per-source fusion accuracies and re-fuse in place.

        The drift-response hook: a streaming monitor that concludes a
        source's quality has shifted pushes the new estimates here, and
        every entity is re-fused under them within the *current*
        generation (membership is untouched — only fused values,
        confidence, and provenance move). The generation's mutation
        stamp is bumped, so read caches invalidate by construction.
        Follow with :meth:`refresh` when linkage itself is suspect.
        """
        for source, accuracy in accuracies.items():
            if not 0.0 < accuracy < 1.0:
                raise ConfigurationError(
                    f"accuracy for {source!r} must be in (0, 1)"
                )
        with self._lock:
            self._source_accuracies = dict(accuracies)
            self._generation.refuse_all()
            self._generation.mutations += 1
            self._tracer.counter("serve.accuracy_updates").inc()

    # --- background refresh ------------------------------------------

    def refresh(self, deadline: float | None = None) -> int:
        """Full batch re-resolution into a new generation; atomic swap.

        The expensive part — batch blocking/comparison/clustering over
        the log prefix — runs *without* the lock, so serving continues.
        Under the lock, records ingested meanwhile are replayed into
        the new generation through the normal incremental path, the
        generation is durably saved and published, and readers are
        swapped with a single reference assignment. Concurrent readers
        therefore always see either the old generation or the complete
        new one.

        ``deadline`` (seconds, default: the ``ResilienceConfig``'s, on
        its clock) propagates into the batch engine's deadline checks —
        a refresh that can't finish in budget aborts with
        :class:`DeadlineExceededError` instead of monopolizing the
        host. A failed refresh counts against the circuit breaker (and
        into ``serve.refresh_failures`` / :meth:`health`); a successful
        one records a breaker success, which is the automatic re-arm
        path after degraded mode.
        """
        if self._refresh_blocker is None:
            raise ConfigurationError(
                "refresh requires a refresh_blocker (the batch blocker "
                "to re-resolve with)"
            )
        try:
            number = self._refresh(
                self._resilience.deadline if deadline is None else deadline
            )
        except Exception as error:  # noqa: BLE001 - health boundary
            if self._breaker is not None:
                self._breaker.record_failure()
            self._tracer.counter("serve.refresh_failures").inc()
            self._last_refresh_error = f"{type(error).__name__}: {error}"
            raise
        if self._breaker is not None:
            self._breaker.record_success()
        self._last_refresh_error = None
        return number

    def _refresh(self, deadline: float | None) -> int:
        with self._lock:
            watermark = self._store.log_length
            live = self._generation
            view = self._source_accuracies
        base_records = _last_rows(self._store.records_from(0, watermark))
        engine_resilience = None
        if deadline is not None:
            engine_resilience = ResilienceConfig(
                failure="fail", deadline=deadline, clock=self._resilience.clock
            )
        result = resolve(
            base_records,
            self._refresh_blocker,
            self._comparator,
            self._classifier,
            clustering="components",
            resilience=engine_resilience,
        )
        fresh = self._new_generation(live.number + 1)
        refused = fresh.rebuild(base_records, result.clusters, live)
        with self._lock:
            caught_up = 0
            for record in self._store.records_from(watermark):
                self._link_record(fresh, record)
                caught_up += 1
            if caught_up:
                self._tracer.counter("serve.replayed_records").inc(
                    caught_up
                )
            if self._source_accuracies is not view:
                # Accuracies were pushed since the rebuild began: what
                # it fused or kept may hold the view they replaced.
                fresh.refuse_all()
                refused += len(fresh.entities)
            self._tracer.counter("serve.refresh_refused").inc(refused)
            self._store.save_generation(
                fresh.number,
                self._store.log_length,
                fresh.canonical(),
            )
            self._store.publish_generation(fresh.number)
            self._generation = fresh
            self._tracer.counter("serve.refreshes").inc()
            return fresh.number

    def refresh_async(self) -> threading.Thread:
        """The background refresh hook: :meth:`refresh` on a thread.

        A failing background refresh never kills the thread with an
        unhandled traceback: the exception is already accounted for by
        :meth:`refresh` (breaker failure, ``serve.refresh_failures``,
        ``last_refresh_error`` in :meth:`health`) and then swallowed.
        """

        def target() -> None:
            try:
                self.refresh()
            except Exception:  # noqa: BLE001, S110 - recorded in health()
                pass

        thread = threading.Thread(
            target=target, name="serve-refresh", daemon=True
        )
        thread.start()
        return thread

    # --- probes -------------------------------------------------------

    def health(self) -> dict:
        """The liveness/degradation probe (one consistent snapshot).

        ``status`` is ``"degraded"`` exactly while the circuit breaker
        is open — reads still serve (from the last published
        generation) but writes are being shed. Without an overload
        policy the breaker reads as permanently ``"closed"``.
        """
        with self._lock:
            generation = self._generation
            breaker_state = (
                self._breaker.state if self._breaker is not None else "closed"
            )
            return {
                "status": "degraded" if breaker_state == "open" else "ok",
                "generation": generation.number,
                "entities": len(generation.entities),
                "log_length": self._store.log_length,
                "breaker": breaker_state,
                "pending_writes": (
                    self._gate.depth if self._gate is not None else 0
                ),
                "dead_letters": len(self._dead_letters),
                "last_refresh_error": self._last_refresh_error,
            }

    def readiness(self) -> dict:
        """The routing probe: can this service take traffic?

        ``ready`` covers reads (always true once constructed — the
        generation is restored before the constructor returns);
        ``writes_accepted`` is false while the breaker is open or the
        admission gate is full, which is the signal a load balancer
        uses to route writes elsewhere while still sending reads here.
        """
        with self._lock:
            breaker_state = (
                self._breaker.state if self._breaker is not None else "closed"
            )
            gate_full = (
                self._gate is not None
                and self._gate.depth >= self._gate.limit
            )
            return {
                "ready": True,
                "generation": self._generation.number,
                "writes_accepted": breaker_state != "open" and not gate_full,
            }

    def checkpoint(self) -> int:
        """Durably persist the *current* generation's projection as-is.

        Cheaper than :meth:`refresh` (no batch re-resolution): saves
        the live projection with the current log watermark and
        republishes the same generation number, shrinking the replay
        a restart must do.
        """
        with self._lock:
            generation = self._generation
            self._store.save_generation(
                generation.number,
                self._store.log_length,
                generation.canonical(),
            )
            self._store.publish_generation(generation.number)
            return generation.number

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ResolutionService(root={str(self._store.root)!r}, "
                f"generation={self._generation.number}, "
                f"entities={len(self._generation.entities)})"
            )
