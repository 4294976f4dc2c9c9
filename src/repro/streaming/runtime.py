"""The continuous-ingestion runtime: stream in, entities out.

:class:`StreamingResolver` is the unbounded-stream counterpart of the
batch pipeline and the serving layer's ingest path. Records flow
through an event-time :class:`~repro.streaming.windows.TumblingWindower`;
every window close folds the window's records (in canonical order)
into an :class:`~repro.linkage.projection.EntityProjection` (the
incremental core shared with the serving layer: link, absorb, re-fuse
every touched cluster by the full accuracy-weighted vote), feeds the
per-window signals to the drift monitors, and — when configured —
checkpoints the whole state durably.
A record id that is already linked or buffered is a redelivery: it is
dropped and counted (``duplicate_records``), like a late record.

Two fusion regimes:

* ``decay=None`` (static): entities fuse under the configured static
  source accuracies — exactly the serving layer's projection, and
  provably byte-identical to a batch :func:`~repro.linkage.resolver.
  resolve` + fuse over the records of all closed windows. This is the
  drift-free differential anchor; :func:`batch_reference_snapshot`
  computes the batch side through the *same* :func:`fuse_entity`, so
  the equality the tests assert is between two genuinely different
  engines (incremental greedy union-find vs batch blocking + connected
  components), not between a function and itself.
* ``decay < 1`` (drift-tracking): entities fuse each source's *newest*
  claim under the decayed accuracy estimates of a
  :class:`~repro.streaming.fusion.DecayedAccuracyTracker`, which is
  advanced once per window and fed each window's claim-vs-fused-value
  outcomes.

Monitors (:mod:`repro.streaming.monitors`) watch the estimates and the
per-window match rate; their events invoke the ``on_drift`` hook —
typically a windowed batch re-resolution (:meth:`StreamingResolver.
re_resolve`) or a serving deployment's
:meth:`~repro.serve.ResolutionService.refresh`.

Recovery: with a ``checkpoint_store`` attached, every window close
durably saves the closed-window state (entities, tracker, monitors,
consumed-record count) into the :class:`~repro.recovery.store.RunStore`.
:meth:`StreamingResolver.resume` restores it with *zero comparisons*
(the projection's ``load``, as a serving restart does) and replays the
open window from the deterministic stream — a killed consumer restarted on
the same stream converges byte-identically to an unkilled one; a
store written under another configuration raises
:class:`~repro.recovery.CheckpointMismatchError` when attached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.linkage.blocking.base import Blocker, KeyFunction
from repro.linkage.comparison import RecordComparator
from repro.linkage.projection import (
    DEFAULT_SOURCE_ACCURACY,
    EntityProjection,
    entity_id_for,
    fuse_entity,
)
from repro.linkage.resolver import MatchClassifier, resolve
from repro.obs import NULL_TRACER, SystemClock
from repro.obs.instruments import observe_stream_window
from repro.recovery import config_fingerprint
from repro.streaming.fusion import (
    DEFAULT_PRIOR_STRENGTH,
    DecayedAccuracyTracker,
)
from repro.streaming.monitors import (
    AccuracyShiftMonitor,
    MatchRateMonitor,
    MonitorEvent,
)
from repro.streaming.windows import TumblingWindower, Window, WindowConfig

__all__ = [
    "StreamingResolver",
    "WindowResult",
    "batch_reference_snapshot",
    "fuse_entity",
]

#: Checkpoint key within the attached store (one latest-state artifact;
#: the store's atomic write-rename makes each save all-or-nothing).
CHECKPOINT_KEY = "streaming.checkpoint"


def batch_reference_snapshot(
    records: Sequence[Record],
    blocker: Blocker,
    comparator: RecordComparator,
    classifier: MatchClassifier,
    source_accuracies: Mapping[str, float] | None = None,
) -> dict:
    """What a from-scratch batch run says about ``records``.

    Batch blocking + comparison + connected components, then the shared
    :func:`fuse_entity` per cluster under static accuracies — the
    ground the drift-free differential tests compare the streaming
    projection against. Returns the same canonical ``{"entities":
    {...}}`` shape as :meth:`StreamingResolver.snapshot`.
    """
    accuracies = dict(source_accuracies or {})

    def accuracy_of(source_id: str) -> float:
        return accuracies.get(source_id, DEFAULT_SOURCE_ACCURACY)

    result = resolve(
        list(records),
        blocker,
        comparator,
        classifier,
        clustering="components",
    )
    by_id = {record.record_id: record for record in records}
    entities: dict[str, dict] = {}
    for cluster in result.clusters:
        entity_id = entity_id_for(cluster)
        attributes, confidence, provenance = fuse_entity(
            [by_id[member] for member in cluster], accuracy_of
        )
        entities[entity_id] = {
            "members": sorted(cluster),
            "attributes": attributes,
            "confidence": confidence,
            "provenance": provenance,
        }
    return {"entities": {key: entities[key] for key in sorted(entities)}}


@dataclass(frozen=True)
class WindowResult:
    """What one closed window did to the projection.

    ``accuracies`` are the post-window source-accuracy estimates (what
    the drift monitors watched); ``lags`` are per-record ingest-to-
    visible wall-clock latencies (arrival at :meth:`~StreamingResolver.
    process` to window close — the staleness the benchmark reports);
    ``late_records`` is the cumulative dropped-as-late count.
    """

    index: int
    start: float
    end: float
    watermark: float
    n_records: int
    candidates: int
    comparisons: int
    matches: int
    entities_touched: int
    accuracies: Mapping[str, float]
    events: tuple[MonitorEvent, ...]
    lags: tuple[float, ...]
    late_records: int
    re_resolved: bool = False

    @property
    def match_rate(self) -> float:
        """Accepted decisions over decisions made in this window — one
        vote per (record, entity) link, not one per entity member."""
        return self.matches / self.comparisons if self.comparisons else 0.0


class StreamingResolver:
    """Windowed incremental linkage + drift-tracking fusion over a stream.

    Parameters
    ----------
    key_functions, comparator, classifier:
        The linkage machinery, identical semantics to the batch
        pipeline and the serving layer.
    source_accuracies:
        Prior per-source accuracies; unlisted sources get
        :data:`DEFAULT_SOURCE_ACCURACY`. In static mode these are the
        fusion weights outright; in drift mode they seed the decayed
        tracker.
    decay:
        ``None`` — static fusion (batch-identical, the differential
        anchor). A float in ``(0, 1]`` — drift mode: entities fuse
        under decayed accuracy estimates (``1.0`` = undecayed tracking,
        the baseline that goes stale after a flip).
    tracked_attributes:
        Attributes whose claims feed the accuracy tracker (``None`` =
        all). Benchmarks pass the conflict attributes only, so the
        always-correct identity attribute does not dilute estimates.
    on_drift:
        ``callback(event, resolver)`` invoked per event of the drift
        monitors (an :class:`AccuracyShiftMonitor` and a
        :class:`MatchRateMonitor`, observed at every window close) — wire
        it to :meth:`re_resolve` or a serving deployment's ``refresh``.
    checkpoint_store:
        A :class:`~repro.recovery.store.RunStore` (or a namespace of
        one); when set, every window close saves a durable checkpoint
        and :meth:`resume` can restore it. The store is bound to this
        resolver's window, decay, prior strength, tracked attributes,
        accuracies, candidate cap, comparator and classifier: opening
        one bound to any other raises
        :class:`~repro.recovery.CheckpointMismatchError`.
    """

    def __init__(
        self,
        key_functions: Sequence[KeyFunction],
        comparator: RecordComparator,
        classifier: MatchClassifier,
        source_accuracies: Mapping[str, float] | None = None,
        window: WindowConfig | None = None,
        decay: float | None = None,
        prior_strength: float = DEFAULT_PRIOR_STRENGTH,
        tracked_attributes: Sequence[str] | None = None,
        on_drift: Callable[[MonitorEvent, "StreamingResolver"], None] | None = None,
        checkpoint_store=None,
        max_candidates_per_record: int = 1000,
        tracer=None,
        clock=None,
    ) -> None:
        if decay is not None and not 0.0 < decay <= 1.0:
            raise ConfigurationError("decay must be None or in (0, 1]")
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock if clock is not None else SystemClock()
        self._comparator = comparator
        self._classifier = classifier
        self._accuracies = dict(source_accuracies or {})
        self._decay = decay
        self._tracked = (
            frozenset(tracked_attributes)
            if tracked_attributes is not None
            else None
        )
        self._windower = TumblingWindower(window)
        self._projection = EntityProjection(
            key_functions,
            comparator,
            classifier,
            self._accuracy_of,
            # Static mode keeps the serving layer's first-wins rule (the
            # batch byte-identity anchor); drift mode represents every
            # source by its newest claim, so the projection itself —
            # not just the accuracy weights — tracks the stream.
            pick="first" if decay is None else "latest",
            max_candidates_per_record=max_candidates_per_record,
        )
        # The tracker runs in every mode (the monitors watch it); only
        # the *fusion weights* switch between static and decayed.
        self._tracker = DecayedAccuracyTracker(
            self._accuracies,
            decay=decay if decay is not None else 1.0,
            prior_strength=prior_strength,
            default_prior=DEFAULT_SOURCE_ACCURACY,
        )
        self._monitors = (
            AccuracyShiftMonitor(
                tracer=self._tracer,
                baselines=self._accuracies,
                default_baseline=DEFAULT_SOURCE_ACCURACY,
            ),
            MatchRateMonitor(tracer=self._tracer),
        )
        self._on_drift = on_drift
        self._store = checkpoint_store
        if checkpoint_store is not None:
            # The default accuracy keeps its place, so a checkpoint
            # written when it was an option still binds.
            checkpoint_store.bind_fingerprint(
                config_fingerprint(
                    "streaming", self._windower.config, decay,
                    prior_strength, self._tracked, self._accuracies,
                    DEFAULT_SOURCE_ACCURACY, max_candidates_per_record,
                    comparator, classifier,
                )
            )
        self._events: list[MonitorEvent] = []
        self._arrivals: dict[str, float] = {}
        self._consumed = 0
        self._duplicates = 0
        self._re_resolutions = 0

    # --- accessors ----------------------------------------------------

    @property
    def windows_closed(self) -> int:
        return self._windower.next_window

    @property
    def consumed(self) -> int:
        """Records taken from the stream (late drops included)."""
        return self._consumed

    @property
    def late_records(self) -> int:
        return self._windower.late_records

    @property
    def duplicate_records(self) -> int:
        """Redeliveries of an already accepted record id, dropped."""
        return self._duplicates

    @property
    def n_entities(self) -> int:
        return len(self._projection.entities)

    @property
    def re_resolutions(self) -> int:
        return self._re_resolutions

    @property
    def events(self) -> tuple[MonitorEvent, ...]:
        """Every monitor event fired so far, in firing order."""
        return tuple(self._events)

    def accuracies(self) -> dict[str, float]:
        """The accuracy view the *next* window's entities fuse under."""
        if self._decay is None:
            return dict(sorted(self._accuracies.items()))
        return self._tracker.estimates()

    def estimates(self) -> dict[str, float]:
        """The tracker's current estimates (what the monitors watch)."""
        return self._tracker.estimates()

    def entity(self, entity_id: str) -> dict | None:
        return self._projection.entities.get(entity_id)

    def entity_of(self, record_id: str) -> str | None:
        return self._projection.entity_of.get(record_id)

    def snapshot(self) -> dict:
        """Canonical JSON-able projection state (differential anchor).

        The entity entries are shared with the live table and are
        read-only; a later window tables new entries, so a snapshot
        keeps what it saw.
        """
        return {
            "windows_closed": self._windower.next_window,
            "consumed": self._consumed,
            "late_records": self._windower.late_records,
            "re_resolutions": self._re_resolutions,
            "entities": self._projection.canonical(),
        }

    # --- internals ----------------------------------------------------

    def _accuracy_of(self, source_id: str) -> float:
        if self._decay is None:
            return self._accuracies.get(source_id, DEFAULT_SOURCE_ACCURACY)
        return self._tracker.accuracy(source_id)

    def _observe_claims(self, window: Window) -> None:
        """Feed claim-vs-fused-value outcomes to the accuracy tracker."""
        for record in window.records:
            entity = self.entity(self.entity_of(record.record_id) or "")
            if entity is None:
                continue
            for attribute in sorted(record.attributes):
                value = record.attributes[attribute]
                if not value:
                    continue
                if self._tracked is not None and attribute not in self._tracked:
                    continue
                fused = entity["attributes"].get(attribute)
                if fused is None:
                    continue
                self._tracker.observe(record.source_id, value == fused)

    def _checkpoint(self) -> None:
        if self._store is None:
            return
        self._store.save(
            CHECKPOINT_KEY,
            {
                "consumed": self._consumed,
                "next_window": self._windower.next_window,
                "watermark": self._windower.watermark,
                "late_records": self._windower.late_records,
                "duplicate_records": self._duplicates,
                "re_resolutions": self._re_resolutions,
                "entities": self._projection.canonical(),
                "tracker": self._tracker.state(),
                "monitors": [
                    monitor.state() for monitor in self._monitors
                ],
                "events": [event.to_json() for event in self._events],
            },
        )
        self._tracer.counter("streaming.checkpoints").inc()

    def _close_window(self, window: Window) -> WindowResult:
        self._tracker.advance()
        stats, projected, _ = self._projection.fold(list(window.records))
        self._observe_claims(window)
        estimates = self._tracker.estimates()
        re_resolutions_before = self._re_resolutions
        events: list[MonitorEvent] = []
        for monitor in self._monitors:
            if isinstance(monitor, MatchRateMonitor):
                events.extend(
                    monitor.observe(
                        window.index, stats.matches, stats.comparisons
                    )
                )
            else:
                events.extend(monitor.observe(window.index, estimates))
        self._events.extend(events)
        if self._on_drift is not None:
            for event in events:
                self._on_drift(event, self)
        now = self._clock.now()
        lags = tuple(
            now - self._arrivals.pop(record.record_id, now)
            for record in window.records
        )
        self._checkpoint()
        result = WindowResult(
            index=window.index,
            start=window.start,
            end=window.end,
            watermark=self._windower.watermark,
            n_records=len(window.records),
            candidates=stats.candidates,
            comparisons=stats.comparisons,
            matches=stats.matches,
            entities_touched=len(projected),
            accuracies=estimates,
            events=tuple(events),
            lags=lags,
            late_records=self._windower.late_records,
            re_resolved=self._re_resolutions > re_resolutions_before,
        )
        observe_stream_window(self._tracer, result)
        return result

    # --- the streaming API -------------------------------------------

    def process(self, records: Iterable[Record]) -> Iterator[WindowResult]:
        """Consume records; yield a :class:`WindowResult` per close.

        A generator: pull-driven, so an unbounded stream works — stop
        iterating to stop consuming. Records of still-open windows are
        buffered; nothing is linked or fused until event time declares
        the window complete.
        """
        for record in records:
            self._consumed += 1
            if (
                record.record_id in self._arrivals
                or record.record_id in self._projection.linker
            ):
                # Redelivery of a record already buffered or linked.
                self._duplicates += 1
                self._tracer.counter("streaming.duplicate_records").inc()
                continue
            self._arrivals[record.record_id] = self._clock.now()
            late_before = self._windower.late_records
            closed = self._windower.feed(record)
            if self._windower.late_records > late_before:
                self._arrivals.pop(record.record_id, None)
                self._tracer.counter("streaming.late_records").inc()
            for window in closed:
                yield self._close_window(window)

    def flush(self) -> list[WindowResult]:
        """Close every buffered window (end-of-stream in bounded runs)."""
        return [
            self._close_window(window) for window in self._windower.flush()
        ]

    def run(
        self,
        records: Iterable[Record],
        max_windows: int | None = None,
    ) -> list[WindowResult]:
        """Drive :meth:`process`; with ``max_windows``, stop after that
        many closes (unbounded streams), else flush at end of input."""
        results: list[WindowResult] = []
        for result in self.process(records):
            results.append(result)
            if max_windows is not None and len(results) >= max_windows:
                return results
        results.extend(self.flush())
        return results

    # --- re-resolution (the drift response) --------------------------

    def re_resolve(self, blocker: Blocker) -> int:
        """Windowed batch re-resolution of everything linked so far.

        The full batch pipeline over all closed-window records, then a
        fresh linker preloaded by resurrect + merge (zero incremental
        comparisons) and a re-fused projection under the *current*
        accuracy view. This is the heavyweight answer to a monitor
        event when no serving deployment owns the data. Returns the
        number of entities in the rebuilt projection.
        """
        records = [
            self._projection.linker.record(member)
            for entity in self._projection.entities.values()
            for member in entity["members"]
        ]
        result = resolve(
            records,
            blocker,
            self._comparator,
            self._classifier,
            clustering="components",
        )
        self._projection.rebuild(records, result.clusters)
        self._re_resolutions += 1
        self._tracer.counter("streaming.re_resolutions").inc()
        return self.n_entities

    # --- checkpoint / resume -----------------------------------------

    def resume(self, records: Iterator[Record]) -> int:
        """Restore the last checkpoint, replaying the open window.

        ``records`` must be a *fresh iterator over the same
        deterministic stream* the killed run consumed (e.g. a new pass
        over a :class:`~repro.io.GeneratorRecordStream`). The first
        ``consumed`` records are taken from it: closed-window records
        and the checkpointed entities are loaded into the projection
        as saved (zero comparisons, no re-fusion), open-window records
        are re-buffered, late-dropped and redelivered ones are skipped
        again. The iterator is left positioned at the first unseen
        record — pass it straight to :meth:`process` to continue.
        Returns the number of records replayed (0 with no checkpoint).
        (A store holding another configuration's checkpoint was
        already refused when this resolver was constructed.)
        """
        if self._store is None:
            raise ConfigurationError(
                "resume requires a checkpoint_store"
            )
        if self._consumed:
            raise ConfigurationError(
                "resume must be called on a fresh resolver"
            )
        payload = self._store.load(CHECKPOINT_KEY)
        if payload is None:
            return 0
        next_window = int(payload["next_window"])
        # A redelivered id was dropped as a duplicate; only its first
        # delivery replays.
        first: dict[str, Record] = {}
        for record in itertools.islice(records, payload["consumed"]):
            first.setdefault(record.record_id, record)
        unlinked = self._projection.load(first.values(), payload["entities"])
        # Of those, the open windows' are re-buffered; the rest had
        # been dropped as late.
        size = self._windower.config.size
        pending = [
            record
            for record in unlinked
            if int(record.timestamp // size) >= next_window
        ]
        self._arrivals = dict.fromkeys(
            (record.record_id for record in pending), self._clock.now()
        )
        self._windower.restore(
            next_window,
            float(payload["watermark"]),
            tuple(pending),
            late_records=int(payload["late_records"]),
        )
        self._tracker.restore(payload["tracker"])
        for monitor, state in zip(self._monitors, payload["monitors"]):
            monitor.restore(state)
        self._events = [
            MonitorEvent(**event) for event in payload["events"]
        ]
        self._re_resolutions = int(payload["re_resolutions"])
        self._duplicates = int(payload.get("duplicate_records", 0))
        self._consumed = int(payload["consumed"])
        self._tracer.counter("streaming.resumes").inc()
        return self._consumed
