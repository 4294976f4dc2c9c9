"""Tests for drift-aware continuous ingestion (`repro.streaming`).

The load-bearing suites:

* **Differential**: on a drift-free stream with ``decay=None``, the
  streaming projection at *every* window boundary is byte-identical
  (JSON-serialized) to a from-scratch batch resolve + fuse over the
  records of all closed windows — two genuinely different engines
  agreeing exactly.
* **Arrival-order property** (Hypothesis): window-close output is
  insensitive to intra-window arrival order, across window sizes,
  feeding batch sizes, and stream seeds.
* **Drift regressions**: seeded accuracy-flip and copier-appears
  scenarios pin that decayed posteriors track the shift (and undecayed
  ones go stale), and that monitors fire once per sustained shift.
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Record
from repro.fusion import AccuVote
from repro.fusion.base import Claim, ClaimSet, choose, score
from repro.fusion.online import claim_posterior, vote_count
from repro.linkage import (
    StandardBlocker,
    ThresholdClassifier,
    default_product_comparator,
)
from repro.linkage.blocking import first_token_key
from repro.obs import ManualClock, Tracer, observe_stream_window
from repro.quality import estimation_rmse
from repro.recovery import CheckpointMismatchError, RunStore
from repro.synth import ClaimWorldConfig, generate_claims
from repro.streaming import (
    CONFLICT_ATTRIBUTES,
    AccuracyShiftMonitor,
    DecayedAccuracyTracker,
    DriftStreamConfig,
    DriftWorld,
    MatchRateMonitor,
    StreamingResolver,
    TumblingWindower,
    WindowConfig,
    batch_reference_snapshot,
    fuse_entity,
    projection_accuracy,
)
from tests.procs import run_python

MATCH_THRESHOLD = 0.72


def make_resolver(accuracies, **kwargs):
    kwargs.setdefault("window", WindowConfig(size=2.0))
    return StreamingResolver(
        key_functions=[first_token_key("name")],
        comparator=default_product_comparator(),
        classifier=ThresholdClassifier(MATCH_THRESHOLD),
        source_accuracies=accuracies,
        **kwargs,
    )


def reference_snapshot(records, accuracies):
    return batch_reference_snapshot(
        records,
        StandardBlocker(first_token_key("name")),
        default_product_comparator(),
        ThresholdClassifier(MATCH_THRESHOLD),
        accuracies,
    )


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def record(record_id, source, name, timestamp, **attributes):
    return Record(
        record_id=record_id,
        source_id=source,
        attributes={"name": name, **attributes},
        timestamp=timestamp,
    )


# ---------------------------------------------------------------------
# Event-time windowing


class TestTumblingWindower:

    def test_records_buffer_until_watermark_passes_window_end(self):
        windower = TumblingWindower(WindowConfig(size=1.0))
        assert windower.feed(record("a", "s", "x", 0.1)) == []
        assert windower.feed(record("b", "s", "x", 0.9)) == []
        closed = windower.feed(record("c", "s", "x", 1.0))
        assert [window.index for window in closed] == [0]
        assert [r.record_id for r in closed[0].records] == ["a", "b"]

    def test_window_records_are_in_canonical_event_time_order(self):
        windower = TumblingWindower(WindowConfig(size=1.0))
        windower.feed(record("b", "s", "x", 0.5))
        windower.feed(record("a", "s", "x", 0.5))
        windower.feed(record("c", "s", "x", 0.2))
        (window,) = windower.feed(record("d", "s", "x", 1.5))
        assert [r.record_id for r in window.records] == ["c", "a", "b"]

    def test_lag_delays_close(self):
        windower = TumblingWindower(WindowConfig(size=1.0, lag=0.5))
        assert windower.feed(record("a", "s", "x", 0.5)) == []
        # Watermark 1.2 - lag 0.5 = 0.7: window [0, 1) still open.
        assert windower.feed(record("b", "s", "x", 1.2)) == []
        closed = windower.feed(record("c", "s", "x", 1.6))
        assert [window.index for window in closed] == [0]

    def test_empty_windows_close_skip_free(self):
        windower = TumblingWindower(WindowConfig(size=1.0))
        windower.feed(record("a", "s", "x", 0.5))
        closed = windower.feed(record("b", "s", "x", 3.5))
        assert [window.index for window in closed] == [0, 1, 2]
        assert closed[1].records == () and closed[2].records == ()

    def test_late_record_dropped_and_counted(self):
        windower = TumblingWindower(WindowConfig(size=1.0))
        windower.feed(record("a", "s", "x", 0.5))
        windower.feed(record("b", "s", "x", 2.5))
        assert windower.feed(record("late", "s", "x", 0.7)) == []
        assert windower.late_records == 1
        (window,) = windower.flush()
        assert "late" not in [r.record_id for r in window.records]

    def test_late_record_raises_under_error_policy(self):
        windower = TumblingWindower(WindowConfig(size=1.0, late="error"))
        windower.feed(record("a", "s", "x", 2.5))
        with pytest.raises(ConfigurationError):
            windower.feed(record("late", "s", "x", 0.5))

    def test_missing_timestamp_rejected(self):
        windower = TumblingWindower()
        with pytest.raises(ConfigurationError):
            windower.feed(Record("a", "s", {"name": "x"}))

    def test_flush_closes_all_buffered_windows(self):
        windower = TumblingWindower(WindowConfig(size=1.0))
        windower.feed(record("a", "s", "x", 0.5))
        # Feeding ts=2.5 advances the watermark past windows 0 and 1.
        closed = windower.feed(record("b", "s", "x", 2.5))
        assert [window.index for window in closed] == [0, 1]
        (window,) = windower.flush()
        assert window.index == 2
        assert [r.record_id for r in window.records] == ["b"]
        assert windower.next_window == 3
        assert windower.flush() == []

    def test_restore_resumes_position_and_pending(self):
        windower = TumblingWindower(WindowConfig(size=1.0))
        pending = (record("a", "s", "x", 3.2), record("b", "s", "x", 3.7))
        windower.restore(3, 3.7, pending, late_records=2)
        assert windower.next_window == 3
        assert windower.late_records == 2
        assert windower.feed(record("old", "s", "x", 1.0)) == []
        assert windower.late_records == 3
        (window,) = windower.feed(record("c", "s", "x", 4.1))
        assert [r.record_id for r in window.records] == ["a", "b"]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            WindowConfig(size=0.0)
        with pytest.raises(ConfigurationError):
            WindowConfig(lag=-1.0)
        with pytest.raises(ConfigurationError):
            WindowConfig(late="ignore")


# ---------------------------------------------------------------------
# Decayed posteriors


class TestDecayedAccuracyTracker:

    def test_prior_before_evidence(self):
        tracker = DecayedAccuracyTracker({"s": 0.7}, default_prior=0.55)
        assert tracker.accuracy("s") == 0.7
        assert tracker.accuracy("unseen") == 0.55

    def test_blend_formula_exact(self):
        tracker = DecayedAccuracyTracker({"s": 0.6})
        for correct in (True, True, True, False):
            tracker.observe("s", correct)
        assert tracker.accuracy("s") == pytest.approx(
            (8.0 * 0.6 + 3.0) / (8.0 + 4.0)
        )

    def test_advance_decays_counts(self):
        tracker = DecayedAccuracyTracker(
            {"s": 0.6}, decay=0.5
        )
        for correct in (True, True, True, False):
            tracker.observe("s", correct)
        tracker.advance()
        assert tracker.accuracy("s") == pytest.approx(
            (8.0 * 0.6 + 1.5) / (8.0 + 2.0)
        )

    def test_decay_one_is_lossless(self):
        tracker = DecayedAccuracyTracker({"s": 0.6}, decay=1.0)
        tracker.observe("s", True)
        before = tracker.accuracy("s")
        for _ in range(5):
            tracker.advance()
        assert tracker.accuracy("s") == before

    def test_forgetting_tracks_a_flip(self):
        decayed = DecayedAccuracyTracker({"s": 0.8}, decay=0.5)
        undecayed = DecayedAccuracyTracker({"s": 0.8}, decay=1.0)
        for tracker in (decayed, undecayed):
            for _ in range(10):
                tracker.advance()
                for _ in range(5):
                    tracker.observe("s", True)
            for _ in range(6):
                tracker.advance()
                for _ in range(5):
                    tracker.observe("s", False)
        assert decayed.accuracy("s") < 0.45 < undecayed.accuracy("s")

    def test_state_restore_round_trip(self):
        tracker = DecayedAccuracyTracker({"s": 0.8}, decay=0.7)
        for index in range(7):
            tracker.advance()
            tracker.observe("s", index % 3 != 0)
            tracker.observe("t", index % 2 == 0)
        twin = DecayedAccuracyTracker({"s": 0.8}, decay=0.7)
        twin.restore(tracker.state())
        assert twin.estimates() == tracker.estimates()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DecayedAccuracyTracker({}, decay=0.0)


# ---------------------------------------------------------------------
# Monitors


class TestMonitors:

    def test_accuracy_shift_fires_once_per_sustained_shift(self):
        monitor = AccuracyShiftMonitor()
        events = []
        levels = [0.9] * 4 + [0.5] * 8
        for window, level in enumerate(levels):
            events.extend(monitor.observe(window, {"s": level}))
        assert len(events) == 1
        assert events[0].window == 5  # second sustained shifted window
        assert events[0].subject == "s"
        assert events[0].baseline == pytest.approx(0.9)
        assert events[0].value == pytest.approx(0.5)

    def test_one_noisy_window_never_fires(self):
        monitor = AccuracyShiftMonitor()
        events = []
        for window, level in enumerate([0.9, 0.9, 0.4, 0.9, 0.9, 0.9]):
            events.extend(monitor.observe(window, {"s": level}))
        assert events == []

    def test_relatch_fires_again_on_second_shift(self):
        monitor = AccuracyShiftMonitor()
        events = []
        for window, level in enumerate([0.9, 0.5, 0.5, 0.5, 0.9, 0.9]):
            events.extend(monitor.observe(window, {"s": level}))
        # One event per level change, never one per window.
        assert [event.window for event in events] == [2, 5]

    def test_prior_anchored_baseline_flags_new_source(self):
        monitor = AccuracyShiftMonitor(default_baseline=0.8)
        events = []
        for window in range(4):
            events.extend(monitor.observe(window, {"new": 0.5}))
        assert [event.window for event in events] == [1]
        assert events[0].baseline == pytest.approx(0.8)

    def test_match_rate_monitor_fires_on_sustained_rate_shift(self):
        monitor = MatchRateMonitor()
        events = []
        rates = [(8, 10)] * 3 + [(2, 10)] * 5
        for window, (matches, comparisons) in enumerate(rates):
            events.extend(monitor.observe(window, matches, comparisons))
        assert [event.window for event in events] == [4]
        assert events[0].subject == "match_rate"

    def test_match_rate_skips_thin_windows(self):
        monitor = MatchRateMonitor()
        assert monitor.observe(0, 4, 5) == []
        # A window without comparisons has no rate: it neither shifts
        # the level nor breaks a streak.
        assert monitor.observe(1, 0, 0) == []
        assert monitor.observe(2, 0, 10) == []
        assert monitor.observe(3, 0, 0) == []
        (event,) = monitor.observe(4, 0, 10)
        assert event.window == 4

    def test_state_restore_round_trip(self):
        monitor = AccuracyShiftMonitor()
        for window, level in enumerate([0.9, 0.9, 0.6]):
            monitor.observe(window, {"s": level})
        twin = AccuracyShiftMonitor()
        twin.restore(monitor.state())
        # Both are one sustained window away from firing.
        assert len(twin.observe(3, {"s": 0.6})) == 1
        assert len(monitor.observe(3, {"s": 0.6})) == 1

    def test_event_is_json_able(self):
        monitor = MatchRateMonitor()
        monitor.observe(0, 9, 10)
        monitor.observe(1, 1, 10)
        (event,) = monitor.observe(2, 1, 10)
        payload = json.loads(json.dumps(event.to_json()))
        assert payload["monitor"] == "match_rate"
        assert payload["window"] == 2

    def test_monitor_counters(self):
        tracer = Tracer()
        monitor = AccuracyShiftMonitor(tracer=tracer)
        monitor.observe(0, {"s": 0.9})
        monitor.observe(1, {"s": 0.5})
        monitor.observe(2, {"s": 0.5})
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["streaming.monitor.fired"] == 1
        assert counters["streaming.monitor.accuracy_shift.fired"] == 1


# ---------------------------------------------------------------------
# The drift-injecting stream


class TestDriftWorld:

    def test_stream_is_deterministic_and_restartable(self):
        world = DriftWorld(DriftStreamConfig(seed=41))
        assert world.take(200) == world.take(200)
        again = DriftWorld(DriftStreamConfig(seed=41))
        assert again.take(200) == world.take(200)

    def test_take_is_a_prefix_of_longer_takes(self):
        world = DriftWorld(DriftStreamConfig(seed=42))
        assert world.take(300)[:120] == world.take(120)

    def test_records_carry_event_time_and_entity_encoding(self):
        world = DriftWorld(DriftStreamConfig(seed=1))
        for rec in world.take(50):
            tick = int(rec.timestamp)
            assert rec.record_id.startswith(f"{rec.source_id}/{tick:06d}-")
            entity = world.entity_index_of(rec.record_id)
            assert rec.attributes["name"] == world.entity_name(entity)

    def test_accuracy_schedule_flips(self):
        config = DriftStreamConfig(flip_at=5.0, flip_source=1, flip_to=0.3)
        world = DriftWorld(config)
        assert world.accuracy_at("src01", 4.9) == world.base_accuracy(1)
        assert world.accuracy_at("src01", 5.0) == 0.3
        assert world.accuracy_at("src00", 5.0) == world.base_accuracy(0)

    def test_copier_only_after_copier_at(self):
        config = DriftStreamConfig(
            copier_at=3.0, copier_parent=0, seed=9, coverage=0.9
        )
        world = DriftWorld(config)
        records = world.take(800)
        copier_ticks = {
            int(r.timestamp) for r in records if r.source_id == "cop00"
        }
        assert copier_ticks and min(copier_ticks) >= 3
        assert world.copier_of == {"cop00": "src00"}

    def test_truth_at_replays_evolving_truth(self):
        config = DriftStreamConfig(truth_change_rate=0.3, seed=13)
        world = DriftWorld(config)
        assert world.truth_at(7.0) == world.truth_at(7.0)
        assert world.truth_at(0.0) != world.truth_at(20.0)
        # Emitted true values match the replayed truth schedule: with
        # accuracy_high == accuracy_low == high, claims are mostly true.
        sure = DriftWorld(
            DriftStreamConfig(
                truth_change_rate=0.3,
                accuracy_high=0.99,
                accuracy_low=0.99,
                n_sources=2,
                seed=13,
            )
        )
        hits = total = 0
        for rec in sure.take(400):
            truth = sure.truth_at(rec.timestamp)
            entity = sure.entity_index_of(rec.record_id)
            for attribute in CONFLICT_ATTRIBUTES:
                value = rec.attributes.get(attribute)
                if value is None:
                    continue
                total += 1
                hits += value == truth[f"{entity:04d}.{attribute}"]
        assert total and hits / total > 0.95

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DriftStreamConfig(n_entities=0)
        with pytest.raises(ConfigurationError):
            DriftStreamConfig(flip_to=1.5)
        with pytest.raises(ConfigurationError):
            DriftStreamConfig(copier_parent=7)


# ---------------------------------------------------------------------
# Differential: streaming == batch at every window boundary


DIFF_CONFIG = DriftStreamConfig(n_entities=8, n_sources=4, seed=7)


class Redelivery:
    """The same stream with every ``every``-th record emitted again a
    few records later — alternately while its window is still open and
    long after it was linked. ``emitted`` counts the re-emissions."""

    def __init__(self, every=5, delays=(2, 45)):
        self.every = every
        self.delays = delays
        self.emitted = 0

    def __call__(self, stream):
        due = {}
        for position, rec in enumerate(stream):
            yield rec
            if position % self.every == 0:
                delay = self.delays[(position // self.every) % len(self.delays)]
                due.setdefault(position + delay, []).append(rec)
            for again in due.pop(position, ()):
                self.emitted += 1
                yield again


def differential_run(n_windows, wrap=iter):
    world = DriftWorld(DIFF_CONFIG)
    accuracies = world.accuracies_at(0.0)
    resolver = make_resolver(accuracies, window=WindowConfig(size=1.0))
    seen = {}

    def tee(records):
        for rec in records:
            seen.setdefault(rec.record_id, rec)
            yield rec

    boundary_pairs = []
    for result in resolver.process(tee(wrap(world.stream()))):
        closed = {
            member
            for entity in resolver.snapshot()["entities"].values()
            for member in entity["members"]
        }
        closed_records = [
            rec for rec in seen.values() if rec.record_id in closed
        ]
        assert len(closed_records) == len(closed)
        boundary_pairs.append(
            (
                canonical(resolver.snapshot()["entities"]),
                canonical(
                    reference_snapshot(closed_records, accuracies)[
                        "entities"
                    ]
                ),
            )
        )
        if len(boundary_pairs) >= n_windows:
            break
    return resolver, boundary_pairs


def run_differential(n_windows):
    return differential_run(n_windows)[1]


class TestDriftFreeDifferential:

    def test_streaming_matches_batch_at_every_window_boundary(self):
        for index, (streamed, batch) in enumerate(run_differential(6)):
            assert streamed == batch, f"diverged at window {index}"

    def test_redelivered_records_change_nothing(self):
        """At-least-once delivery: a record id arriving again — while
        still buffered, or windows after it was linked — is dropped and
        counted, and every boundary keeps the bytes of the clean run."""
        redelivery = Redelivery()
        resolver, pairs = differential_run(6, wrap=redelivery)
        assert pairs == run_differential(6)
        for index, (streamed, batch) in enumerate(pairs):
            assert streamed == batch, f"diverged at window {index}"
        assert redelivery.emitted > 10
        assert resolver.duplicate_records == redelivery.emitted
        assert resolver.late_records == 0
        assert "duplicate_records" not in resolver.snapshot()
        # Every redelivery was consumed, none of them projected twice.
        linked = sum(
            len(entity["members"])
            for entity in resolver.snapshot()["entities"].values()
        )
        assert resolver.consumed >= linked + redelivery.emitted

    @settings(max_examples=12, deadline=None)
    @given(
        window_size=st.sampled_from([1.0, 2.0, 3.5]),
        batch_size=st.sampled_from([1, 4, 9]),
        seed=st.integers(min_value=0, max_value=30),
        order_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_window_close_insensitive_to_intra_window_arrival_order(
        self, window_size, batch_size, seed, order_seed
    ):
        """The Hypothesis property over (window size x batch size x
        seed x arrival order): canonical per-window output is identical
        whether records arrive in stream order or shuffled within their
        window, and regardless of how the feed is chunked."""
        import random

        world = DriftWorld(
            DriftStreamConfig(n_entities=6, n_sources=3, seed=seed)
        )
        records = world.take(80)
        accuracies = world.accuracies_at(0.0)

        def run(feed, batch):
            resolver = make_resolver(
                accuracies, window=WindowConfig(size=window_size)
            )
            outputs = []
            for start in range(0, len(feed), batch):
                for result in resolver.process(
                    feed[start : start + batch]
                ):
                    outputs.append(
                        (
                            result.index,
                            result.n_records,
                            result.matches,
                            result.comparisons,
                            canonical(resolver.snapshot()["entities"]),
                        )
                    )
            for result in resolver.flush():
                outputs.append(
                    (
                        result.index,
                        result.n_records,
                        result.matches,
                        result.comparisons,
                        canonical(resolver.snapshot()["entities"]),
                    )
                )
            return outputs

        by_window = {}
        for rec in records:
            by_window.setdefault(
                int(rec.timestamp // window_size), []
            ).append(rec)
        rng = random.Random(order_seed)
        shuffled = []
        for index in sorted(by_window):
            group = list(by_window[index])
            rng.shuffle(group)
            shuffled.extend(group)

        assert run(shuffled, batch_size) == run(records, 1)


# ---------------------------------------------------------------------
# Drift-scenario regressions


FLIP_CONFIG = DriftStreamConfig(
    n_entities=10, n_sources=5, flip_at=12.0, flip_source=0, flip_to=0.2,
    seed=11,
)


def run_flip(decay, n_windows=16):
    world = DriftWorld(FLIP_CONFIG)
    resolver = make_resolver(
        world.accuracies_at(0.0),
        decay=decay,
        tracked_attributes=CONFLICT_ATTRIBUTES,
    )
    results = resolver.run(
        itertools.islice(world.stream(), 50_000), max_windows=n_windows
    )
    return world, resolver, results


class TestAccuracyFlipRegression:

    @pytest.fixture(scope="class")
    def flip_runs(self):
        return {decay: run_flip(decay) for decay in (0.7, 1.0)}

    def test_decayed_posterior_crosses_over_within_windows(self, flip_runs):
        """Within 10 windows of the flip the decayed estimate has
        crossed below 0.3 while the undecayed lifetime average has not.
        """
        _, decayed, _ = flip_runs[0.7]
        _, undecayed, _ = flip_runs[1.0]
        assert decayed.estimates()["src00"] < 0.3
        assert undecayed.estimates()["src00"] > 0.4

    def test_decayed_tracking_beats_undecayed_rmse(self, flip_runs):
        world, decayed, results = flip_runs[0.7]
        _, undecayed, _ = flip_runs[1.0]
        planted = world.accuracies_at(results[-1].end - 1.0)
        decayed_error = estimation_rmse(decayed.estimates(), planted)
        undecayed_error = estimation_rmse(undecayed.estimates(), planted)
        # E26's bar: the decayed error is under half the undecayed one
        # (0.043 against 0.135 on this stream).
        assert decayed_error < 0.5 * undecayed_error

    def test_monitor_fires_for_the_flipped_source_and_settles(
        self, flip_runs
    ):
        _, decayed, results = flip_runs[0.7]
        flipped = [
            event
            for event in decayed.events
            if event.monitor == "accuracy_shift" and event.subject == "src00"
        ]
        flip_window = int(FLIP_CONFIG.flip_at // 2.0)
        assert flipped, "no event for the flipped source"
        assert all(event.window >= flip_window for event in flipped)
        # The shift latches: once estimates settle at the new level the
        # monitor goes quiet (no event in the last three windows).
        last_windows = {result.index for result in results[-3:]}
        assert not any(event.window in last_windows for event in flipped)

    def test_no_events_for_stable_sources(self, flip_runs):
        _, decayed, _ = flip_runs[0.7]
        subjects = {
            event.subject
            for event in decayed.events
            if event.monitor == "accuracy_shift"
        }
        assert subjects == {"src00"}

    def test_projection_accuracy_scored_against_planted_truth(
        self, flip_runs
    ):
        world, decayed, results = flip_runs[0.7]
        accuracy = projection_accuracy(
            world, decayed.snapshot()["entities"], results[-1].end - 1.0
        )
        assert 0.7 < accuracy <= 1.0


class TestCopierAppearsRegression:

    COPIER_CONFIG = DriftStreamConfig(
        n_entities=8, n_sources=4, copier_at=8.0, copier_parent=3,
        copy_rate=0.9, copier_accuracy=0.3, coverage=0.9, seed=23,
    )

    @pytest.fixture(scope="class")
    def copier_run(self):
        world = DriftWorld(self.COPIER_CONFIG)
        resolver = make_resolver(
            world.accuracies_at(0.0),
            decay=0.8,
            tracked_attributes=CONFLICT_ATTRIBUTES,
        )
        resolver.run(
            itertools.islice(world.stream(), 50_000), max_windows=14
        )
        return world, resolver

    def test_new_source_posterior_diverges_from_prior(self, copier_run):
        _, resolver = copier_run
        # The copier-of-a-bad-parent earns a posterior well below the
        # 0.8 assumed for unknown sources.
        assert resolver.estimates()["cop00"] < 0.65

    def test_monitor_flags_the_new_source_exactly_once(self, copier_run):
        _, resolver = copier_run
        copier_events = [
            event for event in resolver.events if event.subject == "cop00"
        ]
        assert len(copier_events) == 1
        appear_window = int(self.COPIER_CONFIG.copier_at // 2.0)
        assert copier_events[0].window >= appear_window

    def test_independent_sources_keep_their_standing(self, copier_run):
        world, resolver = copier_run
        estimates = resolver.estimates()
        for source in world.sources:
            assert estimates[source] > 0.5


# ---------------------------------------------------------------------
# The streaming resolver: projection, re-resolution, serving hooks


class TestFuseEntity:

    def test_pick_first_vs_latest(self):
        members = [
            record("s0/000000-1", "s0", "acme unit", 0.0, color="red"),
            record("s0/000005-1", "s0", "acme unit", 5.0, color="green"),
            record("s1/000001-1", "s1", "acme unit", 1.0),
        ]
        accuracy_of = lambda source: 0.8  # noqa: E731
        first, _, _ = fuse_entity(members, accuracy_of, pick="first")
        latest, _, _ = fuse_entity(members, accuracy_of, pick="latest")
        assert first["color"] == "red"
        assert latest["color"] == "green"
        assert first["name"] == latest["name"] == "acme unit"
        with pytest.raises(ConfigurationError):
            fuse_entity(members, accuracy_of, pick="newest")

    def test_drift_mode_projects_the_newest_claims(self):
        """A source that corrects itself updates the drift projection;
        the static projection keeps the serving first-wins rule."""
        records = [
            record("s0/000000-0001", "s0", "acme unit", 0.0, color="red"),
            record("s1/000000-0001", "s1", "acme unit", 0.0, color="red"),
            record("s0/000002-0001", "s0", "acme unit", 2.0, color="blue"),
            record("s1/000002-0001", "s1", "acme unit", 2.0, color="blue"),
            record("s2/000004-0001", "s2", "acme unit", 4.0),
        ]
        accuracies = {"s0": 0.8, "s1": 0.8, "s2": 0.8}
        static = make_resolver(accuracies, window=WindowConfig(size=1.0))
        static.run(records)
        drifting = make_resolver(
            accuracies, window=WindowConfig(size=1.0), decay=0.9
        )
        drifting.run(records)
        (static_entity,) = static.snapshot()["entities"].values()
        (drift_entity,) = drifting.snapshot()["entities"].values()
        assert static_entity["members"] == drift_entity["members"]
        assert static_entity["attributes"]["color"] == "red"
        assert drift_entity["attributes"]["color"] == "blue"


def represented_claims(members, pick):
    """The claims an entity votes with, in vote order: record-id order
    (reversed for ``"latest"``), the first non-empty value each
    ``(source, attribute)`` meets."""
    ordered = sorted(members, key=lambda r: r.record_id)
    claims = {}
    for r in ordered if pick == "first" else reversed(ordered):
        for attribute, value in r.attributes.items():
            if value:
                claims.setdefault((r.source_id, attribute), value)
    return [Claim(s, a, value) for (s, a), value in claims.items()]


def naive_vote(claims, accuracies):
    """The full accuracy-weighted vote, as plainly as it can be said."""
    tallies = {}
    for claim in claims:
        tally = tallies.setdefault(claim.item_id, {})
        weight = vote_count(accuracies[claim.source_id], 10)
        tally[claim.value] = tally.get(claim.value, 0.0) + weight
    winners = {
        item: max(tally, key=lambda value: (tally[value], value))
        for item, tally in tallies.items()
    }
    return winners, tallies


member_sets = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.fixed_dictionaries(
            {},
            optional={
                name: st.sampled_from(["", "A", "B", "C"])
                for name in ("color", "size")
            },
        ),
    ),
    min_size=1,
    max_size=12,
).map(
    lambda rows: [
        Record(f"r{index:02d}", f"s{source}", attributes, float(index))
        for index, (source, attributes) in enumerate(rows)
    ]
)


class TestLiveFusionIsTheFullVote:
    """Every claim an entity holds votes; nothing stops early."""

    @pytest.mark.parametrize(
        "votes, confidence", [("AABBB", 0.9755), ("AAABBBB", 0.9756)]
    )
    def test_the_majority_wins_at_equal_accuracy(self, votes, confidence):
        """Two probes of agreeing sources used to finalise ``A`` at
        0.9938 with three (four) ``B`` claims unread."""
        members = [
            record(f"s{n}/0", f"s{n}", "acme unit", 0.0, color=value)
            for n, value in enumerate(votes)
        ]
        fused, confidences, provenance = fuse_entity(members, lambda s: 0.8)
        assert fused["color"] == "B"
        assert provenance["color"] == [
            m.record_id for m in members if m.attributes["color"] == "B"
        ]
        weight = vote_count(0.8, 10)
        tally = {
            "A": votes.count("A") * weight, "B": votes.count("B") * weight
        }
        assert confidences["color"] == pytest.approx(confidence, abs=5e-5)
        assert confidences["color"] == pytest.approx(
            claim_posterior(tally, "B", 10), abs=1e-12
        )

    @given(
        members=member_sets,
        pick=st.sampled_from(["first", "latest"]),
        accuracy=st.lists(
            st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
            min_size=6,
            max_size=6,
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_winners_are_the_batch_rule_at_known_accuracies(
        self, members, pick, accuracy, data
    ):
        accuracies = {f"s{n}": a for n, a in enumerate(accuracy)}
        asked = []

        def accuracy_of(source):
            asked.append(source)
            return accuracies[source]

        fused, confidence, provenance = fuse_entity(members, accuracy_of, pick)
        assert sorted(asked) == sorted({m.source_id for m in members})

        claims = represented_claims(members, pick)
        winners, tallies = naive_vote(claims, accuracies)
        assert fused == winners
        assert list(fused) == sorted(fused)
        for attribute, winner in fused.items():
            assert confidence[attribute] == claim_posterior(
                tallies[attribute], winner, 10
            )
            assert provenance[attribute] == sorted(
                m.record_id
                for m in members
                if m.attributes.get(attribute) == winner
            )
        shuffled = data.draw(st.permutations(members))
        assert fuse_entity(shuffled, accuracy_of, pick) == (
            fused, confidence, provenance
        )
        if not claims:
            return
        claim_set = ClaimSet(claims)
        votes = [vote_count(accuracies[s], 10) for s in claim_set.sources()]

        def plain_tally(values, supporters):
            return [math.fsum(votes[p] for p in who) for who in supporters]

        scores, __ = score(claim_set, plain_tally)
        assert choose(claim_set, scores)[0] == fused
        # AccuVote ranks the softmax of the same tally, which can round
        # two scores an ulp apart into one probability.
        near_tie = any(
            0.0 < abs(a - b) < 1e-9
            for tally in tallies.values()
            for a, b in itertools.combinations(tally.values(), 2)
        )
        batch = AccuVote(known_accuracies=accuracies).fuse(ClaimSet(claims))
        assert near_tie or batch.chosen == fused

    def test_accuracy_against_planted_truth(self):
        """Seven sources, eight wrong values, every source trusted at
        0.8: the full vote misses 3 items of 1,500; stopping at the
        second agreeing probe missed 8 (0.9947). The ledger's
        ``quality`` compares the live table with a batch run of this
        same function and cannot see the difference."""
        world = generate_claims(
            ClaimWorldConfig(
                n_items=1500,
                n_independent=7,
                coverage=1.0,
                n_false_values=8,
                seed=5,
            )
        )
        correct = 0
        for item in world.claims.items():
            members = [
                Record(f"{c.source_id}/{item}", c.source_id, {"v": c.value})
                for c in world.claims.claims_for(item)
            ]
            fused, _, _ = fuse_entity(members, lambda source: 0.8)
            correct += fused["v"] == world.truth[item]
        assert correct / 1500 == 0.998


class TestStreamingResolver:

    def test_decay_none_resolver_uses_static_accuracies(self):
        world = DriftWorld(DIFF_CONFIG)
        accuracies = world.accuracies_at(0.0)
        resolver = make_resolver(accuracies)
        resolver.run(world.take(150))
        assert resolver.accuracies() == dict(sorted(accuracies.items()))

    def test_window_results_carry_costs_and_lags(self):
        world = DriftWorld(DIFF_CONFIG)
        clock = ManualClock(start=0.0, tick=1.0)
        resolver = make_resolver(world.accuracies_at(0.0), clock=clock)
        results = resolver.run(world.take(120))
        assert sum(result.n_records for result in results) == 120
        for result in results:
            assert result.comparisons >= result.matches >= 0
            assert len(result.lags) == result.n_records
            assert all(lag >= 0.0 for lag in result.lags)

    def test_match_rate_does_not_grow_with_entity_size(self):
        """The drift signal is accepted decisions over decisions made,
        one vote per (record, entity) link: the same link structure
        observed 5 or 50 times a window reads the same rate. (Counting
        one vote per entity *member* it read 0.75 and 0.96 here.)"""
        products = ["canon powershot a560", "nikon coolpix p50"]
        decoys = ["canon eos 400d", "nikon d40 kit"]

        def stream(per_window):
            # Window 0 seeds each block: a decoy, then the product.
            for block, decoy in enumerate(decoys):
                yield Record(f"0/decoy{block}", "s0", {"name": decoy}, 0.0)
            for window in range(3):
                for block, product in enumerate(products):
                    for n in range(per_window if window else 1):
                        yield Record(
                            f"{window}/{block}/{n:02d}",
                            f"s{n % 4}",
                            {"name": product},
                            2.0 * window + 1.0,
                        )

        rates = {}
        for per_window in (5, 50):
            resolver = make_resolver({})
            results = resolver.run(stream(per_window))
            assert [r.n_records for r in results] == [
                4, 2 * per_window, 2 * per_window
            ]
            assert resolver.n_entities == 4
            rates[per_window] = [r.match_rate for r in results]
        assert rates[5] == rates[50] == [0.0, 0.5, 0.5]

    def test_re_resolve_preserves_partition_and_counts(self):
        world = DriftWorld(DIFF_CONFIG)
        resolver = make_resolver(world.accuracies_at(0.0))
        resolver.run(world.take(150))
        before = canonical(resolver.snapshot()["entities"])
        count = resolver.re_resolve(
            StandardBlocker(first_token_key("name"))
        )
        assert count == resolver.n_entities
        assert resolver.re_resolutions == 1
        # Batch re-resolution of a static-mode projection is a no-op:
        # greedy incremental already equals batch connected components.
        assert canonical(resolver.snapshot()["entities"]) == before

    def test_on_drift_callback_can_trigger_re_resolution(self):
        world = DriftWorld(FLIP_CONFIG)
        blocker = StandardBlocker(first_token_key("name"))
        resolver = make_resolver(
            world.accuracies_at(0.0),
            decay=0.7,
            tracked_attributes=CONFLICT_ATTRIBUTES,
            on_drift=lambda event, r: r.re_resolve(blocker),
        )
        results = resolver.run(
            itertools.islice(world.stream(), 50_000), max_windows=16
        )
        assert resolver.re_resolutions >= 1
        fired = [result for result in results if result.events]
        assert fired and all(result.re_resolved for result in fired)

    def test_streaming_monitor_updates_serving_accuracies(self, tmp_path):
        """The serve integration: a drift event pushes fresh estimates
        into a live ResolutionService, which re-fuses under them."""
        from repro.serve import ResolutionService

        service = ResolutionService(
            tmp_path,
            key_functions=[first_token_key("name")],
            comparator=default_product_comparator(),
            classifier=ThresholdClassifier(MATCH_THRESHOLD),
            source_accuracies={"src00": 0.9},
            durable=False,
        )
        world = DriftWorld(FLIP_CONFIG)
        pushed = []

        def on_drift(event, resolver):
            estimates = resolver.estimates()
            service.set_source_accuracies(estimates)
            pushed.append(estimates)

        resolver = make_resolver(
            world.accuracies_at(0.0),
            decay=0.7,
            tracked_attributes=CONFLICT_ATTRIBUTES,
            on_drift=on_drift,
        )
        resolver.run(
            itertools.islice(world.stream(), 50_000), max_windows=16
        )
        assert pushed
        assert service._source_accuracies == pushed[-1]

    def test_tracer_counters(self):
        world = DriftWorld(DIFF_CONFIG)
        tracer = Tracer()
        resolver = make_resolver(
            world.accuracies_at(0.0), tracer=tracer
        )
        results = resolver.run(world.take(120))
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["streaming.windows_closed"] == len(results)
        assert counters["streaming.window_records"] == 120


class TestCheckpointResume:

    def make_stored(self, tmp_path, name, decay=0.7):
        world = DriftWorld(FLIP_CONFIG)
        store = RunStore(tmp_path / name, durable=False)
        resolver = make_resolver(
            world.accuracies_at(0.0),
            decay=decay,
            tracked_attributes=CONFLICT_ATTRIBUTES,
            checkpoint_store=store,
        )
        return world, resolver

    def test_resume_converges_byte_identical(self, tmp_path):
        world, baseline = self.make_stored(tmp_path, "baseline")
        baseline.run(
            itertools.islice(world.stream(), 50_000), max_windows=10
        )
        expected = canonical(baseline.snapshot())

        world2, first = self.make_stored(tmp_path, "killed")
        first.run(
            itertools.islice(world2.stream(), 50_000), max_windows=6
        )
        # "Kill": drop the resolver; only the RunStore survives.
        _, resumed = self.make_stored(tmp_path, "killed")
        stream = iter(world2.stream())
        replayed = resumed.resume(stream)
        assert replayed == first.consumed
        for _ in resumed.process(stream):
            if resumed.windows_closed >= 10:
                break
        assert canonical(resumed.snapshot()) == expected
        assert [event.to_json() for event in resumed.events] == [
            event.to_json() for event in baseline.events
        ]

    @pytest.mark.parametrize(
        "changed",
        [
            dict(window=WindowConfig(size=5.0)),
            dict(classifier=ThresholdClassifier(0.95)),
            dict(window=WindowConfig(size=5.0),
                 classifier=ThresholdClassifier(0.95)),
        ],
        ids=["window", "threshold", "both"],
    )
    def test_resume_under_another_configuration_is_refused(
        self, tmp_path, changed
    ):
        world = DriftWorld(FLIP_CONFIG)

        def resolver(
            window=WindowConfig(size=2.0),
            classifier=ThresholdClassifier(MATCH_THRESHOLD),
        ):
            return StreamingResolver(
                key_functions=[first_token_key("name")],
                comparator=default_product_comparator(),
                classifier=classifier,
                source_accuracies=world.accuracies_at(0.0),
                window=window,
                checkpoint_store=RunStore(tmp_path, durable=False),
            )

        first = resolver()
        first.run(itertools.islice(world.stream(), 50_000), max_windows=3)
        with pytest.raises(CheckpointMismatchError):
            resolver(**changed).resume(iter(world.stream()))
        # The configuration that wrote the checkpoint still resumes it.
        assert resolver().resume(iter(world.stream())) == first.consumed

    def test_resume_under_another_comparator_is_refused(self, tmp_path):
        from repro.linkage import FieldComparator, RecordComparator
        from repro.text import jaccard_similarity

        world = DriftWorld(FLIP_CONFIG)

        def resolver(comparator):
            return StreamingResolver(
                key_functions=[first_token_key("name")],
                comparator=comparator,
                classifier=ThresholdClassifier(MATCH_THRESHOLD),
                source_accuracies=world.accuracies_at(0.0),
                window=WindowConfig(size=2.0),
                checkpoint_store=RunStore(tmp_path, durable=False),
            )

        first = resolver(default_product_comparator())
        first.run(itertools.islice(world.stream(), 50_000), max_windows=3)
        with pytest.raises(CheckpointMismatchError):
            resolver(RecordComparator([FieldComparator("name", jaccard_similarity)]))
        resumed = resolver(default_product_comparator())
        assert resumed.resume(iter(world.stream())) == first.consumed

    def test_resume_skips_redelivered_records(self, tmp_path):
        """The same kill/resume over the stream with records re-emitted:
        killed or not, it ends on the clean stream's entities, having
        counted every redelivery exactly once."""
        world, clean = self.make_stored(tmp_path, "clean")
        clean.run(itertools.islice(world.stream(), 50_000), max_windows=10)
        expected = canonical(clean.snapshot()["entities"])

        unkilled_feed = Redelivery()
        _, unkilled = self.make_stored(tmp_path, "unkilled")
        unkilled.run(
            unkilled_feed(itertools.islice(world.stream(), 50_000)),
            max_windows=10,
        )
        assert canonical(unkilled.snapshot()["entities"]) == expected
        assert unkilled.duplicate_records == unkilled_feed.emitted > 0

        _, first = self.make_stored(tmp_path, "killed")
        first.run(
            Redelivery()(itertools.islice(world.stream(), 50_000)),
            max_windows=6,
        )
        assert 0 < first.duplicate_records < unkilled.duplicate_records
        _, resumed = self.make_stored(tmp_path, "killed")
        stream = Redelivery()(world.stream())
        assert resumed.resume(stream) == first.consumed
        assert resumed.duplicate_records == first.duplicate_records
        for _ in resumed.process(stream):
            if resumed.windows_closed >= 10:
                break
        assert canonical(resumed.snapshot()) == canonical(unkilled.snapshot())
        assert canonical(resumed.snapshot()["entities"]) == expected
        assert resumed.duplicate_records == unkilled.duplicate_records
        assert [event.to_json() for event in resumed.events] == [
            event.to_json() for event in clean.events
        ]

    def test_checkpoint_without_duplicate_count_reads_zero(self, tmp_path):
        world, first = self.make_stored(tmp_path, "old")
        first.run(itertools.islice(world.stream(), 50_000), max_windows=3)
        store = RunStore(tmp_path / "old", durable=False)
        payload = store.load("streaming.checkpoint")
        del payload["duplicate_records"]
        store.save("streaming.checkpoint", payload)
        _, resumed = self.make_stored(tmp_path, "old")
        assert resumed.resume(iter(world.stream())) == first.consumed
        assert resumed.duplicate_records == 0
        assert canonical(resumed.snapshot()) == canonical(first.snapshot())

    def test_resume_without_checkpoint_is_a_fresh_start(self, tmp_path):
        world, resolver = self.make_stored(tmp_path, "fresh")
        assert resolver.resume(iter(world.stream())) == 0

    def test_resume_requires_store_and_fresh_resolver(self, tmp_path):
        world = DriftWorld(FLIP_CONFIG)
        resolver = make_resolver(world.accuracies_at(0.0))
        with pytest.raises(ConfigurationError):
            resolver.resume(iter(world.stream()))
        _, stored = self.make_stored(tmp_path, "used")
        stored.run(world.take(100))
        with pytest.raises(ConfigurationError):
            stored.resume(iter(world.stream()))


# ---------------------------------------------------------------------
# Serve: accuracy hot-swap


class TestServeAccuracyUpdate:

    def build(self, tmp_path, accuracies):
        from repro.serve import ResolutionService

        return ResolutionService(
            tmp_path,
            key_functions=[first_token_key("name")],
            comparator=default_product_comparator(),
            classifier=ThresholdClassifier(MATCH_THRESHOLD),
            source_accuracies=accuracies,
            durable=False,
        )

    def conflicted_records(self):
        return [
            record("s0/r0", "s0", "acme unit 1", None, color="red"),
            record("s1/r1", "s1", "acme unit 1", None, color="blue"),
            record("s2/r2", "s2", "acme unit 1", None, color="blue"),
        ]

    def test_refuses_invalid_accuracy(self, tmp_path):
        service = self.build(tmp_path, {"s0": 0.9})
        with pytest.raises(ConfigurationError):
            service.set_source_accuracies({"s0": 1.5})

    def test_swap_re_fuses_in_place_and_flips_fused_values(self, tmp_path):
        service = self.build(tmp_path, {"s0": 0.95, "s1": 0.55, "s2": 0.55})
        entity_id = None
        for rec in self.conflicted_records():
            entity_id = service.ingest(
                Record(rec.record_id, rec.source_id, rec.attributes)
            ).entity_id
        assert service.get(entity_id).attributes["color"] == "red"
        generation = service.generation
        service.set_source_accuracies({"s0": 0.2, "s1": 0.9, "s2": 0.9})
        updated = service.get(entity_id)
        assert updated.attributes["color"] == "blue"
        assert updated.members == ("s0/r0", "s1/r1", "s2/r2")
        assert service.generation == generation


# ---------------------------------------------------------------------
# Unbounded synth generators: bounded outputs are exact prefixes


class TestUnboundedGeneratorPins:

    def test_evolve_world_is_a_prefix_of_the_snapshot_stream(self):
        from repro.synth import (
            EvolvingWorldConfig,
            WorldConfig,
            evolve_world,
            generate_world,
            stream_world_snapshots,
        )

        world = generate_world(
            WorldConfig(
                categories=("camera",), entities_per_category=12, seed=5
            )
        )
        config = EvolvingWorldConfig(
            n_snapshots=4, change_rate=0.2, death_rate=0.1, seed=6
        )
        bounded = evolve_world(world, config)
        streamed = list(
            itertools.islice(stream_world_snapshots(world, config), 6)
        )
        assert [w.entities for w in streamed[:4]] == [
            w.entities for w in bounded
        ]
        # Fresh iterators replay identically (restartability).
        again = list(
            itertools.islice(stream_world_snapshots(world, config), 6)
        )
        assert [w.entities for w in again] == [w.entities for w in streamed]

    def test_temporal_dataset_is_a_prefix_of_the_record_stream(self):
        from repro.synth import (
            TemporalStreamConfig,
            generate_temporal_dataset,
            stream_temporal_observations,
        )

        config = TemporalStreamConfig(n_entities=6, n_epochs=3, seed=17)
        dataset = generate_temporal_dataset(config)
        bounded = sorted(
            dataset.records(), key=lambda r: r.record_id
        )
        records = (r for r, _ in stream_temporal_observations(config))
        streamed = list(itertools.islice(records, len(bounded)))
        assert sorted(streamed, key=lambda r: r.record_id) == bounded
        # The stream keeps going past the bounded horizon, with epochs
        # advancing as event time.
        tail = list(itertools.islice(records, 12))
        assert tail and all(
            r.timestamp >= config.n_epochs for r in tail
        )

    def test_drift_stream_feeds_the_resolver_unbounded(self):
        """End-to-end: an unbounded generator drives the resolver and
        is stopped by window count, never by input exhaustion."""
        world = DriftWorld(DIFF_CONFIG)
        resolver = make_resolver(world.accuracies_at(0.0))
        results = resolver.run(world.stream(), max_windows=3)
        assert len(results) == 3
        assert resolver.windows_closed == 3


# ---------------------------------------------------------------------
# Velocity: pull-driven snapshot maintenance


class TestSnapshotMaintainerStream:

    def test_process_stream_matches_the_snapshot_loop(self):
        from repro.synth import (
            CorpusConfig,
            EvolvingWorldConfig,
            WorldConfig,
            evolve_world,
            generate_world,
        )
        from repro.velocity import (
            SnapshotConfig,
            SnapshotMaintainer,
            render_snapshots,
        )

        world = generate_world(
            WorldConfig(
                categories=("camera",), entities_per_category=20, seed=5
            )
        )
        worlds = evolve_world(
            world,
            EvolvingWorldConfig(
                n_snapshots=4, change_rate=0.2, death_rate=0.08, seed=6
            ),
        )
        datasets = render_snapshots(
            worlds,
            CorpusConfig(
                n_sources=4, min_source_size=8, max_source_size=20, seed=7
            ),
            SnapshotConfig(seed=8),
        )

        def maintainer():
            return SnapshotMaintainer(
                [first_token_key("name")],
                default_product_comparator(),
                ThresholdClassifier(MATCH_THRESHOLD),
            )

        loop = maintainer()
        expected = [loop.process_snapshot(d) for d in datasets]
        streaming = maintainer()
        streamed = list(streaming.process_stream(iter(datasets)))
        assert streamed == expected
        assert streaming.clusters() == loop.clusters()

        bounded = maintainer()
        assert (
            list(itertools.islice(bounded.process_stream(iter(datasets)), 2))
            == expected[:2]
        )


# ---------------------------------------------------------------------
# The live path stays off numpy: importing it alone costs ~13 MB of
# peak RSS per process, which the scalar scoring path no longer needs
# to be fast (the similarity memos closed that gap).

NUMPY_FREE_SCRIPT = """
import sys
import repro.streaming
# Streaming reaches the shared core directly, not through serve.
assert "repro.serve" not in sys.modules
assert "repro.supervision" not in sys.modules
import repro.serve
from repro.linkage import ThresholdClassifier, default_product_comparator
from repro.linkage.blocking import first_token_key
from repro.streaming import (
    DriftStreamConfig, DriftWorld, StreamingResolver, WindowConfig,
)

world = DriftWorld(DriftStreamConfig(n_entities=8, n_sources=4, seed=7))
resolver = StreamingResolver(
    key_functions=[first_token_key("name")],
    comparator=default_product_comparator(),
    classifier=ThresholdClassifier(0.72),
    source_accuracies=world.accuracies_at(0.0),
    window=WindowConfig(size=1.0),
)
(result,) = resolver.run(world.stream(), max_windows=1)
assert result.comparisons > 0
print("numpy" in sys.modules)
"""


class TestLivePathStaysOffNumpy:
    def test_streaming_and_serve_never_import_numpy(self):
        finished = run_python("-c", NUMPY_FREE_SCRIPT)
        assert finished.returncode == 0, finished.stderr
        assert finished.stdout.strip() == "False"


# ---------------------------------------------------------------------
# Observability instrument


class TestObserveStreamWindow:

    def test_emits_counters_gauges_and_lag_histogram(self):
        world = DriftWorld(DIFF_CONFIG)
        resolver = make_resolver(world.accuracies_at(0.0))
        (result, *_rest) = resolver.run(world.take(120))
        tracer = Tracer()
        observe_stream_window(tracer, result)
        snapshot = tracer.metrics.snapshot()
        assert snapshot["counters"]["streaming.windows_closed"] == 1
        assert (
            snapshot["counters"]["streaming.window_records"]
            == result.n_records
        )
        assert snapshot["gauges"]["streaming.watermark"] == result.watermark
        histogram = snapshot["histograms"]["streaming.lag"]
        assert histogram["count"] == result.n_records
