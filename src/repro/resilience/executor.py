"""The resilient chunk executor: retry → bisect → quarantine.

This is the recovery loop every fault-tolerant execution path shares;
its two callers are the comparison engine (chunks of id pairs, on every
backend and inside every shard) and the serving layer's ingest (one
record id per chunk, indexed by its log position). Work arrives as
chunks plus a ``run_attempt(items, timeout)`` callable supplied by the
caller (a direct call for serial execution, a pool submission with a
real future timeout for the process backend). The executor then
guarantees:

1. **Retry with backoff** — a crashed, timed-out, or garbage-returning
   attempt is retried up to ``RetryPolicy.max_attempts`` times, sleeping
   the policy's exponential-backoff schedule between attempts (through
   the injectable clock/sleep, so tests assert exact timings).
2. **Bisection** — a chunk that exhausts its attempts is split in half
   and each half gets a fresh attempt budget, recursively, isolating
   the *poison item* from its innocent neighbours in O(log n) rounds.
3. **Graceful degradation** — what happens to the isolated failure is
   the :data:`~repro.resilience.policy.FailurePolicy`'s call: ``"fail"``
   aborts on first failure, ``"retry"`` raises
   :class:`~repro.resilience.policy.PoisonPairError` after exhaustion,
   ``"skip"`` quarantines into the
   :class:`~repro.resilience.deadletter.DeadLetterLog` and the run
   completes with partial results.
4. **One deadline** — checked before every attempt, so none starts
   after it; an expired unit is quarantined whole (``kind="deadline"``,
   the attempts it made) under ``"skip"``, else raises
   :class:`~repro.resilience.policy.DeadlineExceededError`.

Every attempt, retry, failure, bisection, and quarantine emits
``resilience.*`` counters, and a heartbeat gauge set
(``resilience.heartbeat_seq`` / ``heartbeat_chunk`` /
``heartbeat_time``) is written *before* each attempt blocks — so a
hung worker is visible in the :class:`~repro.obs.report.RunReport` as
a heartbeat frozen at the stalled chunk. The sequence number is the
load-bearing one: it increments monotonically per attempt, so a
supervisor comparing consecutive observations can tell "dead between
heartbeats" from "slow" without consulting any wall clock — a frozen
seq is staleness regardless of how timestamps drift. When the config
carries a ``heartbeat`` emitter
(:class:`repro.supervision.HeartbeatEmitter`), the same beat is
published cross-process before every attempt.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs import NULL_TRACER
from repro.obs.clock import SystemClock
from repro.resilience.deadletter import DeadLetterEntry, DeadLetterLog
from repro.resilience.policy import (
    ChunkExecutionError,
    ChunkResultInvalid,
    ChunkTimeoutError,
    DeadlineExceededError,
    InjectedHang,
    PoisonPairError,
    ResilienceConfig,
)

__all__ = ["ResilientChunkExecutor", "ResilientOutcome"]

RunAttempt = Callable[[list, "float | None"], object]
Validator = Callable[[list, object], None]


@dataclass
class ResilientOutcome:
    """What one resilient pass produced.

    ``results`` lists ``(items, value)`` units in input order; after
    bisection one input chunk may contribute several units, and
    quarantined items contribute none. ``completed_chunks`` counts
    top-level chunks whose every item succeeded.
    """

    results: list[tuple[list, object]] = field(default_factory=list)
    dead_letters: DeadLetterLog = field(default_factory=DeadLetterLog)
    n_chunks: int = 0
    completed_chunks: int = 0
    n_attempts: int = 0
    n_retries: int = 0
    n_bisections: int = 0
    replayed_chunks: int = 0

    @property
    def quarantined_items(self) -> tuple:
        return self.dead_letters.quarantined_items()


class _Failure:
    """The classified outcome of an exhausted attempt loop."""

    __slots__ = ("kind", "error", "attempts")

    def __init__(self, kind: str, error: BaseException, attempts: int):
        self.kind = kind
        self.error = error
        self.attempts = attempts


class ResilientChunkExecutor:
    """Runs chunked work under a :class:`ResilienceConfig`.

    Parameters
    ----------
    config:
        Retry policy, failure policy, timeout/deadline, injectable
        clock/sleep, and the optional fault injector.
    tracer:
        An :class:`repro.obs.Tracer` for the ``resilience.*`` counters,
        heartbeat gauges, and the per-run span. Defaults to the no-op.
    scope:
        Names the execution layer in dead-letter entries and span
        attributes (``"engine.chunk"``).
    checkpoint:
        An optional checkpoint store (a
        :class:`repro.recovery.RunStore` or a view of one). When set,
        each completed top-level chunk — its result units, its
        dead-letter entries, whether it was fully clean — is durably
        saved under ``chunk.{index}``, and a later run over the same
        chunk list replays saved chunks instead of recomputing them. A
        per-chunk content signature guards against replaying another
        workload's chunks.
    """

    def __init__(
        self,
        config: ResilienceConfig,
        tracer=None,
        scope: str = "engine.chunk",
        checkpoint=None,
    ) -> None:
        self._config = config
        self._clock = config.clock or SystemClock()
        self._sleep = config.sleep or time.sleep
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._scope = scope
        self._checkpoint = checkpoint
        self._heartbeat_seq = 0
        # Route the store's recovery.* counters into this run's tracer
        # unless the caller already bound one.
        if (
            checkpoint is not None
            and self._tracer is not NULL_TRACER
            and getattr(checkpoint, "tracer", None) is NULL_TRACER
        ):
            checkpoint.tracer = self._tracer

    def run(
        self,
        chunks: Sequence[list],
        run_attempt: RunAttempt,
        validate: Validator | None = None,
    ) -> ResilientOutcome:
        """Execute every chunk, recovering per the configured policy.

        ``validate(items, value)`` (optional) must raise
        :class:`ChunkResultInvalid` when a result's shape is wrong —
        the garbage-detection hook that turns silent corruption into a
        retryable failure.
        """
        return self._execute(
            enumerate(chunks), run_attempt, validate, None, len(chunks)
        )

    def run_chunk(
        self,
        index: int,
        items: list,
        run_attempt: RunAttempt,
        validate: Validator | None = None,
        deadline: float | None = None,
    ) -> ResilientOutcome:
        """Run one chunk as top-level chunk ``index`` (fault specs,
        dead-letter ids and the heartbeat name it); ``deadline``
        (seconds) replaces the config's for this call."""
        return self._execute(
            ((index, items),), run_attempt, validate, None, 1, deadline
        )

    def run_stream(
        self,
        chunks,
        run_attempt: RunAttempt,
        validate: Validator | None = None,
        consume=None,
    ) -> ResilientOutcome:
        """Like :meth:`run` over a lazily produced chunk sequence.

        ``chunks`` may be any iterable — its length is never taken, so
        a generator feeding chunks straight out of a spill merge works;
        the outcome's ``n_chunks`` is counted as chunks arrive. When
        ``consume(items, value)`` is given, each completed result unit
        is handed to it in input order and *not* retained on the
        outcome, keeping resident memory bounded by one chunk's results
        however long the stream runs. Checkpoint persist/replay still
        operates per top-level chunk, before the units are consumed.
        """
        return self._execute(
            enumerate(chunks), run_attempt, validate, consume, None
        )

    def _execute(
        self,
        indexed_chunks,
        run_attempt: RunAttempt,
        validate: Validator | None,
        consume,
        n_chunks: int | None,
        deadline: float | None = None,
    ) -> ResilientOutcome:
        tracer = self._tracer
        outcome = ResilientOutcome(
            n_chunks=n_chunks or 0,
            dead_letters=DeadLetterLog(
                path=self._config.dead_letter_path,
                max_entries=self._config.dead_letter_max_entries,
                max_bytes=self._config.dead_letter_max_bytes,
            ),
        )
        budget = self._config.deadline if deadline is None else deadline
        started = self._clock.now()
        run_deadline = None if budget is None else (started, budget)
        with tracer.span(
            "resilience.execute",
            scope=self._scope,
            failure_policy=self._config.failure,
        ) as span:
            for done, (index, chunk) in enumerate(indexed_chunks, 1):
                items = list(chunk)
                if n_chunks is None:
                    outcome.n_chunks = done
                n_units = len(outcome.results)
                n_dead = len(outcome.dead_letters)
                if not self._replay(index, items, outcome):
                    fully_ok = self._recover(
                        str(index),
                        index,
                        items,
                        run_attempt,
                        validate,
                        run_deadline,
                        outcome,
                    )
                    if fully_ok:
                        outcome.completed_chunks += 1
                    self._persist(
                        index, items, outcome, n_units, n_dead, fully_ok
                    )
                if consume is not None:
                    for unit_items, value in outcome.results[n_units:]:
                        consume(unit_items, value)
                    del outcome.results[n_units:]
                tracer.gauge("resilience.chunks_done").set(done)
            span.set("n_chunks", outcome.n_chunks)
            self._publish(span, outcome)
        return outcome

    # --- checkpointing -----------------------------------------------

    @staticmethod
    def _signature(items: list) -> str:
        """Content signature tying a checkpoint to its exact workload."""
        return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()

    def _replay(self, index: int, items: list, outcome) -> bool:
        """Restore chunk ``index`` from the checkpoint store, if saved.

        A signature mismatch (different items at this position) or a
        corrupt artifact falls through to recomputation — a stale or
        damaged checkpoint can cost time, never correctness.
        """
        if self._checkpoint is None:
            return False
        saved = self._checkpoint.load(f"chunk.{index}")
        if saved is None:
            return False
        if saved.get("signature") != self._signature(items):
            self._tracer.counter("recovery.signature_mismatch").inc()
            return False
        outcome.results.extend(saved["units"])
        # Replayed dead letters were already persisted by the killed
        # run; restore() re-attaches them without re-appending to the
        # durable sink.
        outcome.dead_letters.restore(saved["dead"])
        if saved["fully_ok"]:
            outcome.completed_chunks += 1
        outcome.replayed_chunks += 1
        self._tracer.counter("recovery.chunks_replayed").inc()
        return True

    def _persist(
        self,
        index: int,
        items: list,
        outcome,
        n_units: int,
        n_dead: int,
        fully_ok: bool,
    ) -> None:
        """Durably checkpoint what chunk ``index`` just produced."""
        if self._checkpoint is None:
            return
        self._checkpoint.save(
            f"chunk.{index}",
            {
                "signature": self._signature(items),
                "units": outcome.results[n_units:],
                "dead": list(outcome.dead_letters.entries[n_dead:]),
                "fully_ok": fully_ok,
            },
        )

    # --- recovery ----------------------------------------------------

    def _recover(
        self,
        chunk_id: str,
        top_index: int,
        items: list,
        run_attempt: RunAttempt,
        validate: Validator | None,
        deadline: tuple[float, float] | None,
        outcome: ResilientOutcome,
    ) -> bool:
        """Run one (sub-)chunk to success, bisection, or quarantine."""
        config = self._config
        value, failure = self._attempt_loop(
            chunk_id, top_index, items, run_attempt, validate, deadline,
            outcome,
        )
        if failure is None:
            outcome.results.append((items, value))
            return True
        if failure.kind == "deadline":
            # Expired: nothing more may start, so no bisection either.
            if config.failure != "skip":
                raise failure.error
            self._quarantine(chunk_id, failure, items, outcome)
            return False
        if config.failure == "fail":
            raise ChunkExecutionError(
                chunk_id,
                failure.kind,
                failure.attempts,
                tuple(items),
                failure.error,
            ) from failure.error
        if len(items) > 1:
            outcome.n_bisections += 1
            self._tracer.counter("resilience.bisections").inc()
            mid = len(items) // 2
            left_ok = self._recover(
                chunk_id + ".0", top_index, items[:mid],
                run_attempt, validate, deadline, outcome,
            )
            right_ok = self._recover(
                chunk_id + ".1", top_index, items[mid:],
                run_attempt, validate, deadline, outcome,
            )
            return left_ok and right_ok
        if config.failure == "skip":
            self._quarantine(chunk_id, failure, items, outcome)
            return False
        raise PoisonPairError(
            chunk_id,
            failure.kind,
            failure.attempts,
            items[0],
            failure.error,
        ) from failure.error

    def _attempt_loop(
        self,
        chunk_id: str,
        top_index: int,
        items: list,
        run_attempt: RunAttempt,
        validate: Validator | None,
        deadline: tuple[float, float] | None,
        outcome: ResilientOutcome,
    ) -> tuple[object, _Failure | None]:
        """Try one chunk up to the policy's attempt budget, starting no
        attempt once the run's ``(started, budget)`` deadline passed."""
        config = self._config
        tracer = self._tracer
        injector = config.fault_injector
        max_attempts = (
            1 if config.failure == "fail" else config.retry.max_attempts
        )
        failure: _Failure | None = None
        for attempt in range(1, max_attempts + 1):
            if deadline is not None:
                started, budget = deadline
                now = self._clock.now()
                if now >= started + budget:
                    error = DeadlineExceededError(budget, now - started)
                    return None, _Failure("deadline", error, attempt - 1)
            # Heartbeat first, so a stall leaves the last dispatched
            # chunk/attempt/timestamp visible in the run report. The
            # sequence number increments on every attempt: a worker
            # that dies between beats leaves it frozen, which is how
            # staleness is detected without wall clocks.
            self._heartbeat_seq += 1
            tracer.gauge("resilience.heartbeat_seq").set(self._heartbeat_seq)
            tracer.gauge("resilience.heartbeat_chunk").set(top_index)
            tracer.gauge("resilience.heartbeat_attempt").set(attempt)
            tracer.gauge("resilience.heartbeat_time").set(self._clock.now())
            if config.heartbeat is not None:
                config.heartbeat.beat(chunk=top_index, attempt=attempt)
            outcome.n_attempts += 1
            tracer.counter("resilience.attempts").inc()
            try:
                if injector is not None:
                    injector.on_attempt(top_index, items, attempt)
                value = run_attempt(list(items), config.timeout)
                if injector is not None:
                    value = injector.on_result(
                        top_index, items, attempt, value
                    )
                if validate is not None:
                    validate(items, value)
                return value, None
            except InjectedHang as error:
                # Simulate waiting out the full per-attempt timeout.
                if config.timeout is not None:
                    self._sleep(config.timeout)
                failure = _Failure("timeout", error, attempt)
            except ChunkTimeoutError as error:
                failure = _Failure("timeout", error, attempt)
            except ChunkResultInvalid as error:
                failure = _Failure("garbage", error, attempt)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:  # noqa: BLE001 — any worker crash
                failure = _Failure("crash", error, attempt)
            tracer.counter("resilience.failures").inc()
            tracer.counter(f"resilience.failures_{failure.kind}").inc()
            if attempt < max_attempts:
                delay = config.retry.delay(attempt, salt=chunk_id)
                tracer.counter("resilience.backoff_seconds").inc(delay)
                self._sleep(delay)
                tracer.counter("resilience.retries").inc()
                outcome.n_retries += 1
        return None, failure

    def _quarantine(
        self,
        chunk_id: str,
        failure: _Failure,
        items: list,
        outcome: ResilientOutcome,
    ) -> None:
        entry = DeadLetterEntry(
            scope=self._scope,
            chunk_id=chunk_id,
            kind=failure.kind,
            error_type=type(failure.error).__name__,
            error=str(failure.error),
            attempts=failure.attempts,
            items=tuple(items),
            quarantined_at=self._clock.now(),
        )
        outcome.dead_letters.add(entry)
        self._tracer.counter("resilience.quarantined_items").inc(len(items))
        self._tracer.counter("resilience.quarantined_entries").inc()

    def _publish(self, span, outcome: ResilientOutcome) -> None:
        """Touch every counter and stamp the span (zeroed when clean)."""
        tracer = self._tracer
        for name in (
            "resilience.attempts",
            "resilience.retries",
            "resilience.failures",
            "resilience.bisections",
            "resilience.quarantined_items",
            "resilience.quarantined_entries",
            "resilience.backoff_seconds",
        ):
            tracer.counter(name).inc(0)
        span.set("completed_chunks", outcome.completed_chunks)
        span.set("replayed_chunks", outcome.replayed_chunks)
        span.set("n_attempts", outcome.n_attempts)
        span.set("n_retries", outcome.n_retries)
        span.set("n_bisections", outcome.n_bisections)
        span.set("n_quarantined", len(outcome.quarantined_items))
