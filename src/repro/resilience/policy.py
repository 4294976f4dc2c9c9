"""Retry, timeout, and failure policies for fault-tolerant execution.

At web scale partial failure is the norm, not the exception: a worker
process dies, a chunk of comparisons hangs on a pathological input, a
reducer returns garbage after an OOM. The policies here describe *what
the driver should do about it* — how many times to retry, how long to
back off, whether to abort, keep trying, or quarantine — as frozen,
picklable data that threads unchanged through the engine, the
distributed driver, and the pipeline config.

Timing is fully injectable: backoff sleeps and deadline checks flow
through the clock/sleep carried on :class:`ResilienceConfig`, so tests
pair a :class:`~repro.obs.clock.ManualClock` with ``sleep=clock.advance``
and assert *exact* schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import ConfigurationError, ReproError, reduce_by_state

__all__ = [
    "ChunkExecutionError",
    "ChunkResultInvalid",
    "ChunkTimeoutError",
    "DeadlineExceededError",
    "InjectedCrash",
    "InjectedHang",
    "InjectedWorkerDeath",
    "PoisonPairError",
    "ResilienceConfig",
    "ResilienceError",
    "RetryPolicy",
]

#: What to do with a unit of work that keeps failing
#: (:attr:`ResilienceConfig.failure`).
#:
#: - ``"fail"``  — abort on the *first* failure, no retries (fail fast).
#: - ``"retry"`` — retry with backoff, bisect repeated failures down to
#:   the poison unit, then raise :class:`PoisonPairError`.
#: - ``"skip"``  — like ``"retry"``, but quarantine persistent failures
#:   into a :class:`~repro.resilience.deadletter.DeadLetterLog` and
#:   complete the run with partial results.
FAILURE_POLICIES: tuple[str, ...] = ("fail", "retry", "skip")


class ResilienceError(ReproError):
    """Base class for fault-tolerance errors."""


class ChunkExecutionError(ResilienceError):
    """A chunk of work failed beyond what the policy allows.

    Carries enough to identify the failing work: the chunk id (a
    bisection path like ``"3"`` or ``"3.1.0"``), the failure kind, the
    attempt count, and the items the chunk held.
    """

    def __init__(
        self,
        chunk_id: str,
        kind: str,
        attempts: int,
        items: tuple,
        cause: BaseException | None = None,
    ) -> None:
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"chunk {chunk_id} failed ({kind}) after "
            f"{attempts} attempt(s) over {len(items)} item(s){detail}"
        )
        self.chunk_id = chunk_id
        self.kind = kind
        self.attempts = attempts
        self.items = items
        self.cause = cause


class PoisonPairError(ChunkExecutionError):
    """Bisection isolated a single item that fails every attempt.

    Raised under ``failure="retry"``; under ``"skip"`` the same
    item is quarantined instead.
    """

    def __init__(
        self,
        chunk_id: str,
        kind: str,
        attempts: int,
        item,
        cause: BaseException | None = None,
    ) -> None:
        super().__init__(chunk_id, kind, attempts, (item,), cause)
        self.item = item


class ChunkTimeoutError(ResilienceError):
    """One chunk attempt exceeded its per-attempt timeout."""

    def __init__(self, timeout: float) -> None:
        super().__init__(f"chunk attempt exceeded timeout of {timeout}s")
        self.timeout = timeout


class DeadlineExceededError(ResilienceError):
    """The run's total deadline expired with work still pending."""

    def __init__(self, deadline: float, elapsed: float) -> None:
        super().__init__(
            f"run deadline of {deadline}s exceeded after {elapsed:.3f}s"
        )
        self.deadline = deadline
        self.elapsed = elapsed


class ChunkResultInvalid(ResilienceError):
    """A chunk returned a result that fails shape validation (garbage)."""


class InjectedCrash(RuntimeError):
    """A crash raised by a fault injector (stands in for any worker
    exception, so deliberately *not* a :class:`ReproError`)."""


class InjectedHang(ResilienceError):
    """A simulated hang: the executor charges the attempt its full
    timeout on the injected clock and records a timeout failure."""


class InjectedWorkerDeath(BaseException):
    """An injected hard worker death (the ``flap`` fault).

    Deliberately a :class:`BaseException`: the in-process retry /
    bisect / quarantine machinery must *not* absorb it — a dead worker
    is not a failed chunk. Only a supervisor
    (:class:`repro.supervision.Supervisor`) handles it, by restarting
    the worker; in a real worker process the pool's worker loop
    (:mod:`repro.resilience.workers`) turns it into a hard exit with
    status 137.
    """

    def __init__(self, shard: int | None, incarnation: int) -> None:
        super().__init__(
            f"injected worker death: shard {shard} "
            f"incarnation {incarnation}"
        )
        self.shard = shard
        self.incarnation = incarnation

    __reduce__ = reduce_by_state


def _unit_fraction(text: str) -> float:
    """Deterministic hash of ``text`` folded into [0, 1).

    Python's ``hash`` is salted per process, so jitter uses the same
    stable fold as :func:`repro.dist.partition.stable_key_hash`.
    """
    value = 0
    for character in text:
        value = (value * 131 + ord(character)) % 1_000_000_007
    return value / 1_000_000_007


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a cap and deterministic jitter.

    After the n-th failed attempt (1-based) the delay is
    ``min(base_delay * multiplier**(n-1), max_delay)``, optionally
    stretched by up to ``jitter`` (a fraction, e.g. ``0.25`` for +25%)
    using a deterministic hash of the salt and attempt number — so two
    chunks retrying in lockstep de-synchronize, yet every run of the
    same workload backs off identically.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be an integer >= 1, "
                f"got {self.max_attempts!r}"
            )
        for name in ("base_delay", "multiplier", "max_delay", "jitter"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(
                value
            ):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.base_delay < 0:
            raise ConfigurationError(
                f"base_delay must be >= 0, got {self.base_delay!r}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier!r}"
            )
        if self.max_delay < self.base_delay:
            raise ConfigurationError(
                f"max_delay (the backoff cap, {self.max_delay!r}) must "
                f"be >= base_delay ({self.base_delay!r})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter!r}"
            )

    def delay(self, attempt: int, salt: str = "") -> float:
        """Backoff before retrying after failed ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError("attempt numbers are 1-based")
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1),
            self.max_delay,
        )
        if self.jitter:
            raw *= 1.0 + self.jitter * _unit_fraction(f"{salt}#{attempt}")
        return raw

    def schedule(self) -> tuple[float, ...]:
        """The full backoff schedule: delays after attempts 1..n-1,
        unsalted."""
        return tuple(
            self.delay(attempt)
            for attempt in range(1, self.max_attempts)
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the resilient executor needs, in one object.

    ``clock``/``sleep`` default to real time
    (:class:`~repro.obs.clock.SystemClock` / :func:`time.sleep`); tests
    inject a :class:`~repro.obs.clock.ManualClock` with
    ``sleep=clock.advance`` for exact, instant backoff timing.
    ``fault_injector`` is the chaos-testing hook
    (:class:`repro.resilience.testing.FaultInjector`); production runs
    leave it ``None``.

    ``timeout`` bounds one chunk *attempt* (enforced preemptively only
    by the process backend — a serial chunk cannot be interrupted, so
    serial timeouts fire only for injected hangs); ``deadline`` bounds
    the whole run as measured on the injected clock.

    ``dead_letter_path``, when set, makes every quarantine durable: the
    executor's :class:`~repro.resilience.deadletter.DeadLetterLog`
    appends each entry to that JSONL file with flush+fsync as it is
    written, so quarantined work survives process death mid-run.
    ``dead_letter_max_entries`` bounds that log under sustained
    skip-mode faults (oldest entries rotate out, the newest tail is
    always retained).

    ``heartbeat``, when set (a
    :class:`repro.supervision.HeartbeatEmitter`), is beaten before
    every chunk attempt with a monotonic sequence number — the
    cross-process liveness signal a supervisor watches to tell a dead
    worker from a slow one without wall clocks.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    failure: str = "retry"
    timeout: float | None = None
    deadline: float | None = None
    clock: object | None = None
    sleep: Callable[[float], None] | None = None
    fault_injector: object | None = None
    dead_letter_path: str | None = None
    dead_letter_max_entries: int | None = None
    heartbeat: object | None = None

    def __post_init__(self) -> None:
        if self.failure not in FAILURE_POLICIES:
            raise ConfigurationError(
                f"unknown failure policy {self.failure!r}; "
                f"expected one of {FAILURE_POLICIES}"
            )
        for name in ("timeout", "deadline"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (int, float)) or not math.isfinite(
                value
            ):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
            if value <= 0:
                raise ConfigurationError(
                    f"{name} must be > 0, got {value!r}"
                )
        value = self.dead_letter_max_entries
        if value is not None and (not isinstance(value, int) or value < 1):
            raise ConfigurationError(
                "dead_letter_max_entries must be an integer >= 1, "
                f"got {value!r}"
            )
        if (
            self.timeout is not None
            and self.deadline is not None
            and self.deadline < self.timeout
        ):
            raise ConfigurationError(
                f"deadline ({self.deadline!r}) must be >= the "
                f"per-attempt timeout ({self.timeout!r}); no attempt "
                "could ever finish inside the run budget"
            )
