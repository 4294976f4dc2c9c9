"""The circuit breaker: stop hammering a failing dependency.

Classic three-state machine, fully deterministic under an injected
clock:

- **closed** — normal operation; consecutive failures are counted and
  ``failure_threshold`` of them trip the breaker open.
- **open** — calls are refused (``allow()`` is ``False``) until
  ``reset_timeout`` seconds have passed on the breaker's clock;
  :meth:`retry_after` tells callers how long to back off (the value
  the serving layer puts on its ``Overloaded`` rejections).
- **half-open** — after the timeout, exactly one trial call is let
  through. Success closes the breaker (automatic re-arm, counted as
  ``{name}.rearmed``); failure reopens it for another full timeout.

State transitions are observable: a ``{name}.state`` gauge (0 closed,
1 half-open, 2 open), ``{name}.opened`` / ``{name}.rearmed`` counters,
and an optional ``on_state_change(old, new)`` callback for callers
that derive their own signals (the serving layer's ``serve.degraded``
gauge).
"""

from __future__ import annotations

import threading

from repro.core.errors import ConfigurationError
from repro.obs import NULL_TRACER
from repro.obs.clock import SystemClock

__all__ = ["CircuitBreaker"]

_STATE_GAUGE = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class CircuitBreaker:
    """A thread-safe closed → open → half-open breaker.

    ``clock`` is any :class:`repro.obs.Clock`; inject a
    :class:`~repro.obs.clock.ManualClock` and the entire
    trip → wait → trial → re-arm timeline becomes exactly assertable.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock=None,
        tracer=None,
        name: str = "breaker",
        on_state_change=None,
    ) -> None:
        if not isinstance(failure_threshold, int) or failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be an integer >= 1, "
                f"got {failure_threshold!r}"
            )
        if (
            not isinstance(reset_timeout, (int, float))
            or reset_timeout <= 0
        ):
            raise ConfigurationError(
                f"reset_timeout must be > 0, got {reset_timeout!r}"
            )
        self._threshold = failure_threshold
        self._reset_timeout = float(reset_timeout)
        self._clock = clock if clock is not None else SystemClock()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._name = name
        self._on_state_change = on_state_change
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._trial_inflight = False
        self._tracer.gauge(f"{name}.state").set(0.0)

    # --- state machine (all under self._lock) -------------------------

    def _set_state(self, new: str) -> None:
        old = self._state
        if old == new:
            return
        self._state = new
        self._tracer.gauge(f"{self._name}.state").set(_STATE_GAUGE[new])
        if new == "open":
            self._tracer.counter(f"{self._name}.opened").inc()
        if new == "closed" and old != "closed":
            self._tracer.counter(f"{self._name}.rearmed").inc()
        if self._on_state_change is not None:
            self._on_state_change(old, new)

    def _poll(self) -> None:
        """Open → half-open once the reset timeout has elapsed."""
        if (
            self._state == "open"
            and self._clock.now() - self._opened_at >= self._reset_timeout
        ):
            self._trial_inflight = False
            self._set_state("half_open")

    def _trip(self) -> None:
        self._failures = 0
        self._trial_inflight = False
        self._opened_at = self._clock.now()
        self._set_state("open")

    # --- the caller-facing protocol ----------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._poll()
            return self._state

    def allow(self) -> bool:
        """May a guarded call proceed right now?

        In half-open state the first ``allow()`` claims the single
        trial slot; further calls are refused until the trial reports
        back through :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            self._poll()
            if self._state == "closed":
                return True
            if self._state == "open":
                return False
            if self._trial_inflight:
                return False
            self._trial_inflight = True
            return True

    def record_success(self) -> None:
        """A guarded call succeeded: reset failures, re-arm if tripped."""
        with self._lock:
            self._poll()
            self._failures = 0
            self._trial_inflight = False
            self._set_state("closed")

    def record_failure(self) -> None:
        """A guarded call failed: count it, trip past the threshold.

        A half-open trial failure reopens immediately — one bad trial
        is proof enough that the dependency is still down.
        """
        with self._lock:
            self._poll()
            self._tracer.counter(f"{self._name}.failures").inc()
            if self._state == "half_open":
                self._trip()
                return
            if self._state == "open":
                return
            self._failures += 1
            if self._failures >= self._threshold:
                self._trip()

    def retry_after(self) -> float:
        """Seconds (on the breaker's clock) until the next trial."""
        with self._lock:
            self._poll()
            if self._state != "open":
                return 0.0
            elapsed = self._clock.now() - self._opened_at
            return max(0.0, self._reset_timeout - elapsed)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(name={self._name!r}, state={self.state!r}, "
            f"threshold={self._threshold}, "
            f"reset_timeout={self._reset_timeout})"
        )
