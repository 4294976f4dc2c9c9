"""Admission control: bounded write intake with explicit backpressure.

An unbounded service doesn't fail fast, it fails completely: writers
pile onto the ingest lock until memory, file descriptors, or latency
fall over for *everyone*. The :class:`AdmissionGate` caps how many
writes may be in flight (queued on the lock plus executing); the
excess is rejected immediately with :class:`Overloaded` — an explicit,
retryable signal carrying a ``retry_after`` hint — instead of being
silently queued into collapse.

:class:`OverloadPolicy` bundles the serving layer's whole overload
posture: the admission limit, the circuit-breaker thresholds guarding
ingest-side linking and refresh, and what to do with writes shed in
degraded mode (reject vs dead-letter). Deadlines and the clock are not
overload settings: the service takes both from its
:class:`~repro.resilience.ResilienceConfig`.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.errors import ConfigurationError, ReproError
from repro.obs import NULL_TRACER

__all__ = ["AdmissionGate", "Overloaded", "OverloadPolicy", "SHED_MODES"]

#: What happens to a write shed in degraded mode: ``"reject"`` raises
#: :class:`Overloaded` back at the caller; ``"dead_letter"`` accepts
#: the call, records the payload in the dead-letter log for later
#: replay, and returns a shed result.
SHED_MODES: tuple[str, ...] = ("reject", "dead_letter")


class Overloaded(ReproError):
    """The service refused work to protect itself.

    ``retry_after`` is the advisory backoff in seconds (the breaker's
    remaining open window, or the policy's hint for admission
    rejections); clients honouring it re-synchronize with recovery
    instead of retry-storming.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class AdmissionGate:
    """A bounded in-flight counter with shed accounting.

    ``acquire`` past ``limit`` raises :class:`Overloaded` immediately
    (no queueing — the queue *is* the callers blocked on the service
    lock, and this gate bounds how many of those may exist). Sheds are
    counted as ``{name}.shed`` / ``{name}.shed_admission`` and the
    live depth is published as the ``{name}.pending_writes`` gauge.
    """

    def __init__(
        self,
        limit: int,
        retry_after: float = 0.0,
        tracer=None,
        name: str = "serve",
    ) -> None:
        if not isinstance(limit, int) or limit < 1:
            raise ConfigurationError(
                f"admission limit must be an integer >= 1, got {limit!r}"
            )
        self._limit = limit
        self._retry_after = retry_after
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._name = name
        self._lock = threading.Lock()
        self._inflight = 0

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def depth(self) -> int:
        """Writes currently admitted (queued on the lock + executing)."""
        with self._lock:
            return self._inflight

    def acquire(self) -> None:
        with self._lock:
            if self._inflight >= self._limit:
                self._tracer.counter(f"{self._name}.shed").inc()
                self._tracer.counter(
                    f"{self._name}.shed_admission"
                ).inc()
                raise Overloaded(
                    f"admission queue full ({self._limit} writes in "
                    f"flight); retry after {self._retry_after}s",
                    retry_after=self._retry_after,
                )
            self._inflight += 1
            self._tracer.gauge(f"{self._name}.pending_writes").set(
                float(self._inflight)
            )

    def release(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            self._tracer.gauge(f"{self._name}.pending_writes").set(
                float(self._inflight)
            )

    @contextmanager
    def admit(self):
        """``with gate.admit():`` — acquire, run, always release."""
        self.acquire()
        try:
            yield
        finally:
            self.release()


@dataclass(frozen=True)
class OverloadPolicy:
    """The serving layer's overload-protection configuration.

    ``max_pending_writes`` bounds the admission gate;
    ``admission_retry_after`` is the backoff hint on admission
    rejections. ``failure_threshold`` / ``reset_timeout`` parameterize
    the circuit breaker around ingest-side linking and refresh;
    ``shed`` picks the degraded-mode write fate (see
    :data:`SHED_MODES`). The breaker runs on the service's clock and
    requests on its deadline, both from the service's
    :class:`~repro.resilience.ResilienceConfig`.
    """

    max_pending_writes: int = 64
    admission_retry_after: float = 0.05
    failure_threshold: int = 3
    reset_timeout: float = 5.0
    shed: str = "reject"

    def __post_init__(self) -> None:
        if (
            not isinstance(self.max_pending_writes, int)
            or self.max_pending_writes < 1
        ):
            raise ConfigurationError(
                f"max_pending_writes must be an integer >= 1, "
                f"got {self.max_pending_writes!r}"
            )
        if (
            not isinstance(self.failure_threshold, int)
            or self.failure_threshold < 1
        ):
            raise ConfigurationError(
                f"failure_threshold must be an integer >= 1, "
                f"got {self.failure_threshold!r}"
            )
        for name in ("admission_retry_after", "reset_timeout"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(
                value
            ):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.admission_retry_after < 0:
            raise ConfigurationError(
                f"admission_retry_after must be >= 0, "
                f"got {self.admission_retry_after!r}"
            )
        if self.reset_timeout <= 0:
            raise ConfigurationError(
                f"reset_timeout must be > 0, got {self.reset_timeout!r}"
            )
        if self.shed not in SHED_MODES:
            raise ConfigurationError(
                f"unknown shed mode {self.shed!r}; "
                f"expected one of {SHED_MODES}"
            )
