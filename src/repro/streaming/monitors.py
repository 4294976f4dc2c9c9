"""Quality monitors over the streaming pipeline's per-window signals.

A drifting source rarely announces itself; what moves are the derived
signals — the accuracy estimates the decayed fusion maintains, and the
linker's per-window match rate (a copier joining the stream doubles
agreement; a schema break kills it). Monitors watch one signal each,
with the firing discipline re-resolution triggers need:

* **sustained**: a shift must persist for ``patience`` consecutive
  windows before the monitor fires — one noisy window never triggers a
  batch re-resolution;
* **latched**: after firing, the monitor re-baselines to the new level
  and goes quiet until *another* sustained shift happens — a sustained
  drift fires exactly once, never once per window (no flapping).

Events are plain data (JSON-able) and land on ``streaming.monitor.*``
metrics when a tracer is attached; the runtime turns them into
re-resolution triggers (windowed batch :func:`~repro.linkage.resolver.
resolve`, or :meth:`~repro.serve.ResolutionService.refresh` when wired
to a serving deployment).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

from repro.core.errors import ConfigurationError
from repro.obs import NULL_TRACER

__all__ = ["AccuracyShiftMonitor", "MatchRateMonitor", "MonitorEvent"]


@dataclass(frozen=True)
class MonitorEvent:
    """One monitor firing.

    ``subject`` names what shifted (a source id, or ``"match_rate"``);
    ``value`` is the level that fired, ``baseline`` the level the
    monitor had latched.
    """

    window: int
    monitor: str
    subject: str
    value: float
    baseline: float

    def to_json(self) -> dict:
        return asdict(self)


class _Latch:
    """Shared sustained-shift-then-relatch state machine (one subject)."""

    __slots__ = ("baseline", "streak")

    def __init__(self, baseline: float) -> None:
        self.baseline = baseline
        self.streak = 0

    def observe(self, value: float, threshold: float, patience: int) -> bool:
        """True exactly when a shift has been sustained ``patience`` windows."""
        if abs(value - self.baseline) > threshold:
            self.streak += 1
        else:
            self.streak = 0
        if self.streak >= patience:
            # Latch onto the new level; quiet until the next shift.
            self.baseline = value
            self.streak = 0
            return True
        return False

    def state(self) -> dict:
        return {"baseline": self.baseline, "streak": self.streak}

    @classmethod
    def from_state(cls, state: Mapping) -> "_Latch":
        latch = cls(float(state["baseline"]))
        latch.streak = int(state["streak"])
        return latch


class AccuracyShiftMonitor:
    """Fires when a source's accuracy estimate departs its latched level.

    Baselines start at the first observed estimate per source (the
    prior, before evidence arrives). A shift of more than ``threshold``
    sustained for ``patience`` consecutive windows fires one event and
    re-baselines to the shifted level.
    """

    name = "accuracy_shift"

    def __init__(
        self,
        threshold: float = 0.15,
        patience: int = 2,
        tracer=None,
        baselines: Mapping[str, float] | None = None,
        default_baseline: float | None = None,
    ) -> None:
        if threshold <= 0.0:
            raise ConfigurationError("threshold must be > 0")
        if patience < 1:
            raise ConfigurationError("patience must be >= 1")
        self._threshold = threshold
        self._patience = patience
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: Where a source's baseline starts: its configured prior if
        #: given, else ``default_baseline``, else its first observed
        #: estimate. Prior-anchored baselines are what let the monitor
        #: flag a *new* source (e.g. a copier joining the stream) whose
        #: very first estimates already diverge from assumption.
        self._baselines = dict(baselines or {})
        self._default_baseline = default_baseline
        self._latches: dict[str, _Latch] = {}

    def _first_baseline(self, source: str, value: float) -> float:
        configured = self._baselines.get(source, self._default_baseline)
        return configured if configured is not None else value

    def observe(
        self, window: int, estimates: Mapping[str, float]
    ) -> list[MonitorEvent]:
        """Fold one window's accuracy estimates; return fired events."""
        events: list[MonitorEvent] = []
        for source in sorted(estimates):
            value = estimates[source]
            latch = self._latches.get(source)
            if latch is None:
                latch = _Latch(self._first_baseline(source, value))
                self._latches[source] = latch
            baseline = latch.baseline
            if latch.observe(value, self._threshold, self._patience):
                events.append(
                    MonitorEvent(
                        window=window,
                        monitor=self.name,
                        subject=source,
                        value=value,
                        baseline=baseline,
                    )
                )
        for event in events:
            self._tracer.counter("streaming.monitor.fired").inc()
            self._tracer.counter(
                f"streaming.monitor.{self.name}.fired"
            ).inc()
        return events

    def state(self) -> dict:
        return {
            source: latch.state()
            for source, latch in sorted(self._latches.items())
        }

    def restore(self, state: Mapping) -> None:
        self._latches = {
            source: _Latch.from_state(payload)
            for source, payload in state.items()
        }


class MatchRateMonitor:
    """Fires when the per-window linkage match rate shifts level.

    The match rate is ``matches / comparisons`` per closed window
    (windows with fewer than ``min_comparisons`` comparisons are
    skipped — a near-empty window's rate is noise): accepted decisions
    over decisions made. The linker decides a record once per entity it
    links to, so each (record, entity) link is one vote whatever the
    entity's size, and the rate does not climb merely because entities
    grow. The baseline latches on the first qualifying window; a
    sustained shift beyond ``threshold`` fires once and re-baselines,
    exactly like :class:`AccuracyShiftMonitor`.
    """

    name = "match_rate"

    def __init__(
        self,
        threshold: float = 0.2,
        patience: int = 2,
        min_comparisons: int = 1,
        tracer=None,
    ) -> None:
        if threshold <= 0.0:
            raise ConfigurationError("threshold must be > 0")
        if patience < 1:
            raise ConfigurationError("patience must be >= 1")
        if min_comparisons < 1:
            raise ConfigurationError("min_comparisons must be >= 1")
        self._threshold = threshold
        self._patience = patience
        self._min_comparisons = min_comparisons
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._latch: _Latch | None = None

    def observe(
        self, window: int, matches: int, comparisons: int
    ) -> list[MonitorEvent]:
        """Fold one window's linkage counters; return fired events."""
        if comparisons < self._min_comparisons:
            return []
        rate = matches / comparisons
        self._tracer.gauge("streaming.match_rate").set(rate)
        if self._latch is None:
            self._latch = _Latch(rate)
            return []
        baseline = self._latch.baseline
        if not self._latch.observe(rate, self._threshold, self._patience):
            return []
        self._tracer.counter("streaming.monitor.fired").inc()
        self._tracer.counter(f"streaming.monitor.{self.name}.fired").inc()
        return [
            MonitorEvent(
                window=window,
                monitor=self.name,
                subject="match_rate",
                value=rate,
                baseline=baseline,
            )
        ]

    def state(self) -> dict:
        return {"latch": self._latch.state() if self._latch else None}

    def restore(self, state: Mapping) -> None:
        payload = state.get("latch")
        self._latch = _Latch.from_state(payload) if payload else None
