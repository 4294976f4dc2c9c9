"""Tracers: nested stage spans over an injectable clock.

:class:`Tracer` records a tree of :class:`Span` objects (one per
pipeline stage, engine pass, solver loop, …) and owns the run's
:class:`~repro.obs.metrics.MetricsRegistry`. :class:`NullTracer` is the
default everywhere instrumentation is wired: every method is a no-op
returning a shared singleton, so the hot paths pay essentially nothing
when nobody is watching (asserted against the E20 bench baseline).

Instrumented code holds whichever tracer it was given and never
branches on the type::

    with tracer.span("engine.match_pairs", execution=mode) as span:
        ...
        tracer.counter("engine.pairs_total").inc(n)
        span.set("n_pairs", n)

Spans nest by call order within one tracer (a stack), which matches the
single-threaded orchestration of the pipeline; worker processes report
back through the metrics collection protocol, not through spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.obs.clock import Clock, SystemClock
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]


class Span:
    """One timed, attributed stage of a run."""

    __slots__ = ("name", "start", "end", "attributes", "children")

    def __init__(
        self, name: str, start: float, attributes: dict | None = None
    ) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attributes: dict = attributes or {}
        self.children: list[Span] = []

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    @property
    def duration(self) -> float | None:
        """Seconds from start to end; ``None`` while the span is open."""
        return None if self.end is None else self.end - self.start

    def find(self, name: str) -> "Span | None":
        """First descendant (depth-first) named ``name``, or self."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["name"], data["start"], dict(data["attributes"]))
        span.end = data["end"]
        span.children = [
            cls.from_dict(child) for child in data["children"]
        ]
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration={self.duration}, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Collects nested spans and metrics for one run.

    Parameters
    ----------
    clock:
        Timestamp source; defaults to monotonic wall time. Tests inject
        :class:`~repro.obs.clock.ManualClock` for exact durations.

    The tracer writes into a fresh :class:`MetricsRegistry` of its own.
    """

    enabled = True

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock = clock or SystemClock()
        self._metrics = MetricsRegistry()
        self._roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's metrics registry."""
        return self._metrics

    @property
    def roots(self) -> tuple[Span, ...]:
        """Top-level spans recorded so far."""
        return tuple(self._roots)

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Span]:
        """Open a child span of the currently open span (or a root)."""
        span = Span(name, self._clock.now(), attributes)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock.now()
            self._stack.pop()

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def time(self) -> float:
        """A clock reading (for rate computations inside spans)."""
        return self._clock.now()

    # Metric shorthands, so instrumented code needs only the tracer.

    def counter(self, name: str) -> Counter:
        return self._metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self._metrics.gauge(name)

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None
    ) -> Histogram:
        return self._metrics.histogram(name, buckets)

    def report(self, name: str = "run") -> "RunReport":
        """Freeze everything recorded so far into a RunReport."""
        from repro.obs.report import RunReport

        return RunReport(
            name=name,
            spans=list(self._roots),
            metrics=self._metrics.snapshot(),
        )


class _NullSpan:
    """Inert span: context manager and attribute sink in one object."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass

    duration = None
    children: tuple = ()


class _NullInstrument:
    """Inert counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class NullTracer:
    """The do-nothing tracer wired in by default.

    Every method returns a shared inert singleton; no state is ever
    allocated, so instrumentation points cost one attribute lookup and
    one call — provably negligible against the E20 engine bench.
    """

    enabled = False

    def span(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def time(self) -> float:
        return 0.0

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def report(self, name: str = "run") -> "RunReport":
        from repro.obs.report import RunReport

        return RunReport(name=name, spans=[], metrics={})


#: Shared default instance — instrumented modules use this instead of
#: allocating a NullTracer per call.
NULL_TRACER = NullTracer()
