"""The metrics registry: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the mutable metric store of one run.
Instruments are created lazily by name (``registry.counter("x").inc()``)
so instrumented code never has to pre-declare what it emits, and a
metric read before any increment reports zero — empty inputs produce a
well-formed, zeroed report rather than missing keys.

Cross-worker collection protocol
--------------------------------

Worker processes cannot share a registry, so aggregation is snapshot
based: a worker calls :meth:`MetricsRegistry.snapshot` (a plain,
picklable dict), ships it back over whatever channel the executor
already uses, and the parent folds it in with
:meth:`MetricsRegistry.merge`. Counters and histogram buckets add;
gauges take the incoming value (last writer wins). The
:class:`~repro.linkage.engine.ParallelComparisonEngine` workers use the
degenerate form of the same protocol — plain counter dicts merged with
:meth:`merge_counters` — because their per-chunk metrics are pure
counters.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Generic magnitude buckets (counts, sizes, costs). Callers measuring
#: a known range (e.g. scores in [0, 1]) should pass their own.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

#: Buckets for similarity scores and other [0, 1] quantities.
SCORE_BUCKETS: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (cache sizes, ratios, worker counts)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram.

    ``buckets`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the implicit
    overflow bucket past the last bound. Count, sum, min, and max are
    tracked exactly, so the mean is recoverable whatever the buckets.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        ordered = tuple(float(bound) for bound in buckets)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"histogram {name!r} buckets must be distinct and ascending"
            )
        self.name = name
        self.buckets = ordered
        self.counts = [0] * (len(ordered) + 1)  # last = overflow
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """All metrics of one run, created lazily by name.

    Thread-safe: instrument creation and snapshot/merge hold a lock, so
    thread-based callers can share one registry. Process-based callers
    use the snapshot/merge protocol described in the module docstring.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, buckets if buckets is not None else DEFAULT_BUCKETS
                )
            elif buckets is not None and tuple(
                float(b) for b in buckets
            ) != instrument.buckets:
                raise ValueError(
                    f"histogram {name!r} already exists with different buckets"
                )
            return instrument

    # --- collection protocol -----------------------------------------

    def snapshot(self) -> dict:
        """A picklable plain-dict copy of every metric."""
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in self._counters.items()
                },
                "gauges": {
                    name: g.value for name, g in self._gauges.items()
                },
                "histograms": {
                    name: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "count": h.count,
                        "sum": h.sum,
                        "min": h.min,
                        "max": h.max,
                    }
                    for name, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: Mapping) -> None:
        """Fold a worker's :meth:`snapshot` into this registry.

        Counters and histogram buckets add; gauges take the incoming
        value. Histograms with the same name must share buckets.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, data["buckets"])
            with self._lock:
                for index, count in enumerate(data["counts"]):
                    histogram.counts[index] += count
                histogram.count += data["count"]
                histogram.sum += data["sum"]
                for bound, better in (("min", min), ("max", max)):
                    incoming = data[bound]
                    if incoming is None:
                        continue
                    current = getattr(histogram, bound)
                    setattr(
                        histogram,
                        bound,
                        incoming if current is None
                        else better(current, incoming),
                    )

    def merge_counters(self, counts: Mapping[str, int | float]) -> None:
        """Fold a plain counter dict (the degenerate worker snapshot)."""
        for name, value in counts.items():
            self.counter(name).inc(value)

    def to_dict(self) -> dict:
        """Alias of :meth:`snapshot` for report serialization."""
        return self.snapshot()
