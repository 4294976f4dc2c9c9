"""Ready-made instrumentation helpers for library data structures.

These keep the wiring in one place: consumers (the resolver, the
pipeline, the distributed driver) call one function instead of
re-deriving the same counters and histograms from a
:class:`~repro.linkage.blocking.base.BlockCollection` or a comparator's
``lru_cache`` statistics.
"""

from __future__ import annotations

__all__ = [
    "BLOCK_SIZE_BUCKETS",
    "STREAM_LAG_BUCKETS",
    "observe_block_collection",
    "observe_candidate_pruning",
    "observe_stream_window",
    "observe_supervisor",
    "observe_text_caches",
]

#: Power-of-two-ish block-size buckets; blocks past the last bound land
#: in the overflow bucket (the oversized blocks blockers cap or split).
BLOCK_SIZE_BUCKETS: tuple[float, ...] = (
    2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)


def observe_block_collection(tracer, blocks) -> None:
    """Record a block collection's shape into the tracer's metrics.

    Emits ``blocking.blocks_built`` and ``blocking.comparisons``
    counters plus a ``blocking.block_size`` histogram — the block-size
    distribution is the skew signal the load-balancing experiments
    (and `max_block_size` tuning) turn on.
    """
    tracer.counter("blocking.blocks_built").inc(len(blocks))
    tracer.counter("blocking.comparisons").inc(blocks.n_comparisons)
    histogram = tracer.histogram("blocking.block_size", BLOCK_SIZE_BUCKETS)
    histogram.observe_many(float(len(block)) for block in blocks)


#: Ingest-to-visible latency buckets (seconds), log-spaced from "sub-ms
#: in-memory window" out to "seconds behind" — the staleness alert range.
STREAM_LAG_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0,
)


def observe_stream_window(tracer, result) -> None:
    """Record one closed streaming window into the tracer's metrics.

    ``result`` is a :class:`repro.streaming.runtime.WindowResult` (duck
    typed — anything with the same counters works). Emits the
    per-window cost counters, the watermark/match-rate gauges the
    drift dashboards plot, and the ingest-to-visible lag histogram
    (``streaming.lag``) whose p99 the streaming benchmark gates.
    """
    tracer.counter("streaming.windows_closed").inc()
    tracer.counter("streaming.window_records").inc(result.n_records)
    tracer.counter("streaming.comparisons").inc(result.comparisons)
    tracer.counter("streaming.matches").inc(result.matches)
    tracer.gauge("streaming.watermark").set(result.watermark)
    tracer.gauge("streaming.entities_touched").set(
        float(result.entities_touched)
    )
    histogram = tracer.histogram("streaming.lag", STREAM_LAG_BUCKETS)
    histogram.observe_many(result.lags)


def observe_candidate_pruning(tracer, n_before: int, n_after: int) -> None:
    """Record a pruning pass: pairs in, retained, pruned."""
    tracer.counter("metablocking.pairs_before").inc(n_before)
    tracer.counter("metablocking.pairs_retained").inc(n_after)
    tracer.counter("metablocking.pairs_pruned").inc(max(0, n_before - n_after))


def observe_supervisor(tracer, supervisor) -> None:
    """Publish a supervisor's healing summary as gauges.

    The :class:`~repro.supervision.Supervisor` already counts its
    decisions live (``supervision.{starts,deaths,hangs,restarts,
    recovered,exhausteds}``); this helper adds the end-of-run summary
    gauges a dashboard alerts on — total events, distinct shards that
    needed healing, and the worst per-shard restart count.
    """
    restarts_by_shard: dict[int, int] = {}
    for event in supervisor.events:
        if event.kind == "restart":
            restarts_by_shard[event.shard] = (
                restarts_by_shard.get(event.shard, 0) + 1
            )
    tracer.gauge("supervision.events").set(float(len(supervisor.events)))
    tracer.gauge("supervision.healed_shards").set(
        float(len(restarts_by_shard))
    )
    tracer.gauge("supervision.max_shard_restarts").set(
        float(max(restarts_by_shard.values(), default=0))
    )


def observe_text_caches(tracer, comparator) -> None:
    """Publish one comparator's memo statistics as gauges.

    Reads each of ``comparator.memos`` (its bounded ``lru_cache``
    memos, which live as long as it does, so the gauges count the work
    of the run that built it) and emits
    ``text.<name>.cache_{hits,misses,size,maxsize}`` plus a derived
    ``text.<name>.cache_hit_ratio`` gauge.
    """
    for name, cached_function in comparator.memos.items():
        info = cached_function.cache_info()
        base = f"text.{name}"
        tracer.gauge(f"{base}.cache_hits").set(info.hits)
        tracer.gauge(f"{base}.cache_misses").set(info.misses)
        tracer.gauge(f"{base}.cache_size").set(info.currsize)
        tracer.gauge(f"{base}.cache_maxsize").set(info.maxsize or 0)
        total = info.hits + info.misses
        tracer.gauge(f"{base}.cache_hit_ratio").set(
            info.hits / total if total else 0.0
        )
