"""repro.obs — observability: spans, metrics, and run reports.

The instrumentation layer of the integration stack. A
:class:`Tracer` produces nested, deterministic stage spans (wall time
through an injectable :class:`Clock`) and owns a
:class:`MetricsRegistry` of counters, gauges, and fixed-bucket
histograms; worker processes aggregate back into the parent run via
the snapshot/merge collection protocol; and a finished run freezes
into a :class:`RunReport` that renders as a plain-text tree or JSON.

The default everywhere is :data:`NULL_TRACER` — a no-op whose overhead
on the comparison hot path is held under the E20 bench noise floor —
so instrumentation is strictly opt-in::

    from repro import BDIPipeline
    from repro.obs import Tracer

    tracer = Tracer()
    result = BDIPipeline().run(dataset, tracer=tracer)
    print(tracer.report(name="pipeline").render())
"""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "clock": "Clock ManualClock SystemClock",
        "instruments": (
            "BLOCK_SIZE_BUCKETS STREAM_LAG_BUCKETS "
            "observe_block_collection observe_candidate_pruning "
            "observe_stream_window observe_supervisor observe_text_caches"
        ),
        "metrics": (
            "DEFAULT_BUCKETS SCORE_BUCKETS Counter Gauge Histogram "
            "MetricsRegistry"
        ),
        "report": "RunReport",
        "tracer": "NULL_TRACER NullTracer Span Tracer",
    },
)
