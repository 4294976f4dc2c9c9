"""repro.streaming — drift-aware continuous ingestion.

The unbounded-stream counterpart of the batch pipeline: event-time
tumbling windows with watermark-based close (:mod:`~repro.streaming.
windows`), windowed incremental linkage plus drift-tracking decayed
fusion (:mod:`~repro.streaming.fusion`, :mod:`~repro.streaming.
runtime`), drift monitors with a fire-once-per-sustained-shift
discipline (:mod:`~repro.streaming.monitors`), and a deterministic
drift-injecting workload generator (:mod:`~repro.streaming.drift`).

The load-bearing invariant, proven by the differential test suite: on
a drift-free stream with ``decay=None``, the streaming projection at
every window boundary is byte-identical to a from-scratch batch
resolve-and-fuse over the records of all closed windows.
"""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "drift": (
            "CONFLICT_ATTRIBUTES DriftStreamConfig DriftWorld "
            "projection_accuracy"
        ),
        "fusion": "DecayedAccuracyTracker",
        "monitors": "AccuracyShiftMonitor MatchRateMonitor MonitorEvent",
        "runtime": (
            "StreamingResolver WindowResult batch_reference_snapshot "
            "fuse_entity"
        ),
        "windows": "TumblingWindower Window WindowConfig",
    },
)
