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

from repro.streaming.drift import (
    CONFLICT_ATTRIBUTES,
    DriftStreamConfig,
    DriftWorld,
    projection_accuracy,
)
from repro.streaming.fusion import DecayedAccuracyTracker
from repro.streaming.monitors import (
    AccuracyShiftMonitor,
    MatchRateMonitor,
    MonitorEvent,
)
from repro.streaming.runtime import (
    StreamingResolver,
    WindowResult,
    batch_reference_snapshot,
    fuse_entity,
)
from repro.streaming.windows import TumblingWindower, Window, WindowConfig

__all__ = [
    "AccuracyShiftMonitor",
    "CONFLICT_ATTRIBUTES",
    "DecayedAccuracyTracker",
    "DriftStreamConfig",
    "DriftWorld",
    "MatchRateMonitor",
    "MonitorEvent",
    "StreamingResolver",
    "TumblingWindower",
    "Window",
    "WindowConfig",
    "WindowResult",
    "batch_reference_snapshot",
    "fuse_entity",
    "projection_accuracy",
]
