"""Velocity substrate: corpus snapshots, diffing, incremental maintenance."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "incremental_pipeline": "SnapshotCost SnapshotMaintainer",
        "snapshots": "SnapshotConfig SnapshotDiff diff_datasets render_snapshots",
    },
)
