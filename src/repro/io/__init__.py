"""Persistence: the JSONL dataset format."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "jsonl": "load_dataset save_dataset",
    },
)
