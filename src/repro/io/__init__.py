"""Persistence: JSONL datasets, CSV claim/truth files, record streams."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "claims_csv": "load_claims load_truth save_claims save_truth",
        "jsonl": "load_dataset save_dataset",
        "stream": "GeneratorRecordStream RecordStream",
    },
)
