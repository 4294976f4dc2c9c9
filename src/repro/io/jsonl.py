"""Dataset persistence: JSON-lines records + JSON sidecar metadata.

A dataset round-trips through two files:

* ``<stem>.records.jsonl`` — one JSON object per record
  (``record_id``, ``source_id``, ``attributes``, ``timestamp``);
* ``<stem>.meta.json`` — dataset name, per-source cost/metadata, and
  (when present) the full ground truth.

The format is deliberately boring: greppable, diffable, loadable from
any language — what you want when handing a corpus to another tool.
It is line-oriented, so :class:`repro.outofcore.IndexedRecordStore`
(random access by record id) and the serve layer's entity store read
the records file one line at a time through :func:`record_from_row`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.dataset import Dataset
from repro.core.errors import DataModelError
from repro.core.ground_truth import GroundTruth
from repro.core.record import Record
from repro.core.source import Source

__all__ = ["save_dataset", "load_dataset", "record_from_row"]

_FORMAT_VERSION = 1


def record_from_row(row: dict) -> Record:
    """Build a :class:`Record` from one parsed ``records.jsonl`` row."""
    return Record(
        record_id=row["record_id"],
        source_id=row["source_id"],
        attributes=row["attributes"],
        timestamp=row.get("timestamp"),
    )


def _paths(stem: str | Path) -> tuple[Path, Path]:
    stem = Path(stem)
    return (
        stem.with_suffix(".records.jsonl"),
        stem.with_suffix(".meta.json"),
    )


def save_dataset(dataset: Dataset, stem: str | Path) -> tuple[Path, Path]:
    """Write ``dataset`` under ``stem``; returns the two file paths."""
    records_path, meta_path = _paths(stem)
    records_path.parent.mkdir(parents=True, exist_ok=True)
    with records_path.open("w", encoding="utf-8") as handle:
        for record in dataset.records():
            row = {
                "record_id": record.record_id,
                "source_id": record.source_id,
                "attributes": dict(record.attributes),
            }
            if record.timestamp is not None:
                row["timestamp"] = record.timestamp
            # No key sorting: attribute order is semantically relevant
            # (schema translation breaks ties by first occurrence), so
            # the round-trip must preserve it exactly.
            handle.write(json.dumps(row) + "\n")

    meta: dict = {
        "format_version": _FORMAT_VERSION,
        "name": dataset.name,
        "sources": [
            {
                "source_id": source.source_id,
                "cost": source.cost,
                "metadata": source.metadata,
            }
            for source in dataset.sources
        ],
    }
    truth = dataset.ground_truth
    if truth is not None:
        meta["ground_truth"] = {
            "record_to_entity": truth.record_to_entity,
            "true_values": [
                {"entity": entity, "attribute": attribute, "value": value}
                for (entity, attribute), value in sorted(
                    truth.true_values.items()
                )
            ],
            "attribute_to_mediated": [
                {"source": source, "attribute": attribute, "mediated": mediated}
                for (source, attribute), mediated in sorted(
                    truth.attribute_to_mediated.items()
                )
            ],
        }
    with meta_path.open("w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return records_path, meta_path


def load_dataset(stem: str | Path) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    records_path, meta_path = _paths(stem)
    if not records_path.exists() or not meta_path.exists():
        raise DataModelError(
            f"dataset files not found under stem {stem!r} "
            f"(expected {records_path.name} and {meta_path.name})"
        )
    with meta_path.open(encoding="utf-8") as handle:
        meta = json.load(handle)
    version = meta.get("format_version")
    if version != _FORMAT_VERSION:
        raise DataModelError(
            f"unsupported dataset format version {version!r}"
        )

    sources: dict[str, Source] = {}
    for entry in meta.get("sources", []):
        source = Source(
            entry["source_id"],
            cost=entry.get("cost", 1.0),
            metadata=entry.get("metadata", {}),
        )
        sources[source.source_id] = source

    with records_path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                raise DataModelError(
                    f"{records_path.name}:{line_number}: invalid JSON "
                    f"({error})"
                ) from error
            source = sources.get(row["source_id"])
            if source is None:
                source = Source(row["source_id"])
                sources[row["source_id"]] = source
            source.add(record_from_row(row))

    truth = None
    truth_meta = meta.get("ground_truth")
    if truth_meta is not None:
        truth = GroundTruth(
            truth_meta.get("record_to_entity", {}),
            {
                (row["entity"], row["attribute"]): row["value"]
                for row in truth_meta.get("true_values", [])
            },
            {
                (row["source"], row["attribute"]): row["mediated"]
                for row in truth_meta.get("attribute_to_mediated", [])
            },
        )
    return Dataset(
        sources.values(), truth, name=meta.get("name", "dataset")
    )
