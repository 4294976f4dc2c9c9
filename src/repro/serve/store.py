"""The durable entity store: a resolved-entity projection that survives
process death.

Following the reconciliation pattern (sources *observe*, resolutions
*decide*, projections *serve*), the :class:`EntityStore` is the
projection layer's disk state. It owns two things:

1. **The record log** — ``records.jsonl``, an append-only JSONL file of
   every ingested record (one fsynced line per ingest, torn tails
   repaired on open). This is the source of truth for record payloads;
   random access goes through
   :class:`repro.outofcore.IndexedRecordStore` over the same file.
2. **Generation artifacts** — each background re-resolution saves its
   full resolved-entity projection (entity id → member record ids +
   fused attributes + provenance + confidence) as one checksummed
   :class:`repro.recovery.RunStore` artifact, stamped with the log
   *watermark* it covers. A tiny ``current`` pointer artifact names the
   live generation; because :meth:`RunStore.save` is atomic
   write-rename, publishing a generation is a single atomic swap.

Recovery contract: a restart loads the current generation artifact
(byte-identical to what was saved — checksums reject damage) and
replays the log suffix past its watermark through the same
deterministic incremental path the live service used, reconstructing
the exact pre-crash projection. A crash mid-ingest loses at most the
record whose log append had not completed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.io.stream import record_from_row
from repro.obs import NULL_TRACER
from repro.outofcore import IndexedRecordStore
from repro.recovery import RunStore

__all__ = ["EntityStore", "record_to_row"]

_LOG_NAME = "records.jsonl"
_CURRENT_KEY = "current"


def record_to_row(record: Record) -> dict:
    """The JSONL row for one record (inverse of ``record_from_row``)."""
    row = {
        "record_id": record.record_id,
        "source_id": record.source_id,
        "attributes": dict(record.attributes),
    }
    if record.timestamp is not None:
        row["timestamp"] = record.timestamp
    return row


class EntityStore:
    """Durable state of one serving deployment, under one directory.

    Parameters
    ----------
    root:
        Directory to create/open. A fresh directory is an empty store;
        an existing one reopens the log and generation artifacts left
        by a previous process (crashed or not).
    fingerprint:
        Optional config fingerprint bound to the underlying
        :class:`RunStore` — reopening under a different service
        configuration raises
        :class:`~repro.recovery.CheckpointMismatchError` instead of
        silently mixing two deployments' state.
    tracer:
        An :class:`repro.obs.Tracer` for ``serve.*`` and ``recovery.*``
        counters (default no-op).
    durable:
        When ``True`` (default) every log append and artifact write
        fsyncs; ``False`` keeps atomicity but trades crash durability
        for speed (tests and benchmarks).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        fingerprint: str | None = None,
        tracer=None,
        durable: bool = True,
    ) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._durable = durable
        self._run_store = RunStore(
            self._root,
            run_id="serve",
            fingerprint=fingerprint,
            tracer=self._tracer,
            durable=durable,
        )
        self._view = self._run_store.sub("serve")
        self._log_path = self._root / _LOG_NAME
        self._n_log = self._repair_log()

    # --- the record log ----------------------------------------------

    def _repair_log(self) -> int:
        """Count intact log rows, truncating any torn tail in place.

        A crash mid-append can leave a partial last line; everything
        before it is intact (one ``write`` call per row). The partial
        tail is cut off so offset-indexed readers see only whole rows.
        """
        if not self._log_path.exists():
            self._log_path.touch()
            return 0
        valid_bytes = 0
        rows = 0
        with self._log_path.open("rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break
                stripped = line.strip()
                if stripped:
                    try:
                        row = json.loads(stripped)
                        row["record_id"]
                    except (ValueError, KeyError, TypeError):
                        break
                    rows += 1
                valid_bytes += len(line)
        if valid_bytes < self._log_path.stat().st_size:
            with self._log_path.open("r+b") as handle:
                handle.truncate(valid_bytes)
            self._tracer.counter("serve.log_repairs").inc()
        return rows

    @property
    def root(self) -> Path:
        return self._root

    @property
    def log_path(self) -> Path:
        """The append-only ``records.jsonl`` ingest log."""
        return self._log_path

    @property
    def log_length(self) -> int:
        """Number of records durably appended so far."""
        return self._n_log

    @property
    def run_store(self) -> RunStore:
        """The underlying checkpoint store (manifest, artifacts)."""
        return self._run_store

    def append_record(self, record: Record) -> int:
        """Durably append one record; returns its log position.

        One ``write`` call per row keeps the append atomic under
        ``O_APPEND``; with ``durable=True`` the row is fsynced before
        this returns, so an acknowledged ingest survives ``kill -9``.
        """
        line = (
            json.dumps(record_to_row(record), sort_keys=True) + "\n"
        ).encode("utf-8")
        with self._log_path.open("ab") as handle:
            handle.write(line)
            handle.flush()
            if self._durable:
                os.fsync(handle.fileno())
        position = self._n_log
        self._n_log += 1
        self._tracer.counter("serve.log_appends").inc()
        return position

    def open_record_store(self, budget=None) -> IndexedRecordStore:
        """Random access over the log via an offset index.

        The returned :class:`IndexedRecordStore` snapshots the log as
        of now — records appended later need a fresh open. ``budget``
        is an optional :class:`repro.outofcore.MemoryBudget` bounding
        its read cache.
        """
        return IndexedRecordStore(self._log_path, budget=budget)

    def records_from(self, start: int, stop: int | None = None):
        """Yield log records with positions in ``[start, stop)``.

        The replay path: a restart reloads the current generation and
        feeds this suffix back through the incremental linker.
        """
        if stop is None:
            stop = self._n_log
        with self._log_path.open(encoding="utf-8") as handle:
            position = 0
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                if position >= stop:
                    break
                if position >= start:
                    yield record_from_row(json.loads(line))
                position += 1

    # --- generation artifacts ----------------------------------------

    def save_generation(
        self, generation: int, watermark: int, entities: dict
    ) -> dict:
        """Durably save one generation's full projection.

        ``entities`` maps entity id to a plain dict with ``members``,
        ``attributes``, ``provenance``, and ``confidence``; the payload
        is saved as one atomic, checksummed artifact and recorded in
        the manifest's stage ledger. The generation is not live until
        :meth:`publish_generation`.
        """
        payload = {
            "generation": generation,
            "watermark": watermark,
            "entities": entities,
        }
        meta = self._view.save(f"generation.{generation}", payload)
        self._run_store.mark_stage(
            f"serve.generation.{generation}",
            meta["key"],
            meta["sha256"],
        )
        return meta

    def publish_generation(self, generation: int) -> None:
        """Atomically point ``current`` at ``generation``.

        The pointer artifact is written via atomic write-rename, so a
        crash during publish leaves either the old or the new pointer —
        never a torn one. Refuses to publish a generation whose
        artifact is absent or damaged.
        """
        if self.load_generation(generation) is None:
            raise ConfigurationError(
                f"generation {generation} has no intact artifact; "
                "save it before publishing"
            )
        self._view.save(_CURRENT_KEY, {"generation": generation})
        self._tracer.counter("serve.generation_swaps").inc()

    def current_generation(self) -> int | None:
        """The published generation number, or ``None`` for a fresh store."""
        pointer = self._view.load(_CURRENT_KEY)
        if pointer is None:
            return None
        return pointer["generation"]

    def load_generation(self, generation: int) -> dict | None:
        """One generation's saved projection, or ``None`` if absent/damaged."""
        return self._view.load(f"generation.{generation}")

    def generation_bytes(self, generation: int) -> bytes | None:
        """Canonical JSON bytes of a saved generation's projection.

        The byte-identity witness the crash tests compare: two stores
        holding the same completed generation must return exactly equal
        bytes.
        """
        payload = self.load_generation(generation)
        if payload is None:
            return None
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    def __repr__(self) -> str:
        return (
            f"EntityStore({str(self._root)!r}, log={self._n_log}, "
            f"current={self.current_generation()})"
        )
