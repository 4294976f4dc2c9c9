"""Random-access record lookup over a JSONL file with bounded memory.

:class:`IndexedRecordStore` gives the comparison engine the
``record_id → Record`` mapping it needs without holding the corpus
resident: one initial pass builds an id → byte-offset index (only ids
stay in memory), and lookups seek, parse, and cache the record in an
LRU whose cost is charged to the shared :class:`MemoryBudget`.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from collections.abc import Mapping
from pathlib import Path
from typing import Iterator

from repro.core.errors import DataModelError
from repro.core.record import Record
from repro.io.jsonl import record_from_row
from repro.outofcore.budget import MemoryBudget, record_nbytes

__all__ = ["IndexedRecordStore"]


class IndexedRecordStore(Mapping):
    """A ``record_id → Record`` mapping backed by ``records.jsonl``.

    Iteration order (and hence ``sorted(store)`` and ``.values()``)
    follows file order, matching the dict the in-memory path builds
    from the same file. ``values()`` streams the file sequentially
    without touching the cache, so full passes stay O(1) resident.
    """

    def __init__(
        self,
        records_path: str | Path,
        budget: MemoryBudget | None = None,
    ) -> None:
        self._path = Path(records_path)
        self._budget = budget
        self._cache: OrderedDict[str, tuple[Record, int]] = OrderedDict()
        self._offsets: dict[str, int] = {}
        try:
            with self._path.open("rb") as handle:
                position = 0
                for line_number, line in enumerate(handle, start=1):
                    length = len(line)
                    if line.strip():
                        try:
                            row = json.loads(line)
                        except json.JSONDecodeError as error:
                            raise DataModelError(
                                f"{self._path.name}:{line_number}: invalid "
                                f"JSON ({error})"
                            ) from error
                        self._offsets[row["record_id"]] = position
                    position += length
        except OSError as error:
            raise DataModelError(
                f"cannot read records file {self._path}: {error}"
            ) from error

    @property
    def path(self) -> Path:
        """The underlying ``.records.jsonl`` file."""
        return self._path

    def __len__(self) -> int:
        return len(self._offsets)

    def __iter__(self) -> Iterator[str]:
        return iter(self._offsets)

    def __contains__(self, record_id) -> bool:
        return record_id in self._offsets

    def __getitem__(self, record_id: str) -> Record:
        entry = self._cache.get(record_id)
        if entry is not None:
            self._cache.move_to_end(record_id)
            return entry[0]
        offset = self._offsets.get(record_id)
        if offset is None:
            raise KeyError(record_id)
        with self._path.open("rb") as handle:
            handle.seek(offset)
            record = record_from_row(json.loads(handle.readline()))
        cost = record_nbytes(record)
        if self._budget is not None:
            while self._cache and self._budget.would_exceed(cost):
                _, (_, old_cost) = self._cache.popitem(last=False)
                self._budget.remove(old_cost)
            if self._budget.would_exceed(cost):
                # Another component holds the remaining budget; serve
                # the record uncached rather than exceed the limit.
                return record
            self._budget.add(cost)
        self._cache[record_id] = (record, cost)
        return record

    def values(self):
        """Stream records in file order without populating the cache."""
        return _FileOrderValues(self)

    def release(self) -> None:
        """Drop the cache and release its budget tracking."""
        if self._budget is not None:
            for _, cost in self._cache.values():
                self._budget.remove(cost)
        self._cache.clear()

    def __repr__(self) -> str:
        return (
            f"IndexedRecordStore({str(self._path)!r}, "
            f"n_records={len(self._offsets)})"
        )


class _FileOrderValues:
    """Re-iterable sequential pass over the store's records."""

    def __init__(self, store: IndexedRecordStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Record]:
        with self._store.path.open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                yield record_from_row(json.loads(line))
