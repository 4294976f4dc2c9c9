"""Spill-to-disk building blocks: bounded indexes, sort, and dedup.

Three structures cover every larger-than-memory shape the linkage
stages produce, all spilling through :class:`repro.recovery.RunStore`
streamed artifacts (atomic write + checksum, corruption treated as
absence):

* :class:`SpillableBlockIndex` — a ``key → [record ids]`` blocking
  index. Partitions spill as runs sorted by key; the merge reassembles
  each key's id list in insertion order, so the merged output is
  exactly the key map :meth:`KeyBlocker.block` groups in memory — its
  :meth:`KeyBlocker.stream_blocks` is this index's one caller.
* :class:`ExternalSorter` — generic external sort over picklable,
  totally ordered items (used for sorted-neighborhood keys, claim
  groups, and AccuVote posterior contributions).
* :class:`ExternalPairDeduper` — accumulates unordered candidate pairs
  and streams them back sorted and deduplicated, which is precisely the
  order :func:`repro.linkage.resolve` feeds the comparison engine.

:class:`SpillSession` bundles the spill store and shared budget that
streaming blockers receive: every
:class:`~repro.linkage.blocking.KeyBlocker` (through the block index)
and sorted neighbourhood (through the sorter).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.outofcore.budget import (
    OBJECT_OVERHEAD,
    MemoryBudget,
    pair_nbytes,
    str_nbytes,
)

__all__ = [
    "ExternalPairDeduper",
    "ExternalSorter",
    "SpillSession",
    "SpillableBlockIndex",
]


class SpillSession:
    """The shared spill context of one out-of-core run.

    Carries the spill store (a :class:`~repro.recovery.RunStore` or a
    view of one) and the run's :class:`MemoryBudget`; components
    namespace their runs with :meth:`scoped`.
    """

    def __init__(self, store, budget: MemoryBudget) -> None:
        self.store = store
        self.budget = budget

    def scoped(self, name: str):
        """A store view namespaced under ``name`` for one component."""
        return self.store.sub(name)


def _tagged(run: Iterable, index: int) -> Iterator[tuple]:
    # Helper (not a nested genexp) so each stream binds its own run.
    for key, ids in run:
        yield key, index, ids


class SpillableBlockIndex:
    """A blocking index built with bounded resident memory.

    ``add(key, record_id)`` accumulates an in-memory partition; when
    the shared budget would be exceeded the partition spills to a
    sorted on-disk run. :meth:`merged` streams back ``(key, ids)``
    groups in sorted key order with each key's ids in insertion order
    across all spills — byte-identical to sorting the full in-memory
    key map, which is what ``KeyBlocker.block`` does.
    """

    def __init__(self, store, budget: MemoryBudget, *, name: str = "index") -> None:
        self._store = store
        self._budget = budget
        self._name = name
        self._by_key: dict[str, list[str]] = {}
        self._resident = 0
        self._n_runs = 0
        self._sealed = False

    @property
    def n_runs(self) -> int:
        """Number of on-disk runs spilled so far."""
        return self._n_runs

    def add(self, key: str, record_id: str) -> None:
        """Register ``record_id`` under blocking ``key``."""
        if self._sealed:
            raise RuntimeError("cannot add to a block index after merging")
        cost = pair_nbytes(key, record_id)
        if self._by_key and self._budget.would_exceed(cost):
            self._spill()
        self._by_key.setdefault(key, []).append(record_id)
        self._resident += cost
        self._budget.add(cost)

    def _spill(self) -> None:
        items = sorted(self._by_key.items())
        meta = self._store.save_stream(f"{self._name}.run.{self._n_runs}", items)
        self._n_runs += 1
        self._by_key = {}
        self._budget.remove(self._resident)
        self._resident = 0
        self._budget.record_spill(meta["size"])

    def merged(self) -> Iterator[tuple[str, list[str]]]:
        """Stream ``(key, ids)`` groups in sorted key order.

        Once any partition has spilled, the in-memory tail is spilled
        too so the merge holds at most one frame per run resident.
        """
        self._sealed = True
        if self._n_runs and self._by_key:
            self._spill()
        if not self._n_runs:
            try:
                for key in sorted(self._by_key):
                    yield key, self._by_key[key]
            finally:
                self._budget.remove(self._resident)
                self._resident = 0
            return
        streams = [
            _tagged(self._store.load_stream(f"{self._name}.run.{index}"), index)
            for index in range(self._n_runs)
        ]
        # Merging on (key, run index) keeps a key split across spills in
        # spill order, so its ids concatenate back to insertion order.
        merge = heapq.merge(*streams, key=lambda entry: (entry[0], entry[1]))
        current_key: str | None = None
        current_ids: list[str] = []
        for key, _, ids in merge:
            if key == current_key:
                current_ids.extend(ids)
            else:
                if current_key is not None:
                    yield current_key, current_ids
                current_key, current_ids = key, list(ids)
        if current_key is not None:
            yield current_key, current_ids


_NO_ITEM = object()


class ExternalSorter:
    """External sort over picklable, totally ordered items.

    Items accumulate in an in-memory buffer charged to the shared
    budget; the buffer spills as a sorted run when an addition would
    exceed it. :meth:`sorted_stream` merges the runs (plus the resident
    tail) into one globally sorted stream. Re-iterable: every call
    starts a fresh merge over the same runs.
    """

    def __init__(self, store, budget: MemoryBudget, *, name: str = "sort") -> None:
        self._store = store
        self._budget = budget
        self._name = name
        self._buffer: list = []
        self._resident = 0
        self._n_runs = 0
        self._n_items = 0

    @property
    def n_items(self) -> int:
        """Total items added."""
        return self._n_items

    @property
    def n_runs(self) -> int:
        """Number of on-disk runs spilled so far."""
        return self._n_runs

    def add(self, item, cost: int) -> None:
        """Buffer ``item`` whose resident footprint is ``cost`` bytes."""
        if self._buffer and self._budget.would_exceed(cost):
            self._spill()
        self._buffer.append(item)
        self._resident += cost
        self._budget.add(cost)
        self._n_items += 1

    def _spill(self) -> None:
        self._buffer.sort()
        meta = self._store.save_stream(
            f"{self._name}.run.{self._n_runs}", self._buffer
        )
        self._n_runs += 1
        self._buffer = []
        self._budget.remove(self._resident)
        self._resident = 0
        self._budget.record_spill(meta["size"])

    def sorted_stream(self) -> Iterator:
        """All items in sorted order (duplicates retained)."""
        if self._n_runs and self._buffer:
            self._spill()
        if not self._n_runs:
            self._buffer.sort()
            yield from self._buffer
            return
        streams = [
            self._store.load_stream(f"{self._name}.run.{index}")
            for index in range(self._n_runs)
        ]
        yield from heapq.merge(*streams)

    def release(self) -> None:
        """Drop the resident buffer and release its budget tracking."""
        self._buffer = []
        self._budget.remove(self._resident)
        self._resident = 0

    def discard(self) -> None:
        """Release the buffer and delete this sorter's on-disk runs."""
        self.release()
        for index in range(self._n_runs):
            self._store.delete(f"{self._name}.run.{index}")
        self._n_runs = 0
        self._n_items = 0


class ExternalPairDeduper:
    """Candidate pairs accumulated unordered, streamed back canonical.

    Pairs are normalized to ``(min, max)`` on entry; each resident
    buffer is a set (cheap within-buffer dedup) spilled as a sorted
    run, and the merge drops cross-run duplicates. :meth:`stream`
    therefore yields exactly the ``sorted(set(normalized pairs))``
    sequence the in-memory resolver builds — lazily.
    """

    def __init__(self, store, budget: MemoryBudget, *, name: str = "pairs") -> None:
        self._store = store
        self._budget = budget
        self._name = name
        self._buffer: set[tuple[str, str]] = set()
        self._resident = 0
        self._n_runs = 0
        self._n_unique = 0
        self._streamed = False

    @property
    def n_pairs(self) -> int:
        """Unique pairs yielded by :meth:`stream` (valid after it runs)."""
        return self._n_unique

    @property
    def n_runs(self) -> int:
        """Number of on-disk runs spilled so far."""
        return self._n_runs

    def add_block(self, record_ids) -> None:
        """Register every unordered pair within one block."""
        for position, left in enumerate(record_ids):
            for right in record_ids[position + 1 :]:
                if left == right:
                    continue
                self.add_pair((left, right) if left < right else (right, left))

    def add_pair(self, pair: tuple[str, str]) -> None:
        """Register one already-normalized ``(min, max)`` pair."""
        if pair in self._buffer:
            return
        cost = pair_nbytes(*pair)
        if self._buffer and self._budget.would_exceed(cost):
            self._spill()
            if pair in self._buffer:  # pragma: no cover - buffer now empty
                return
        self._buffer.add(pair)
        self._resident += cost
        self._budget.add(cost)

    def _spill(self) -> None:
        meta = self._store.save_stream(
            f"{self._name}.run.{self._n_runs}", sorted(self._buffer)
        )
        self._n_runs += 1
        self._buffer = set()
        self._budget.remove(self._resident)
        self._resident = 0
        self._budget.record_spill(meta["size"])

    def stream(self) -> Iterator[tuple[str, str]]:
        """All unique pairs in sorted order, smaller id first."""
        if self._n_runs and self._buffer:
            self._spill()
        if not self._n_runs:
            ordered = sorted(self._buffer)
            source: Iterable = ordered
        else:
            streams = [
                self._store.load_stream(f"{self._name}.run.{index}")
                for index in range(self._n_runs)
            ]
            source = heapq.merge(*streams)
        previous = _NO_ITEM
        count = 0
        try:
            for pair in source:
                if pair == previous:
                    continue
                previous = pair
                count += 1
                yield pair
        finally:
            self._n_unique = count
            if not self._n_runs:
                self._buffer = set()
                self._budget.remove(self._resident)
                self._resident = 0


def entry_nbytes(*parts) -> int:
    """Estimated cost of a small tuple of strings/numbers held resident."""
    total = OBJECT_OVERHEAD
    for part in parts:
        if isinstance(part, str):
            total += str_nbytes(part)
        else:
            total += 32
    return total
