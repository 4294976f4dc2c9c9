"""Sorted-neighborhood blocking (Hernández & Stolfo).

Records are sorted by a key and a window of size ``w`` slides over the
sorted order; records within a window are candidates. Tolerant of key
typos that preserve sort locality, and the window bounds worst-case
cost (no giant blocks), at the price of missing matches whose keys sort
far apart.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.linkage.blocking.base import (
    Block,
    BlockCollection,
    Blocker,
    KeyFunction,
    keys_of,
)
from repro.outofcore.spill import ExternalSorter, entry_nbytes

__all__ = ["SortedNeighborhoodBlocker"]


class SortedNeighborhoodBlocker(Blocker):
    """Slide a window of size ``window`` over the key-sorted records.

    Each window position becomes a (overlapping) block; candidate-pair
    deduplication happens downstream in
    :meth:`BlockCollection.candidate_pairs`. Records without a key are
    excluded (they can't be sorted meaningfully).
    """

    name = "sorted-neighborhood"

    def __init__(self, key_function: KeyFunction, window: int = 5) -> None:
        if window < 2:
            # A window of 1 never pairs anything; catch the mistake early.
            raise ConfigurationError(
                f"window must be >= 2 to produce candidates, got {window}"
            )
        self._key_function = key_function
        self._window = window

    @property
    def window(self) -> int:
        """The sliding-window size."""
        return self._window

    def block(self, records: Sequence[Record]) -> BlockCollection:
        keyed: list[tuple[str, str]] = []
        for record in records:
            keys = keys_of(self._key_function, record)
            if keys:
                keyed.append((keys[0], record.record_id))
        keyed.sort()
        collection = BlockCollection()
        n = len(keyed)
        for start in range(0, max(0, n - self._window + 1)):
            window = keyed[start : start + self._window]
            collection.add(
                Block(
                    key=f"win{start:06d}",
                    record_ids=tuple(record_id for __, record_id in window),
                )
            )
        if 0 < n < self._window:
            collection.add(
                Block("win000000", tuple(rid for __, rid in keyed))
            )
        return collection

    def stream_blocks(
        self, records: Iterable[Record], spill
    ) -> Iterator[Block]:
        """Out-of-core :meth:`block` via external sort on ``(key, id)``.

        The sorted ``(key, record_id)`` run merge feeds a sliding
        window of size ``window`` — identical windows (keys and
        contents) to sorting the full list in memory.
        """
        sorter = ExternalSorter(spill.scoped(self.name), spill.budget)
        for record in records:
            keys = keys_of(self._key_function, record)
            if keys:
                entry = (keys[0], record.record_id)
                sorter.add(entry, entry_nbytes(*entry))
        start = 0
        window: deque[str] = deque(maxlen=self._window)
        for __, record_id in sorter.sorted_stream():
            window.append(record_id)
            if len(window) == self._window:
                yield Block(f"win{start:06d}", tuple(window))
                start += 1
        if 0 < len(window) < self._window and start == 0:
            yield Block("win000000", tuple(window))
        sorter.release()
