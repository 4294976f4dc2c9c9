"""Q-gram blocking: typo-robust keys from character n-grams."""

from __future__ import annotations

from repro.core.record import Record
from repro.linkage.blocking.base import (
    KeyBlocker,
    KeyFunction,
    keys_of,
    require_positive,
)
from repro.text.tokens import qgrams

__all__ = ["QGramBlocker"]


class QGramBlocker(KeyBlocker):
    """Each q-gram of the blocking key becomes a block key.

    A single typo perturbs only ``q`` of the key's q-grams, so typo'd
    duplicates still co-occur in most of their blocks — high recall at
    the cost of many (overlapping) candidates; pair meta-blocking on
    top to prune. ``max_block_size`` drops stop-gram blocks (grams so
    common they pair everything with everything).
    """

    name = "qgram"

    def __init__(
        self,
        key_function: KeyFunction,
        q: int = 3,
        max_block_size: int | None = None,
    ) -> None:
        super().__init__(max_block_size)
        require_positive("q", q)
        self._key_function = key_function
        self._q = q

    def record_keys(self, record: Record) -> set[str]:
        grams: set[str] = set()
        for key in keys_of(self._key_function, record):
            grams.update(qgrams(key, q=self._q))
        return grams
