"""Suffix-array blocking (Aizawa & Oyama).

Every suffix (of at least ``min_suffix_length``) of the blocking key
becomes a block key; overly common suffixes are dropped via
``max_block_size``. Robust to prefix corruption and key truncation —
complements prefix/q-gram schemes.
"""

from __future__ import annotations

from repro.core.record import Record
from repro.linkage.blocking.base import (
    KeyBlocker,
    KeyFunction,
    keys_of,
    require_positive,
)

__all__ = ["SuffixArrayBlocker"]


class SuffixArrayBlocker(KeyBlocker):
    """Block on all sufficiently long suffixes of the key."""

    name = "suffix"

    def __init__(
        self,
        key_function: KeyFunction,
        min_suffix_length: int = 4,
        max_block_size: int = 50,
    ) -> None:
        super().__init__(max_block_size)
        require_positive("min_suffix_length", min_suffix_length)
        self._key_function = key_function
        self._min_suffix_length = min_suffix_length

    def record_keys(self, record: Record) -> set[str]:
        suffixes: set[str] = set()
        for key in keys_of(self._key_function, record):
            compact = key.replace(" ", "")
            for start in range(
                0, max(0, len(compact) - self._min_suffix_length) + 1
            ):
                suffix = compact[start:]
                if len(suffix) >= self._min_suffix_length:
                    suffixes.add(suffix)
        return suffixes
