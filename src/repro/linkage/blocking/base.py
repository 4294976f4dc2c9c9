"""Blocking primitives: blocks, block collections, the Blocker interface.

A *blocker* maps a sequence of records to a :class:`BlockCollection`;
records sharing a block become candidate pairs. The collection tracks
enough structure (record → blocks) for meta-blocking to build its
blocking graph without re-running the blocker.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record

__all__ = [
    "Block",
    "BlockCollection",
    "Blocker",
    "KeyBlocker",
    "KeyFunction",
    "keys_of",
    "usable_keys",
]

#: A key function maps a record to zero or more blocking keys.
#: ``None`` and empty strings are treated as "no key".
KeyFunction = Callable[[Record], str | Iterable[str] | None]


@dataclass(frozen=True)
class Block:
    """One block: a key and the ids of the records that share it."""

    key: str
    record_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.record_ids)

    @property
    def n_comparisons(self) -> int:
        """Number of unordered pairs this block induces."""
        n = len(self.record_ids)
        return n * (n - 1) // 2


class BlockCollection:
    """All blocks produced by one blocking pass.

    Exposes the two views consumers need: per-block (for distributed
    execution and statistics) and per-record (for meta-blocking's
    blocking graph).
    """

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        self._blocks: list[Block] = []
        self._blocks_of_record: dict[str, set[int]] = defaultdict(set)
        for block in blocks:
            self.add(block)

    def add(self, block: Block) -> None:
        """Append a block (singletons are permitted but useless)."""
        index = len(self._blocks)
        self._blocks.append(block)
        for record_id in block.record_ids:
            self._blocks_of_record[record_id].add(index)

    @property
    def blocks(self) -> tuple[Block, ...]:
        """All blocks, in insertion order."""
        return tuple(self._blocks)

    def blocks_of(self, record_id: str) -> frozenset[int]:
        """Indices of the blocks containing ``record_id``."""
        return frozenset(self._blocks_of_record.get(record_id, frozenset()))

    def _pair_stream(self) -> Iterator[tuple[str, str]]:
        """The one pair loop: every ``(smaller id, larger id)`` pair of
        two distinct records sharing a block, block by block (a pair
        shared by two blocks comes twice; both views below dedup)."""
        return chain.from_iterable(
            combinations(sorted(set(block.record_ids)), 2)
            for block in self._blocks
        )

    def ordered_pairs(self) -> list[tuple[str, str]]:
        """Deduplicated candidate pairs as oriented id tuples, sorted: the
        order every engine run scores them in."""
        return sorted(set(self._pair_stream()))

    def candidate_pairs(self) -> set[frozenset[str]]:
        """Deduplicated unordered candidate pairs across all blocks."""
        return set(map(frozenset, self._pair_stream()))

    @property
    def n_comparisons(self) -> int:
        """Total comparisons counting duplicates across blocks.

        This is the cost a naive executor pays; ``len(candidate_pairs())``
        is the cost after deduplication.
        """
        return sum(block.n_comparisons for block in self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __repr__(self) -> str:
        return (
            f"BlockCollection(blocks={len(self._blocks)}, "
            f"comparisons={self.n_comparisons})"
        )


class Blocker:
    """Base class for blockers."""

    name = "blocker"

    def block(self, records: Sequence[Record]) -> BlockCollection:
        raise NotImplementedError

    def stream_blocks(self, records: Iterable[Record], spill) -> Iterator[Block]:
        """Stream blocks with bounded resident memory.

        ``records`` is any (re-)iterable of records — a list or a
        :class:`repro.io.RecordStream` — consumed in one pass;
        ``spill`` is a :class:`repro.outofcore.SpillSession` carrying
        the spill store and memory budget. Blockers with an
        out-of-core path override this and must yield **exactly** the
        blocks :meth:`block` would produce over the same records, in
        the same order. The base raises so callers can detect (via
        :attr:`supports_streaming`) and refuse rather than silently
        materialize.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no out-of-core streaming path"
        )

    @property
    def supports_streaming(self) -> bool:
        """Whether this blocker overrides :meth:`stream_blocks`."""
        return type(self).stream_blocks is not Blocker.stream_blocks


class KeyBlocker(Blocker):
    """A blocker that *is* its keys: records sharing a key form a block.

    A subclass supplies :meth:`record_keys` — the keys one record is
    indexed under, a function of that record alone — and may set
    ``max_block_size`` to drop oversize (stop-word) blocks. Grouping,
    the size filter and the out-of-core stream are written here once,
    so every keyed blocker runs in memory and under a memory budget
    with identical blocks: sorted by key, each block's ids in record
    order, sizes in ``2 .. max_block_size``.
    """

    def __init__(self, max_block_size: int | None = None) -> None:
        if max_block_size is not None:
            require_positive("max_block_size", max_block_size)
        self._max_block_size = max_block_size

    def record_keys(self, record: Record) -> Iterable[str]:
        """The blocking keys of one record; it is appended once per key
        emitted, so a repeated key repeats the record in that block."""
        raise NotImplementedError

    def _blocks(
        self, groups: Iterable[tuple[str, Sequence[str]]]
    ) -> Iterator[Block]:
        """The blocks worth comparing among key-sorted ``(key, ids)``
        groups; the cap is on a key's complete id list, so a streamed
        index can only be filtered here, after its merge."""
        cap = self._max_block_size
        for key, record_ids in groups:
            if len(record_ids) > 1 and (cap is None or len(record_ids) <= cap):
                yield Block(key, tuple(record_ids))

    def block(self, records: Sequence[Record]) -> BlockCollection:
        by_key: dict[str, list[str]] = defaultdict(list)
        for record in records:
            for key in self.record_keys(record):
                by_key[key].append(record.record_id)
        return BlockCollection(self._blocks(sorted(by_key.items())))

    def stream_blocks(self, records: Iterable[Record], spill) -> Iterator[Block]:
        """Out-of-core :meth:`block`: identical blocks, bounded memory."""
        from repro.outofcore.spill import SpillableBlockIndex

        index = SpillableBlockIndex(spill.scoped(self.name), spill.budget)
        for record in records:
            for key in self.record_keys(record):
                index.add(key, record.record_id)
        yield from self._blocks(index.merged())


def usable_keys(raw) -> list[str]:
    """A key function's output as a list of usable keys: ``None`` and
    ``""`` give none, a string one, an iterable its non-empty members."""
    if raw is None:
        return []
    if isinstance(raw, str):
        return [raw] if raw else []
    return [key for key in raw if key]


def keys_of(key_function: KeyFunction, record: Record) -> list[str]:
    """:func:`usable_keys` of what ``key_function`` returns for ``record``."""
    return usable_keys(key_function(record))


def require_positive(name: str, value: int) -> None:
    """Shared validation helper for blocker parameters."""
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
