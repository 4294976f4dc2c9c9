"""Disjoint-set (union-find) with path compression and union by size.

Used by every clustering step in the library: attribute clustering in
schema alignment, connected-components record clustering in linkage,
and incremental cluster maintenance.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Generic, Hashable, Iterable, TypeVar

T = TypeVar("T", bound=Hashable)

__all__ = ["UnionFind"]


class UnionFind(Generic[T]):
    """Disjoint sets over arbitrary hashable items.

    Items are added implicitly on first touch. ``find`` uses path
    compression; ``union`` links by size, giving effectively-constant
    amortized operations.
    """

    def __init__(self, items: Iterable[T] = ()) -> None:
        self._parent: dict[T, T] = {}
        self._size: dict[T, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: T) -> None:
        """Ensure ``item`` exists as (at least) a singleton set."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: T) -> T:
        """Canonical representative of ``item``'s set (adds if new)."""
        parent = self._parent
        if item not in parent:
            self.add(item)
            return item
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:  # path compression
            parent[item], item = root, parent[item]
        return root

    def union(self, a: T, b: T) -> T:
        """Merge the sets of ``a`` and ``b``; returns the new root."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return root_a
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return root_a

    def connected(self, a: T, b: T) -> bool:
        """True iff ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def groups(self) -> list[list[T]]:
        """All sets, each sorted, the list sorted by first member.

        Sorting makes downstream output deterministic regardless of
        insertion and union order.
        """
        members: dict[T, list[T]] = defaultdict(list)
        for item in self._parent:
            members[self.find(item)].append(item)
        groups = [sorted(group) for group in members.values()]
        groups.sort(key=lambda group: group[0])
        return groups

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, item: T) -> bool:
        return item in self._parent
