"""Unit and property tests for the union-find structure."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.unionfind import UnionFind


class TestBasics:
    def test_singletons(self):
        uf = UnionFind(["a", "b"])
        assert not uf.connected("a", "b")
        assert uf.groups() == [["a"], ["b"]]

    def test_union_connects(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert uf.connected("a", "b")

    def test_transitivity(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.connected("a", "c")

    def test_find_adds_implicitly(self):
        uf = UnionFind()
        assert uf.find("x") == "x"
        assert "x" in uf

    def test_union_idempotent(self):
        uf = UnionFind()
        uf.union("a", "b")
        root = uf.union("a", "b")
        assert root == uf.find("a")

    def test_groups_sorted_and_deterministic(self):
        uf = UnionFind()
        uf.union("d", "c")
        uf.union("b", "a")
        assert uf.groups() == [["a", "b"], ["c", "d"]]

    def test_len(self):
        uf = UnionFind(["a"])
        uf.union("b", "c")
        assert len(uf) == 3


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=40,
        )
    )
    def test_groups_partition_items(self, unions):
        uf = UnionFind()
        for a, b in unions:
            uf.union(a, b)
        groups = uf.groups()
        flattened = [item for group in groups for item in group]
        assert len(flattened) == len(set(flattened)) == len(uf)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=30,
        )
    )
    def test_union_order_irrelevant(self, unions):
        forward = UnionFind()
        backward = UnionFind()
        for a, b in unions:
            forward.union(a, b)
        for a, b in reversed(unions):
            backward.union(b, a)
        assert forward.groups() == backward.groups()


class TestRoots:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=40,
        ),
        st.lists(st.integers(min_value=0, max_value=20), max_size=30),
    )
    def test_roots_are_find_and_move_no_set(self, unions, items):
        uf, twin = UnionFind(range(21)), UnionFind(range(21))
        for a, b in unions:
            uf.union(a, b)
            twin.union(a, b)
        items = [*items, *range(21)]  # every depth the unions made
        assert uf.roots(items) == [twin.find(item) for item in items]
        assert uf.groups() == twin.groups()
        assert len(uf) == 21

    def test_deep_items_reach_their_root(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("c", "d")
        uf.union("e", "f")
        uf.union("a", "c")
        uf.union("e", "a")  # "d" now sits two parents below the root
        assert uf.roots("abcdef") == [uf.find("a")] * 6

    def test_an_unknown_item_raises_instead_of_being_added(self):
        uf = UnionFind(["a"])
        with pytest.raises(KeyError):
            uf.roots(["a", "ghost"])
        assert "ghost" not in uf
        assert uf.find("ghost") == "ghost"  # find adds it
        assert "ghost" in uf
