"""Tests for every blocking scheme and the block collection."""

import pytest

from repro.core import ConfigurationError, Record
from repro.linkage import (
    Block,
    BlockCollection,
    CanopyBlocker,
    CompositeBlocker,
    KeyBlocker,
    MinHashBlocker,
    QGramBlocker,
    SortedNeighborhoodBlocker,
    StandardBlocker,
    SuffixArrayBlocker,
    TokenBlocker,
)
from repro.linkage.blocking import (
    first_token_key,
    normalized_attribute_key,
    soundex_key,
    token_set_key,
)
from repro.outofcore import MemoryBudget, SpillSession
from repro.recovery import RunStore


def record(rid, name, **attrs):
    attrs["name"] = name
    return Record(rid, "s", {k: str(v) for k, v in attrs.items()})


@pytest.fixture
def records():
    return [
        record("r1", "canon powershot a95", color="black"),
        record("r2", "canon powershot a95", color="black"),
        record("r3", "cannon powershot a95"),          # typo'd brand
        record("r4", "nikon coolpix 4500"),
        record("r5", "nikon coolpix 4500 camera"),
        record("r6", "sony alpha 7"),
    ]


class TestBlockCollection:
    def test_candidate_pairs_deduplicated(self):
        collection = BlockCollection(
            [Block("k1", ("r1", "r2")), Block("k2", ("r1", "r2", "r3"))]
        )
        pairs = collection.candidate_pairs()
        assert frozenset(("r1", "r2")) in pairs
        assert len(pairs) == 3
        assert collection.n_comparisons == 4  # 1 + 3, duplicates counted

    def test_blocks_of_record(self):
        collection = BlockCollection(
            [Block("k1", ("r1", "r2")), Block("k2", ("r1", "r3"))]
        )
        assert len(collection.blocks_of("r1")) == 2
        assert len(collection.blocks_of("r9")) == 0


class TestKeyFunctions:
    def test_normalized_key(self):
        r = record("x", "  CANON Pro ")
        assert normalized_attribute_key("name")(r) == "canon pro"

    def test_first_token(self, records):
        assert first_token_key("name")(records[0]) == "canon"

    def test_soundex_collides_for_typo(self, records):
        key = soundex_key("name")
        assert key(records[0]) == key(records[2])  # canon vs cannon

    def test_token_set(self, records):
        assert set(token_set_key("name")(records[0])) == {
            "canon", "powershot", "a95",
        }


class TestStandardBlocker:
    def test_groups_by_key(self, records):
        blocks = StandardBlocker(first_token_key("name")).block(records)
        pairs = blocks.candidate_pairs()
        assert frozenset(("r1", "r2")) in pairs
        assert frozenset(("r4", "r5")) in pairs
        assert frozenset(("r1", "r3")) not in pairs  # typo broke the key

    def test_multi_key(self, records):
        blocks = StandardBlocker(token_set_key("name")).block(records)
        # 'powershot' token rescues the typo'd pair.
        assert frozenset(("r1", "r3")) in blocks.candidate_pairs()

    @pytest.mark.parametrize("streamed", (False, True))
    def test_a_repeated_key_enters_the_record_once(self, tmp_path, streamed):
        # token_set_key names "canon" twice for "canon canon 5d".
        blocker = StandardBlocker(token_set_key("name"))

        def blocks_of(records, name):
            if not streamed:
                return blocker.block(records)
            store = RunStore(tmp_path / name, durable=False)
            spill = SpillSession(store, MemoryBudget(1_000_000))
            return BlockCollection(blocker.stream_blocks(records, spill))

        both = blocks_of(
            [record("a", "canon canon 5d"), record("b", "canon eos")], "both"
        )
        assert both.blocks == (Block("canon", ("a", "b")),)
        assert both.n_comparisons == len(both.ordered_pairs()) == 1
        assert both.ordered_pairs() == [("a", "b")]
        alone = blocks_of([record("a", "canon canon 5d")], "alone")
        assert alone.blocks == ()
        assert alone.n_comparisons == len(alone.ordered_pairs()) == 0


class TestSortedNeighborhood:
    def test_window_pairs_neighbors(self, records):
        blocker = SortedNeighborhoodBlocker(
            normalized_attribute_key("name"), window=2
        )
        pairs = blocker.block(records).candidate_pairs()
        assert frozenset(("r1", "r2")) in pairs

    def test_typo_survives_sort_locality(self, records):
        blocker = SortedNeighborhoodBlocker(
            normalized_attribute_key("name"), window=3
        )
        pairs = blocker.block(records).candidate_pairs()
        assert frozenset(("r1", "r3")) in pairs or frozenset(
            ("r2", "r3")
        ) in pairs

    def test_small_input_single_block(self):
        blocker = SortedNeighborhoodBlocker(
            normalized_attribute_key("name"), window=10
        )
        rs = [record("a", "x"), record("b", "y")]
        assert blocker.block(rs).candidate_pairs() == {
            frozenset(("a", "b"))
        }

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SortedNeighborhoodBlocker(normalized_attribute_key("name"), window=1)

    @pytest.mark.parametrize("window", [1, 0])
    def test_invalid_window_is_a_configuration_error(self, window):
        with pytest.raises(ConfigurationError, match="window must be >= 2"):
            SortedNeighborhoodBlocker(normalized_attribute_key("name"), window=window)

    def test_window_size_monotone_in_candidates(self, records):
        small = SortedNeighborhoodBlocker(
            normalized_attribute_key("name"), window=2
        ).block(records)
        large = SortedNeighborhoodBlocker(
            normalized_attribute_key("name"), window=4
        ).block(records)
        assert large.candidate_pairs() >= small.candidate_pairs()


class TestCanopy:
    def test_similar_records_share_canopy(self, records):
        pairs = CanopyBlocker(loose=0.3, tight=0.7).block(records)
        assert frozenset(("r1", "r2")) in pairs.candidate_pairs()

    def test_dissimilar_records_separated(self, records):
        pairs = CanopyBlocker(loose=0.5, tight=0.8).block(records)
        assert frozenset(("r1", "r6")) not in pairs.candidate_pairs()

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigurationError):
            CanopyBlocker(loose=0.8, tight=0.4)

    def test_deterministic_given_seed(self, records):
        a = CanopyBlocker().block(records).candidate_pairs()
        b = CanopyBlocker().block(records).candidate_pairs()
        assert a == b


class TestQGram:
    def test_typo_robust(self, records):
        blocker = QGramBlocker(normalized_attribute_key("name"), q=3)
        pairs = blocker.block(records).candidate_pairs()
        assert frozenset(("r1", "r3")) in pairs

    def test_max_block_size_prunes(self, records):
        unpruned = QGramBlocker(
            normalized_attribute_key("name"), q=3
        ).block(records)
        pruned = QGramBlocker(
            normalized_attribute_key("name"), q=3, max_block_size=2
        ).block(records)
        assert pruned.n_comparisons <= unpruned.n_comparisons

    def test_invalid_q(self):
        with pytest.raises(ConfigurationError):
            QGramBlocker(normalized_attribute_key("name"), q=0)


class TestSuffixArray:
    def test_shared_suffix_blocks_together(self, records):
        blocker = SuffixArrayBlocker(
            normalized_attribute_key("name"), min_suffix_length=5
        )
        pairs = blocker.block(records).candidate_pairs()
        assert frozenset(("r1", "r3")) in pairs  # share 'powershota95'

    def test_max_block_size(self, records):
        blocker = SuffixArrayBlocker(
            normalized_attribute_key("name"),
            min_suffix_length=2,
            max_block_size=1,
        )
        assert blocker.block(records).candidate_pairs() == set()


class TestTokenBlocker:
    def test_schema_agnostic(self):
        rs = [
            Record("a", "s", {"title": "canon eos"}),
            Record("b", "s", {"nome prodotto": "canon eos"}),
        ]
        pairs = TokenBlocker().block(rs).candidate_pairs()
        assert frozenset(("a", "b")) in pairs

    def test_min_token_length(self, records):
        blocks = TokenBlocker(min_token_length=4).block(records)
        keys = {block.key for block in blocks}
        assert "a95" not in keys

    def test_stop_token_pruning(self):
        rs = [record(f"r{i}", f"camera item {i}") for i in range(10)]
        pruned = TokenBlocker(max_block_size=5).block(rs)
        assert pruned.candidate_pairs() == set()


# Every constructor that takes a ``max_block_size`` (standard and
# MinHash blocking take none; the base validates for all of them).
CAPPED = {
    "base": lambda cap: KeyBlocker(max_block_size=cap),
    "token": lambda cap: TokenBlocker(max_block_size=cap),
    "qgram": lambda cap: QGramBlocker(
        normalized_attribute_key("name"), max_block_size=cap
    ),
    "suffix": lambda cap: SuffixArrayBlocker(
        normalized_attribute_key("name"), max_block_size=cap
    ),
}


class TestKeyBlocker:
    @pytest.mark.parametrize("name", sorted(CAPPED))
    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_refused(self, name, cap):
        with pytest.raises(ConfigurationError, match="max_block_size"):
            CAPPED[name](cap)

    @pytest.mark.parametrize("name", sorted(set(CAPPED) - {"base"}))
    def test_cap_of_one_or_none_accepted(self, name, records):
        assert CAPPED[name](1).block(records).candidate_pairs() == set()
        assert CAPPED[name](None).block(records).candidate_pairs()

    def test_token_length_below_one_refused(self):
        with pytest.raises(ConfigurationError, match="min_token_length"):
            TokenBlocker(min_token_length=0)

    def test_keyed_blockers_only_supply_keys(self):
        # Grouping, the size filter and the out-of-core stream are
        # written once, in the base: a subclass that defines one of
        # them, or reads the cap, is a second copy.
        import inspect

        import repro.linkage.blocking as package

        keyed = {
            cls
            for cls in vars(package).values()
            if inspect.isclass(cls)
            and issubclass(cls, KeyBlocker)
            and cls is not KeyBlocker
        }
        assert keyed >= {
            StandardBlocker,
            TokenBlocker,
            QGramBlocker,
            SuffixArrayBlocker,
            MinHashBlocker,
        }
        for cls in keyed:
            assert cls.record_keys is not KeyBlocker.record_keys
            assert cls.block is KeyBlocker.block
            assert cls.stream_blocks is KeyBlocker.stream_blocks
            assert cls._blocks is KeyBlocker._blocks
            assert "_max_block_size" not in inspect.getsource(cls)


class TestComposite:
    def test_union_of_children(self, records):
        composite = CompositeBlocker(
            [
                StandardBlocker(first_token_key("name")),
                StandardBlocker(soundex_key("name")),
            ]
        )
        pairs = composite.block(records).candidate_pairs()
        assert frozenset(("r1", "r2")) in pairs
        assert frozenset(("r1", "r3")) in pairs  # via soundex

    def test_requires_children(self):
        with pytest.raises(ConfigurationError):
            CompositeBlocker([])
