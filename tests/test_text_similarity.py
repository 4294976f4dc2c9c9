"""Unit and property-based tests for the similarity toolbox."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linkage import FieldComparator, RecordComparator
from repro.linkage.comparison import MEMO_MAXSIZE
from repro.text import (
    cosine_similarity,
    dice_similarity,
    exact_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    measurement_similarity,
    monge_elkan_similarity,
    numeric_similarity,
    overlap_coefficient,
)
from tests.oracle import (
    reference_jaro,
    reference_jaro_winkler,
    reference_levenshtein,
)

short_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)
# Few letters, many repeats: where greedy window matching has choices.
repetitive_text = st.one_of(
    st.text(alphabet="ab", max_size=12), st.text(alphabet="abc", max_size=12)
)
# Every length from 0 to 200, across a 64-bit word; half the characters
# repeat two letters, the rest reach past ASCII into the astral planes.
edit_text = st.integers(0, 200).flatmap(
    lambda length: st.text(
        alphabet=st.one_of(st.sampled_from("ab"), st.characters()),
        min_size=length,
        max_size=length,
    )
)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein_distance(a, b) == expected

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(short_text, short_text)
    def test_bounds(self, a, b):
        d = levenshtein_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(short_text, short_text, short_text)
    @settings(max_examples=40)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )

    @given(edit_text, edit_text)
    @example("", "")
    @example("a" * 64, "a" * 65)
    @example("\U0001F600" * 70, "x\U0001F600" * 35)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_dynamic_program(self, a, b):
        assert levenshtein_distance(a, b) == reference_levenshtein(a, b)


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_classic_example(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_disjoint(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_winkler_boosts_prefix(self):
        plain = jaro_similarity("prefixed", "prefixes")
        boosted = jaro_winkler_similarity("prefixed", "prefixes")
        assert boosted > plain

    def test_winkler_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            jaro_winkler_similarity("a", "b", prefix_weight=0.5)

    @given(short_text, short_text)
    def test_jaro_range_and_symmetry(self, a, b):
        s = jaro_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(jaro_similarity(b, a))

    @settings(max_examples=500)
    @given(repetitive_text, repetitive_text)
    def test_jaro_is_bit_identical_to_the_window_scan(self, a, b):
        assert jaro_similarity(a, b) == reference_jaro(a, b)

    @given(short_text, short_text)
    def test_jaro_is_bit_identical_on_printable_text(self, a, b):
        assert jaro_similarity(a, b) == reference_jaro(a, b)

    @pytest.mark.parametrize(
        "a,b",
        [
            ("martha", "marhta"),
            ("dixon", "dicksonx"),
            ("dwayne", "duane"),
            ("prefixed", "prefixes"),
            ("abcd", "abcd"),
            ("abcde", "abcdx"),
            ("a", "ab"),
            ("", "abc"),
        ],
    )
    @pytest.mark.parametrize("prefix_weight", [0.0, 0.1, 0.25])
    def test_winkler_prefix_cases_match_the_oracle(self, a, b, prefix_weight):
        assert jaro_winkler_similarity(
            a, b, prefix_weight
        ) == reference_jaro_winkler(a, b, prefix_weight)

    @given(repetitive_text, repetitive_text)
    def test_winkler_matches_the_oracle_cold_and_warm(self, a, b):
        expected = reference_jaro_winkler(a, b)
        memoized, __ = token_memo()
        assert jaro_winkler_similarity(a, b) == expected
        assert memoized(a, b) == expected  # a miss
        assert memoized(a, b) == expected  # a hit


def strings_up_to(alphabet: str, longest: int) -> list[str]:
    """Every string over ``alphabet`` of at most ``longest`` letters."""
    return [
        "".join(letters)
        for length in range(longest + 1)
        for letters in itertools.product(alphabet, repeat=length)
    ]


def asymmetric_pairs(alphabet: str, longest: int) -> tuple[int, list]:
    """How many unordered pairs of distinct strings over ``alphabet`` up
    to ``longest`` letters there are, and those where ``jaro_similarity``
    differs between the two argument orders or the Jaro-Winkler memo
    answers either order other than the window scan of that order."""
    strings = strings_up_to(alphabet, longest)
    found = []
    for i, a in enumerate(strings):
        for b in strings[i + 1 :]:
            if not (
                jaro_similarity(a, b) == jaro_similarity(b, a)
                and jaro_winkler_similarity(a, b)
                == reference_jaro_winkler(a, b)
                and jaro_winkler_similarity(b, a)
                == reference_jaro_winkler(b, a)
            ):
                found.append((a, b))
    return len(strings) * (len(strings) - 1) // 2, found


class TestJaroIsSymmetric:
    """The evidence beside the proof in DESIGN.md entry 25: over a few
    letters, where greedy window matching has the most choices, every
    pair up to a length gives one float in either order."""

    def test_every_pair_over_three_letters_up_to_five(self):
        assert asymmetric_pairs("abc", 5) == (66_066, [])

    @pytest.mark.slow
    def test_every_pair_over_two_letters_to_eight_and_four_to_four(self):
        assert asymmetric_pairs("ab", 8) == (130_305, [])
        assert asymmetric_pairs("abcd", 4) == (57_970, [])


def token_memo():
    """A comparator's Jaro-Winkler and its memo (the token tier)."""
    comparator = RecordComparator(
        [FieldComparator("b", jaro_winkler_similarity)]
    )
    return comparator.similarities[0], comparator.memos["jaro_winkler"]


class TestTokenTierMemo:
    def test_both_argument_orders_share_one_entry(self):
        # Jaro-Winkler is symmetric to the last bit, so the memo keys a
        # pair by value order and one order is a hit on the other's entry.
        a, b = "abaa", "aaba"
        similarity, memo = token_memo()
        forward = similarity(a, b)
        backward = similarity(b, a)
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert forward == backward == reference_jaro_winkler(a, b)
        assert backward == reference_jaro_winkler(b, a)

    def test_eviction_keeps_the_bound_and_the_results(self):
        similarity, memo = token_memo()
        assert memo.cache_info().maxsize == MEMO_MAXSIZE
        early = [("token0", f"tokne{k}") for k in range(50)]
        first_pass = [similarity(a, b) for a, b in early]
        for k in range(MEMO_MAXSIZE + 100):
            similarity("filler", f"filler{k}")
        info = memo.cache_info()
        assert info.currsize == info.maxsize
        misses_before = info.misses
        assert [similarity(a, b) for a, b in early] == first_pass
        # The early pairs really were evicted and recomputed.
        assert memo.cache_info().misses == misses_before + len(early)
        assert memo.cache_info().currsize <= MEMO_MAXSIZE


class TestTokenSimilarities:
    def test_jaccard(self):
        assert jaccard_similarity("big data", "big data tools") == pytest.approx(2 / 3)

    def test_dice(self):
        assert dice_similarity("big data", "big data tools") == pytest.approx(4 / 5)

    def test_overlap(self):
        assert overlap_coefficient("big data", "big data tools") == 1.0

    def test_empty_both_is_one(self):
        assert jaccard_similarity("", "") == 1.0
        assert dice_similarity("", "") == 1.0

    def test_empty_one_is_zero(self):
        assert jaccard_similarity("a", "") == 0.0

    def test_accepts_pretokenized(self):
        assert jaccard_similarity(["a", "b"], ["a", "b"]) == 1.0

    @given(short_text, short_text)
    def test_dice_geq_jaccard(self, a, b):
        assert dice_similarity(a, b) >= jaccard_similarity(a, b) - 1e-12


class TestCosine:
    def test_identical_distribution(self):
        assert cosine_similarity("a a b", "a a b") == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity("a", "b") == 0.0


class TestMongeElkan:
    def test_tolerates_token_typos(self):
        sim = monge_elkan_similarity("canon powershot", "cannon powershot")
        assert sim > 0.9

    def test_empty(self):
        assert monge_elkan_similarity("", "") == 1.0
        assert monge_elkan_similarity("a", "") == 0.0


class TestNumericAndMeasurement:
    def test_numeric_identical(self):
        assert numeric_similarity(5.0, 5.0) == 1.0

    def test_numeric_beyond_tolerance(self):
        assert numeric_similarity(100.0, 150.0, tolerance=0.1) == 0.0

    def test_numeric_within_tolerance(self):
        assert 0.0 < numeric_similarity(100.0, 104.0, tolerance=0.1) < 1.0

    def test_numeric_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            numeric_similarity(1.0, 2.0, tolerance=0.0)

    def test_measurement_unit_conversion(self):
        assert measurement_similarity("5.5 in", "13.97 cm") == pytest.approx(
            1.0, abs=0.01
        )

    def test_measurement_different_dimension(self):
        assert measurement_similarity("5 kg", "5 cm") == 0.0

    def test_measurement_falls_back_to_string(self):
        assert measurement_similarity("black", "black") == 1.0

    def test_exact(self):
        assert exact_similarity("a", "a") == 1.0
        assert exact_similarity("a", "b") == 0.0


@pytest.mark.parametrize(
    "function",
    [
        levenshtein_similarity,
        jaro_similarity,
        jaro_winkler_similarity,
        jaccard_similarity,
        dice_similarity,
        overlap_coefficient,
        monge_elkan_similarity,
    ],
)
class TestCommonProperties:
    @given(a=short_text)
    @settings(max_examples=25)
    def test_self_similarity_is_one(self, function, a):
        assert function(a, a) == pytest.approx(1.0)

    @given(a=short_text, b=short_text)
    @settings(max_examples=25)
    def test_range(self, function, a, b):
        assert 0.0 <= function(a, b) <= 1.0 + 1e-9
