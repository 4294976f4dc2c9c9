"""Tests for the fast pair-comparison engine.

Covers the three engine layers against the naive path: prepared
records must give byte-identical comparison vectors, staged early-exit
scoring must agree with full scoring at every threshold (including
exact-boundary scores, missing fields, and missing_penalty), and the
multiprocess backend must produce identical vectors and final cluster
sets to serial execution on a seeded corpus.
"""

import collections.abc
import functools
import itertools
import math
import pickle
import time

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Record
from repro.core.pipeline import PipelineConfig
from repro.dist import partition_blocks, task_pairs
from repro.linkage import (
    Block,
    BlockCollection,
    IncrementalLinker,
    ParallelComparisonEngine,
    PreparedRecord,
    RecordComparator,
    FieldComparator,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    plain_threshold,
    progressive_resolution_curve,
    resolve,
)
from repro.linkage import engine as engine_module
from repro.linkage.blocking import first_token_key
from repro.linkage.comparison import BOUND_MARGIN, MEMO_MAXSIZE
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro.obs import Tracer
from repro.outofcore import MemoryBudget
from repro.recovery import RunStore
from repro.resilience import ChunkExecutionError, ResilienceConfig
from repro.resilience.testing import FaultInjector, crash
from repro.text import similarity as similarity_module
from repro.text import (
    cosine_similarity,
    exact_similarity,
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    measurement_similarity,
    monge_elkan_similarity,
    product_name_similarity,
)
from tests.oracle import reference_prepare, reference_score_bounded


@pytest.fixture(scope="module")
def corpus():
    world = generate_world(
        WorldConfig(
            categories=("camera",), entities_per_category=15, seed=3
        )
    )
    dataset = generate_dataset(
        world, CorpusConfig(n_sources=5, typo_rate=0.05, seed=4)
    )
    records = list(dataset.records())
    by_id = {record.record_id: record for record in records}
    candidates = TokenBlocker(max_block_size=60).block(
        records
    ).candidate_pairs()
    pairs = [
        (ids[0], ids[1])
        for ids in (sorted(pair) for pair in sorted(candidates, key=sorted))
    ]
    return records, by_id, pairs


class TestPreparedRecords:
    def test_prepared_vectors_byte_identical(self, corpus):
        records, by_id, pairs = corpus
        comparator = default_product_comparator()
        prepared = {r.record_id: comparator.prepare(r) for r in records}
        for left, right in pairs:
            naive = comparator.compare(by_id[left], by_id[right])
            fast = comparator.compare_prepared(prepared[left], prepared[right])
            assert fast == naive  # dataclass equality: ids, sims, score

    def test_prepare_keyed_by_record_id(self, corpus):
        records, __, __ = corpus
        comparator = default_product_comparator()
        prepared = {r.record_id: comparator.prepare(r) for r in records}
        assert set(prepared) == {record.record_id for record in records}
        assert all(
            isinstance(p, PreparedRecord) for p in prepared.values()
        )

    def test_record_pickle_roundtrip(self, corpus):
        records, __, __ = corpus
        clone = pickle.loads(pickle.dumps(records[0]))
        assert clone == records[0]

    def test_comparator_pickle_roundtrip(self):
        comparator = default_product_comparator()
        clone = pickle.loads(pickle.dumps(comparator))
        left = Record("a", "s1", {"name": "canon pro 512", "brand": "canon"})
        right = Record("b", "s2", {"name": "cannon pro 512", "brand": "canon"})
        assert clone.compare(left, right) == comparator.compare(left, right)


def _attribute_table_comparators():
    """The default comparator (``"model"`` serves two of its fields) and
    one whose names overlap on purpose: a field listing its own name as
    an alias, two fields naming each other, one not normalizing."""
    return [
        default_product_comparator(),
        RecordComparator(
            [
                FieldComparator(
                    "a", exact_similarity, aliases=("b", "a", "c")
                ),
                FieldComparator(
                    "b", jaccard_similarity, normalize=False, aliases=("a",)
                ),
                FieldComparator("c", levenshtein_similarity, aliases=("b",)),
            ]
        ),
    ]


_ATTRIBUTE_VALUES = st.sampled_from(
    ["", " ", "Canon PowerShot 512", "canon pro 3", "1.2 kg", "15.6 in",
     "Red", "AB-1234", "model x"]
)


class _CountingMapping(collections.abc.Mapping):
    """A mapping that counts every read of a value."""

    def __init__(self, data):
        self._data = data
        self.reads = collections.Counter()

    def __getitem__(self, name):
        self.reads[name] += 1
        return self._data[name]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


class TestAttributeTable:
    """``prepare`` resolves every field in one pass over the attributes;
    it must take what each field's own look-up takes."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_prepare_equals_field_by_field(self, data):
        comparator = data.draw(
            st.sampled_from(_attribute_table_comparators())
        )
        names = sorted(
            {
                name
                for field in comparator.fields
                for name in (field.attribute, *field.aliases)
            }
            | {"model", "price", "unrelated"}
        )
        attributes = data.draw(
            st.dictionaries(
                st.sampled_from(names),
                st.none() | _ATTRIBUTE_VALUES,
                max_size=len(names),
            )
        )
        record = Record(
            "r", "s",
            {name: value for name, value in attributes.items() if value},
        )
        assert comparator.prepare(record) == reference_prepare(
            comparator, record
        )
        # A translator may hand over any mapping, ``None`` values too.
        translated = RecordComparator(
            comparator.fields, translate=lambda __: attributes
        )
        assert translated.prepare(record) == reference_prepare(
            translated, record
        )

    def test_prepare_reads_each_attribute_once(self):
        attributes = _CountingMapping(
            {
                "title": "Canon PowerShot 512",
                "model": "PS-512",
                "brand": "canon",
                "colour": "red",
                "price": "199",
            }
        )
        comparator = default_product_comparator(
            translate=lambda __: attributes
        )
        record = Record("r", "s", {"x": "y"})
        prepared = comparator.prepare(record)
        assert attributes.reads == dict.fromkeys(attributes._data, 1)
        assert prepared == reference_prepare(comparator, record)
        assert bin(prepared.mask).count("1") == 4


class TestScoreBounded:
    THRESHOLDS = (0.3, 0.5, 0.7, 0.72, 0.85, 0.95)

    def test_decisions_agree_with_full_scoring(self, corpus):
        records, by_id, pairs = corpus
        comparator = default_product_comparator()
        prepared = {r.record_id: comparator.prepare(r) for r in records}
        n_early = 0
        for left, right in pairs:
            full = comparator.compare(by_id[left], by_id[right])
            for threshold in self.THRESHOLDS:
                bounded = comparator.score_bounded(
                    prepared[left], prepared[right], threshold
                )
                assert bounded.is_match == (full.score >= threshold)
                if bounded.exact:
                    assert bounded.vector == full
                    assert bounded.score == full.score
                else:
                    n_early += 1
                decision_only = comparator.score_bounded(
                    prepared[left],
                    prepared[right],
                    threshold,
                    exact_scores=False,
                )
                assert decision_only.is_match == bounded.is_match
        assert n_early > 0  # the staged scorer actually skips work

    def test_accepts_raw_records(self):
        comparator = default_product_comparator()
        left = Record("a", "s1", {"name": "canon pro 512"})
        right = Record("b", "s2", {"name": "canon pro 512"})
        bounded = comparator.score_bounded(left, right, 0.7)
        assert bounded.is_match
        assert bounded.score == comparator.compare(left, right).score

    def test_boundary_score_exactly_at_threshold(self):
        comparator = RecordComparator(
            fields=[
                FieldComparator("a", exact_similarity, weight=1.0),
                FieldComparator("b", exact_similarity, weight=1.0),
            ]
        )
        left = Record("l", "s1", {"a": "same", "b": "one"})
        right = Record("r", "s2", {"a": "same", "b": "two"})
        assert comparator.compare(left, right).score == 0.5
        assert comparator.score_bounded(left, right, 0.5).is_match
        assert not comparator.score_bounded(left, right, 0.5 + 1e-6).is_match
        # well away from the boundary the staged scorer may exit early,
        # but the decision still matches full scoring
        assert not comparator.score_bounded(left, right, 0.99).is_match
        assert comparator.score_bounded(left, right, 0.01).is_match

    def test_missing_fields_excluded_like_compare(self):
        comparator = RecordComparator(
            fields=[
                FieldComparator("a", exact_similarity, weight=3.0),
                FieldComparator("b", jaro_winkler_similarity, weight=1.0),
            ]
        )
        left = Record("l", "s1", {"a": "x"})
        right = Record("r", "s2", {"a": "x", "b": "whatever"})
        full = comparator.compare(left, right)
        assert full.score == 1.0  # field b missing on the left: excluded
        bounded = comparator.score_bounded(left, right, 0.9)
        assert bounded.is_match
        assert bounded.score == full.score

    def test_all_fields_missing(self):
        comparator = RecordComparator(
            fields=[FieldComparator("a", exact_similarity)]
        )
        left = Record("l", "s1", {"z": "1"})
        right = Record("r", "s2", {"z": "2"})
        assert comparator.compare(left, right).score == 0.0
        bounded = comparator.score_bounded(left, right, 0.5)
        assert not bounded.is_match
        assert bounded.score == 0.0
        assert bounded.exact

    def test_missing_penalty_respected(self):
        for penalty in (0.0, 0.3, 1.0):
            comparator = RecordComparator(
                fields=[
                    FieldComparator("a", exact_similarity, weight=2.0),
                    FieldComparator("b", exact_similarity, weight=1.0),
                ],
                missing_penalty=penalty,
            )
            left = Record("l", "s1", {"a": "x"})
            right = Record("r", "s2", {"a": "x", "b": "y"})
            full = comparator.compare(left, right)
            for threshold in (0.1, full.score, 0.99):
                bounded = comparator.score_bounded(left, right, threshold)
                assert bounded.is_match == (full.score >= threshold)
            exact = comparator.score_bounded(left, right, full.score)
            assert exact.score == full.score

    @given(
        values=st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=48, max_codepoint=122),
                max_size=12,
            ),
            min_size=4,
            max_size=4,
        ),
        threshold=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_agrees_for_arbitrary_values(self, values, threshold):
        comparator = default_product_comparator()
        left = Record(
            "l", "s1", {"name": values[0], "brand": values[1]}
        )
        right = Record(
            "r", "s2", {"name": values[2], "brand": values[3]}
        )
        full = comparator.compare(left, right)
        bounded = comparator.score_bounded(left, right, threshold)
        assert bounded.is_match == (full.score >= threshold)


def _unregistered_similarity(left: str, right: str) -> float:
    """A similarity the registry does not know (generic spec, never
    memoized); module-level so a comparator using it pickles. In
    ``[0, 1]``, as the staged bound requires of every similarity."""
    union = set(left) | set(right)
    return len(set(left) & set(right)) / len(union) if union else 1.0


#: One similarity per cost rank the staged order distinguishes.
_MIXED_COST_SIMILARITIES = (
    exact_similarity,
    measurement_similarity,
    jaccard_similarity,
    cosine_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    _unregistered_similarity,
    monge_elkan_similarity,
    product_name_similarity,
)

#: Few values, so pairs agree often enough to reach both exits.
_FIELD_VALUES = (
    "canon pro 512",
    "cannon pro 512",
    "nikon d70",
    "13.3 in",
    "33.8 cm",
    "1.2 kg",
    "red",
    "",
)


@st.composite
def comparators_and_records(draw):
    n_fields = draw(st.integers(1, 8))
    fields = [
        FieldComparator(
            f"f{index}",
            draw(st.sampled_from(_MIXED_COST_SIMILARITIES)),
            weight=draw(st.floats(0.05, 5.0)),
            normalize=draw(st.booleans()),
        )
        for index in range(n_fields)
    ]
    comparator = RecordComparator(
        fields, missing_penalty=draw(st.sampled_from((None, 0.0, 0.5, 1.0)))
    )
    records = [
        Record(
            f"r{k}",
            "s",
            {
                f"f{index}": value
                for index in range(n_fields)
                for value in [draw(st.sampled_from((None, *_FIELD_VALUES)))]
                if value is not None
            },
        )
        for k in range(draw(st.integers(2, 5)))
    ]
    return comparator, records


class TestOneDecision:
    """``decide`` is the one staged loop and ``score_bounded`` its report;
    both equal the reference above exactly, for any field subset."""

    @staticmethod
    def _thresholds(exact_score, drawn):
        return (
            exact_score,
            exact_score - BOUND_MARGIN,
            exact_score + BOUND_MARGIN,
            *drawn,
        )

    @given(
        case=comparators_and_records(),
        drawn=st.lists(st.floats(0.0, 1.0), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_decide_and_score_bounded_equal_the_reference(self, case, drawn):
        comparator, records = case
        for one, other in itertools.combinations(records, 2):
            left, right = comparator.prepare(one), comparator.prepare(other)
            exact_score = comparator.compare(one, other).score
            for threshold in self._thresholds(exact_score, drawn):
                for exact_scores in (True, False):
                    reference = reference_score_bounded(
                        comparator, left, right, threshold, exact_scores
                    )
                    report = comparator.score_bounded(
                        left, right, threshold, exact_scores
                    )
                    is_match, score, exact, similarities = comparator.decide(
                        left, right, threshold, exact_scores
                    )
                    assert report == reference
                    assert report.score.hex() == reference.score.hex()
                    assert (is_match, score.hex(), exact) == (
                        reference.is_match,
                        reference.score.hex(),
                        reference.exact,
                    )
                    assert len(similarities) == reference.n_evaluated
                    assert is_match == (exact_score >= threshold)

    @staticmethod
    def _decide_watched(comparator, left, right, threshold, exact_scores):
        """``decide``'s result, and whether its veto settled the pair: the
        first staged similarity of the pair's compiled plan is swapped
        for a counting wrapper, so a call that never reaches it ended
        before the staged loop."""
        mask = left.mask & right.mask
        plan = comparator._plan(mask)
        if not plan.staged:
            return comparator.decide(left, right, threshold, exact_scores), False
        (index, weight, similarity, bound), *rest = plan.staged
        calls = []

        def counted(one, other):
            calls.append(None)
            return similarity(one, other)

        comparator._plans[mask] = plan._replace(
            staged=((index, weight, counted, bound), *rest)
        )
        try:
            result = comparator.decide(left, right, threshold, exact_scores)
        finally:
            comparator._plans[mask] = plan
        return result, not calls

    def test_the_reference_strategy_reaches_the_veto(self):
        # The unedited reference test above draws pairs ``decide``
        # settles by its veto, so that test holds the veto too.
        vetoed = []

        @given(
            case=comparators_and_records(),
            drawn=st.lists(st.floats(0.0, 1.0), max_size=3),
        )
        @settings(
            max_examples=150, deadline=None, database=None, derandomize=True
        )
        def count(case, drawn):
            comparator, records = case
            for one, other in itertools.combinations(records, 2):
                left, right = comparator.prepare(one), comparator.prepare(other)
                exact_score = comparator.compare(one, other).score
                for threshold in self._thresholds(exact_score, drawn):
                    (is_match, score, __, __), fired = self._decide_watched(
                        comparator, left, right, threshold, True
                    )
                    if fired:
                        event("veto fires")
                        vetoed.append(threshold)
                        reference = reference_score_bounded(
                            comparator, left, right, threshold, True
                        )
                        assert (is_match, score.hex()) == (
                            reference.is_match,
                            reference.score.hex(),
                        )

        count()
        assert len(vetoed) >= 10

    @pytest.mark.parametrize("missing_penalty", (None, 0.5))
    @pytest.mark.parametrize("normalize", (True, False))
    def test_the_veto_at_its_edges(self, missing_penalty, normalize):
        fields = [
            FieldComparator(attribute, similarity, weight, normalize)
            for attribute, similarity, weight in (
                ("name", jaro_winkler_similarity, 3.0),
                ("id", exact_similarity, 4.0),
                ("color", exact_similarity, 0.5),
                ("size", measurement_similarity, 1.0),
            )
        ]
        comparator = RecordComparator(fields, missing_penalty=missing_penalty)

        def prepared(record_id, **attributes):
            return comparator.prepare(Record(record_id, "s", attributes))

        # (left, right, index the veto reads, whether the payloads differ)
        cases = [
            # The identifier is first staged and differs.
            (
                prepared("a", name="canon pro", id="X1", size="13 in"),
                prepared("b", name="canon pro", id="X2", size="13 in"),
                1,
                True,
            ),
            # It differs by case alone: only unnormalized payloads differ.
            (
                prepared("a", name="canon", id="X1 ", color="red"),
                prepared("b", name="canon", id="x1", color="red"),
                1,
                not normalize,
            ),
            # One side lacks it: the colour is first staged, and differs.
            (
                prepared("a", name="canon", color="red", size="13 in"),
                prepared("b", name="canon", id="X1", color="blue"),
                2,
                True,
            ),
            # It agrees; the colour differs but is not first staged.
            (
                prepared("a", name="canon", id="X1", color="red"),
                prepared("b", name="canon", id="X1", color="blue"),
                1,
                False,
            ),
        ]
        for left, right, index, differ in cases:
            veto = comparator._plan(left.mask & right.mask).veto
            assert veto is not None and veto[0] == index
            edge = veto[1] + BOUND_MARGIN
            thresholds = (
                edge,
                math.nextafter(edge, -math.inf),
                math.nextafter(edge, math.inf),
                veto[1],
                0.0,
                1.0,
            )
            fired = []
            for threshold in thresholds:
                for exact_scores in (True, False):
                    reference = reference_score_bounded(
                        comparator, left, right, threshold, exact_scores
                    )
                    report = comparator.score_bounded(
                        left, right, threshold, exact_scores
                    )
                    decision, vetoed = self._decide_watched(
                        comparator, left, right, threshold, exact_scores
                    )
                    is_match, score, exact, similarities = decision
                    if exact_scores:
                        fired.append(vetoed)
                    else:
                        assert vetoed == fired[-1]
                    expected = (
                        reference.is_match,
                        reference.score.hex(),
                        reference.exact,
                        reference.n_evaluated,
                    )
                    assert (
                        report.is_match,
                        report.score.hex(),
                        report.exact,
                        report.n_evaluated,
                    ) == expected
                    assert (
                        is_match, score.hex(), exact, len(similarities)
                    ) == expected
            # At or below the edge it never fires; above it, iff the
            # payloads differ.
            assert fired == [False, False, differ, False, False, differ]

    def test_every_mask_compiles_one_plan(self):
        fields = [
            FieldComparator(f"f{index}", similarity)
            for index, similarity in enumerate(_MIXED_COST_SIMILARITIES[:4])
        ]
        comparator = RecordComparator(fields, missing_penalty=0.5)
        records = [
            comparator.prepare(
                Record(
                    f"r{mask}",
                    "s",
                    {f"f{i}": "red" for i in range(4) if mask >> i & 1},
                )
            )
            for mask in range(16)
        ]
        assert [record.mask for record in records] == list(range(16))
        for left, right in itertools.product(records, repeat=2):
            comparator.decide(left, right, 0.5)
        assert sorted(comparator._plans) == list(range(16))

    def test_warm_plan_table_survives_pickling(self, corpus):
        records, __, pairs = corpus
        comparator = RecordComparator(
            [
                *default_product_comparator().fields,
                FieldComparator("name", _unregistered_similarity, weight=0.7),
            ],
            missing_penalty=0.5,
        )
        prepared = {r.record_id: comparator.prepare(r) for r in records}
        before = [
            comparator.decide(prepared[left], prepared[right], 0.7)
            for left, right in pairs[:400]
        ]
        assert comparator._plans
        clone = pickle.loads(pickle.dumps(comparator))
        assert clone._plans.keys() == comparator._plans.keys()
        after = [
            clone.decide(prepared[left], prepared[right], 0.7)
            for left, right in pairs[:400]
        ]
        assert pickle.dumps(after) == pickle.dumps(before)

    def test_a_prepared_record_always_has_a_mask(self):
        with pytest.raises(TypeError, match="mask"):
            PreparedRecord(record_id="a", payloads=("x",))


class TestMemoIsInvisible:
    """A comparator's memos may change when a float is computed, never
    which float: a new comparator (empty memos) per chunk must not move
    a byte."""

    CHUNK = 97

    def test_vectors_and_matches_identical_with_memos_cleared_between_chunks(
        self, corpus
    ):
        __, by_id, pairs = corpus
        comparator = default_product_comparator()
        classifier = ThresholdClassifier(0.72)
        engine = ParallelComparisonEngine(comparator, execution="serial")
        warm_vectors = engine.compare_pairs(by_id, pairs)
        warm_run = engine.match_pairs(by_id, pairs, classifier)

        cold_vectors = []
        cold_matches = set()
        cold_edges = []
        for start in range(0, len(pairs), self.CHUNK):
            chunk = pairs[start : start + self.CHUNK]
            cold = ParallelComparisonEngine(default_product_comparator())
            cold_vectors.extend(cold.compare_pairs(by_id, chunk))
            run = cold.match_pairs(by_id, chunk, classifier)
            cold_matches |= run.match_pairs
            cold_edges.extend(run.scored_edges)
        assert pickle.dumps(cold_vectors) == pickle.dumps(warm_vectors)
        assert cold_matches == warm_run.match_pairs
        assert pickle.dumps(sorted(cold_edges)) == pickle.dumps(
            sorted(warm_run.scored_edges)
        )
        # ... and both are the naive path's floats.
        for vector, (left, right) in zip(warm_vectors, pairs):
            assert vector == comparator.compare(by_id[left], by_id[right])

    def test_value_tier_eviction_keeps_the_bound_and_the_results(self):
        comparator = RecordComparator(
            [FieldComparator("name", product_name_similarity)]
        )
        memo = comparator.memos["value_similarity"]
        assert memo.cache_info().maxsize == MEMO_MAXSIZE

        def prepared(index, name):
            return comparator.prepare(Record(f"r{index}", "s", {"name": name}))

        probe = prepared(0, "canon powershot 512")
        early = [prepared(k, f"cannon powershot {k}") for k in range(1, 40)]
        first_pass = [comparator.compare_prepared(probe, e) for e in early]
        for k in range(MEMO_MAXSIZE + 50):
            comparator.compare_prepared(probe, prepared(k, f"filler {k}"))
        info = memo.cache_info()
        assert info.currsize == info.maxsize
        misses_before = info.misses
        assert [
            comparator.compare_prepared(probe, e) for e in early
        ] == first_pass
        assert memo.cache_info().misses == misses_before + len(early)
        assert memo.cache_info().currsize <= MEMO_MAXSIZE

    def test_payload_tier_prepares_a_value_once_per_spec(self):
        comparator = RecordComparator(
            [
                *default_product_comparator().fields,
                FieldComparator("name", jaccard_similarity),
            ]
        )
        memo = comparator.memos["value_payload"]
        assert memo.cache_info().maxsize == MEMO_MAXSIZE
        attributes = {"name": "Canon PowerShot 512", "weight": "1.2 kg"}
        first = comparator.prepare(Record("a", "s1", attributes))
        # Another similarity's payload of the same value is another entry.
        assert first.payloads[-1] == frozenset({"canon", "powershot", "512"})
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 3)
        again = comparator.prepare(Record("b", "s2", attributes))
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 3, 3)
        # Records publishing a value share its one payload object.
        assert all(
            one is other for one, other in zip(first.payloads, again.payloads)
        )
        # A pickled comparator arrives with empty memos, same payloads.
        clone = pickle.loads(pickle.dumps(comparator))
        assert clone.memos["value_payload"].cache_info().currsize == 0
        assert clone.prepare(Record("a", "s1", attributes)) == first

    def test_unknown_similarity_callables_are_never_memoized(self):
        calls = []

        def impure(a, b):
            calls.append((a, b))
            return 1.0 if a == b else 0.5

        comparator = RecordComparator([FieldComparator("name", impure)])
        left = comparator.prepare(Record("a", "s", {"name": "x"}))
        right = comparator.prepare(Record("b", "s", {"name": "y"}))
        for __ in range(3):
            comparator.compare_prepared(left, right)
            comparator.score_bounded(left, right, 0.4)
        assert len(calls) == 6
        for name in ("jaro_winkler", "value_similarity"):
            assert comparator.memos[name].cache_info().currsize == 0


class TestNameBound:
    """The product name's model-number factor bounds its score before
    the Monge-Elkan grid: a pair it rejects builds no grid, and a pair
    it cannot reject is scored exactly as before."""

    @staticmethod
    def _counting_grids(monkeypatch):
        grids = []
        grid = similarity_module.monge_elkan_tokens

        def counted(*args):
            grids.append(args[:2])
            return grid(*args)

        monkeypatch.setattr(similarity_module, "monge_elkan_tokens", counted)
        return grids

    def test_disagreeing_model_numbers_build_no_grid(self, monkeypatch):
        grids = self._counting_grids(monkeypatch)
        comparator = default_product_comparator()
        left = Record("a", "s1", {"name": "Canon Pro 512", "brand": "Canon"})
        other = Record("b", "s2", {"name": "Canon Pro 3", "brand": "Canon"})
        same = Record("c", "s2", {"name": "Cannon Pro 512", "brand": "Canon"})
        rejected = comparator.score_bounded(left, other, 0.7)
        # brand 1.0 at weight 1, name at most 0.25 at weight 3, of 4.
        assert (rejected.is_match, rejected.exact) == (False, False)
        assert rejected.score == (1.0 + 3.0 * 0.25 + 0.0) / 4.0
        assert rejected.n_evaluated == 1
        assert grids == []
        assert comparator.compare(left, other).score < rejected.score
        grids.clear()
        matched = comparator.score_bounded(left, same, 0.7)
        assert matched.exact and matched.is_match
        assert matched.score.hex() == comparator.compare(
            left, same
        ).score.hex()
        assert matched.vector == comparator.compare(left, same)
        assert grids

    def test_the_bound_goes_through_the_value_memo(self):
        comparator = default_product_comparator()
        left = comparator.prepare(
            Record("a", "s1", {"name": "canon pro 512", "brand": "canon"})
        )
        right = comparator.prepare(
            Record("b", "s2", {"name": "canon pro 3", "brand": "canon"})
        )
        memo = comparator.memos["value_similarity"]
        for __ in range(3):
            assert not comparator.decide(left, right, 0.7)[0]
        info = memo.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        # That entry is the bound: the name's similarity is another.
        comparator.compare_prepared(left, right)
        assert memo.cache_info().misses == 2


class TestCallerPairs:
    """The engine scores the caller's pair tuples as they are; other
    two-item shapes and pairs naming unknown ids read as before."""

    def test_shapes_and_unknown_ids_give_the_same_run(self, corpus):
        __, by_id, pairs = corpus
        classifier = ThresholdClassifier(0.72)
        as_tuples = ParallelComparisonEngine(
            default_product_comparator()
        ).match_pairs(by_id, pairs, classifier)
        mixed = [
            list(pair) if k % 2 else pair for k, pair in enumerate(pairs)
        ]
        mixed[3:3] = [(pairs[0][0], "missing/0"), ["missing/1", pairs[1][1]]]
        as_mixed = ParallelComparisonEngine(
            default_product_comparator()
        ).match_pairs(by_id, mixed, classifier)
        assert as_mixed == as_tuples
        assert pickle.dumps(as_mixed.scored_edges) == pickle.dumps(
            as_tuples.scored_edges
        )
        vectors = ParallelComparisonEngine(
            default_product_comparator()
        ).compare_pairs(by_id, mixed)
        assert vectors == [
            default_product_comparator().compare(by_id[a], by_id[b])
            for a, b in pairs
        ]

    def test_tuples_reach_the_scorer_as_the_same_objects(
        self, corpus, monkeypatch
    ):
        __, by_id, pairs = corpus
        seen = []
        score = engine_module._DictScorer.score

        def watched(self, chunk, threshold):
            seen.extend(chunk)
            return score(self, chunk, threshold)

        monkeypatch.setattr(engine_module._DictScorer, "score", watched)
        listed = [list(pair) for pair in pairs[:5]]
        given_pairs = [*listed, *pairs[5:]]
        ParallelComparisonEngine(default_product_comparator()).match_pairs(
            by_id, given_pairs, ThresholdClassifier(0.72)
        )
        assert seen == [tuple(pair) for pair in given_pairs]
        assert all(type(pair) is tuple for pair in seen)
        assert all(one is other for one, other in zip(seen[5:], pairs[5:]))


class TestProcessBackend:
    @pytest.mark.slow
    def test_vectors_identical_serial_vs_process(self, corpus):
        records, by_id, pairs = corpus
        comparator = default_product_comparator()
        serial = ParallelComparisonEngine(comparator, execution="serial")
        process = ParallelComparisonEngine(
            comparator, execution="process", n_workers=2
        )
        subset = pairs[:300]
        assert process.compare_pairs(by_id, subset) == serial.compare_pairs(
            by_id, subset
        )

    @pytest.mark.slow
    def test_resolve_identical_clusters(self, corpus):
        records, __, __ = corpus
        comparator = default_product_comparator()
        classifier = ThresholdClassifier(0.72)
        blocker = TokenBlocker(max_block_size=60)
        serial = resolve(records, blocker, comparator, classifier)
        process = resolve(
            records,
            blocker,
            comparator,
            classifier,
            execution="process",
            n_workers=2,
        )
        assert process.match_pairs == serial.match_pairs
        assert process.clusters == serial.clusters
        assert process.scored_edges == serial.scored_edges

    def test_unknown_execution_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelComparisonEngine(
                default_product_comparator(), execution="threads"
            )
        with pytest.raises(ConfigurationError):
            ParallelComparisonEngine(
                default_product_comparator(), n_workers=0
            )
        with pytest.raises(ConfigurationError):
            PipelineConfig(execution="threads")

    @pytest.mark.slow
    def test_serial_and_process_counters_identical(self, corpus):
        from repro.obs import Tracer

        records, by_id, pairs = corpus
        comparator = default_product_comparator()
        classifier = ThresholdClassifier(0.72)
        subset = pairs[:300]
        counters = {}
        for mode, n_workers in (("serial", None), ("process", 2)):
            tracer = Tracer()
            engine = ParallelComparisonEngine(
                comparator,
                execution=mode,
                n_workers=n_workers,
                tracer=tracer,
            )
            engine.match_pairs(by_id, subset, classifier)
            counters[mode] = tracer.metrics.snapshot()["counters"]
        # Comparison outcomes must not depend on the backend; only the
        # per-worker prepared caches may legitimately differ.
        for name in (
            "engine.pairs_total",
            "engine.pairs_matched",
            "engine.pairs_early_exit",
        ):
            assert counters["serial"][name] == counters["process"][name]
        assert counters["serial"]["engine.pairs_total"] == len(subset)
        assert counters["serial"]["engine.pairs_early_exit"] > 0

    def test_match_pairs_skips_unknown_ids(self, corpus):
        records, by_id, __ = corpus
        engine = ParallelComparisonEngine(default_product_comparator())
        known = records[0].record_id
        run = engine.match_pairs(
            by_id,
            [(known, "missing/0"), ("missing/1", "missing/2")],
            ThresholdClassifier(0.5),
        )
        assert run.n_pairs == 0
        assert run.match_pairs == set()


class TestDistributedMemoization:
    """Overlapping blocks put every shared pair into two match tasks;
    the dedup that scores it once is ``candidate_pairs()`` and the
    canonical pair list, whatever strategy scheduled the tasks."""

    @pytest.fixture(scope="class")
    def overlapping(self, request):
        world = generate_world(
            WorldConfig(
                categories=("camera",), entities_per_category=12, seed=3
            )
        )
        dataset = generate_dataset(
            world, CorpusConfig(n_sources=4, seed=5)
        )
        records = list(dataset.records())
        ids = [record.record_id for record in records]
        # Two overlapping blocks duplicate every pair of the shared
        # prefix — exactly the cross-block redundancy MapReduce ER pays.
        blocks = BlockCollection(
            [
                Block("left", tuple(ids[: len(ids) * 2 // 3])),
                Block("right", tuple(ids[len(ids) // 3 :])),
            ]
        )
        return records, blocks

    @staticmethod
    def _task_level_pairs(blocks, strategy, n_reducers):
        return [
            pair
            for tasks in partition_blocks(blocks, strategy, n_reducers)
            for task in tasks
            for pair in task_pairs(task)
        ]

    def test_strategies_report_same_unique_count(self, overlapping):
        __, blocks = overlapping
        unique = [
            {
                frozenset(pair)
                for pair in self._task_level_pairs(blocks, strategy, 4)
            }
            for strategy in ("naive", "blocksplit", "pairrange")
        ]
        assert unique[0] == unique[1] == unique[2] == blocks.candidate_pairs()
        # The overlap is real: tasks carry every shared pair twice.
        assert len(unique[0]) < blocks.n_comparisons

    @pytest.mark.slow
    def test_process_execution_matches_serial(self, overlapping):
        records, blocks = overlapping
        comparator = default_product_comparator()
        classifier = ThresholdClassifier(0.72)
        pairs = self._task_level_pairs(blocks, "blocksplit", 4)
        serial = ParallelComparisonEngine(comparator).match_pairs(
            records, pairs, classifier
        )
        process = ParallelComparisonEngine(
            comparator, execution="process", n_workers=2
        ).match_pairs(records, pairs, classifier)
        assert process.match_pairs == serial.match_pairs
        assert process.scored_edges == serial.scored_edges


# --- one loop under every configuration --------------------------------
#
# Every engine call runs the same chunk loop, whatever it is configured
# with; the lattice below pins each cell of execution × representation ×
# feed × operation to the naive per-pair path, and the tests after it
# pin what only one side of the old direct-vs-resilient fork used to do.


class _ScoreBandClassifier:
    """A non-threshold classifier: the engine must hand it full vectors."""

    def is_match(self, vector):
        return vector.score >= 0.72 and len(vector.similarities) > 1


def _exact(value):
    """An identity-free exact rendering (``repr`` round-trips floats).

    ``pickle.dumps`` would do for serial runs, but it memoizes by object
    identity, and worker results arrive as copies of the id strings.
    """
    return repr(value)


_LATTICE = [
    pytest.param(
        execution, representation, feed, operation,
        marks=[pytest.mark.slow] if execution == "process" else [],
        id=f"{execution}-{representation}-{feed}-{operation}",
    )
    for execution, representation, feed, operation in itertools.product(
        ("serial", "process"),
        ("dict", "columnar"),
        ("list", "stream", "stream-budget"),
        ("threshold", "classifier", "compare"),
    )
    # compare_pairs takes a pair list; only the match operations stream.
    if operation != "compare" or feed == "list"
]


class TestOneLoop:
    CHUNK = 97

    @pytest.fixture(scope="class")
    def reference(self, corpus):
        __, by_id, pairs = corpus
        comparator = default_product_comparator()
        vectors = [
            comparator.compare(by_id[left], by_id[right])
            for left, right in pairs
        ]
        early = ParallelComparisonEngine(comparator).match_pairs(
            by_id, pairs, ThresholdClassifier(0.72)
        ).n_early_exit
        return vectors, early

    @pytest.mark.parametrize(
        "execution,representation,feed,operation", _LATTICE
    )
    def test_every_cell_equals_the_naive_path(
        self, corpus, reference, execution, representation, feed, operation
    ):
        __, by_id, pairs = corpus
        vectors, n_early = reference
        tracer = Tracer()
        engine = ParallelComparisonEngine(
            default_product_comparator(),
            execution=execution,
            n_workers=2,
            chunk_size=self.CHUNK,
            representation=representation,
            tracer=tracer,
        )
        expected_chunks = (
            len(engine._chunks(pairs))
            if feed == "list"
            else math.ceil(len(pairs) / self.CHUNK)
        )
        assert expected_chunks > 2
        if operation == "compare":
            assert _exact(engine.compare_pairs(by_id, pairs)) == _exact(
                vectors
            )
            counters = tracer.metrics.snapshot()["counters"]
            assert counters["engine.chunks"] == expected_chunks
            assert counters["engine.pairs_total"] == len(pairs)
            assert not engine.dead_letters
            return
        classifier = (
            ThresholdClassifier(0.72)
            if operation == "threshold"
            else _ScoreBandClassifier()
        )
        if feed == "list":
            run = engine.match_pairs(by_id, pairs, classifier)
        else:
            budget = MemoryBudget(1 << 26) if feed == "stream-budget" else None
            run = engine.match_pairs_stream(
                by_id, iter(pairs), classifier, budget=budget
            )
        edges = [
            (vector.left_id, vector.right_id, vector.score)
            for vector in vectors
            if classifier.is_match(vector)
        ]
        assert _exact(run.scored_edges) == _exact(edges)
        assert run.match_pairs == {
            frozenset((left, right)) for left, right, __ in edges
        }
        assert run.n_pairs == len(pairs)
        assert run.n_early_exit == (n_early if operation == "threshold" else 0)
        assert run.n_chunks == run.completed_chunks == expected_chunks
        assert not run.dead_letters and run.dead_letters is engine.dead_letters
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["engine.chunks_done"] == expected_chunks
        if representation == "dict":
            assert gauges["engine.prepared_bytes"] > 0


class _Never(ThresholdClassifier):
    """A threshold subclass with its own decision: no path may answer
    for it with ``score >= match_threshold``."""

    def is_match(self, vector):
        return False


def _resolve_matches(**options):
    def run(records, classifier):
        return resolve(
            records,
            TokenBlocker(max_block_size=60),
            default_product_comparator(),
            classifier,
            **options,
        ).match_pairs

    return run


def _incremental_matches(records, classifier):
    linker = IncrementalLinker(
        [first_token_key("name")], default_product_comparator(), classifier
    )
    return {frozenset(pair) for pair in linker.add_batch(records).match_pairs}


def _progressive_matches(records, classifier):
    blocks = TokenBlocker(max_block_size=60).block(records)
    curve = progressive_resolution_curve(
        records, blocks, default_product_comparator(), classifier
    )
    return curve[-1].matches_found


class TestPlainThreshold:
    """Every linkage path asks one rule whether it may early-exit."""

    PATHS = {
        "serial": _resolve_matches(),
        "columnar": _resolve_matches(representation="columnar"),
        "sharded": _resolve_matches(
            execution="sharded", n_shards=2, shard_backend="inline"
        ),
        "incremental": _incremental_matches,
        "progressive": _progressive_matches,
    }

    def test_only_the_exact_type_is_plain(self):
        assert plain_threshold(ThresholdClassifier(0.7)) == 0.7
        assert plain_threshold(_Never(0.7)) is None
        assert plain_threshold(_ScoreBandClassifier()) is None

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_a_subclass_decides_for_itself_on_every_path(self, corpus, path):
        records, by_id, pairs = corpus
        comparator = default_product_comparator()
        classifier = _Never(0.7)
        naive = {
            frozenset(pair)
            for pair in pairs
            if classifier.is_match(
                comparator.compare(by_id[pair[0]], by_id[pair[1]])
            )
        }
        assert not naive
        run = self.PATHS[path]
        # The path is live: the plain rule finds matches on it.
        assert run(records, ThresholdClassifier(0.7))
        assert not run(records, classifier)


def _raising_similarity(left: str, right: str) -> float:
    raise ValueError(f"boom on {left!r}")


class TestFailureContract:
    """Whatever ran the chunk, a failing comparator surfaces as one
    error type naming the chunk, with the original as its cause."""

    @pytest.mark.parametrize("representation", ["dict", "columnar"])
    @pytest.mark.parametrize(
        "execution",
        ["serial", pytest.param("process", marks=pytest.mark.slow)],
    )
    @pytest.mark.parametrize("operation", ["match", "compare"])
    def test_raising_similarity_is_a_chunk_error_with_its_cause(
        self, execution, representation, operation
    ):
        records = [
            Record(f"r{i}", "s", {"name": f"item {i}"}) for i in range(4)
        ]
        pairs = [("r0", "r1"), ("r2", "r3")]
        engine = ParallelComparisonEngine(
            RecordComparator([FieldComparator("name", _raising_similarity)]),
            execution=execution,
            n_workers=2,
            chunk_size=1,
            representation=representation,
        )
        with pytest.raises(ChunkExecutionError) as caught:
            if operation == "match":
                engine.match_pairs(records, pairs, ThresholdClassifier(0.5))
            else:
                engine.compare_pairs(records, pairs)
        assert caught.value.chunk_id == "0"
        assert caught.value.attempts == 1
        cause = caught.value.__cause__
        assert type(cause) is ValueError and "boom on" in str(cause)
        assert caught.value.cause is cause


def _slow_similarity(left: str, right: str, sleep=0.0, log=None) -> float:
    """Sleeps per call and, when given a file, logs the call — from
    inside whichever process scored the pair."""
    if log is not None:
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{left}|{right}\n")
    time.sleep(sleep)
    return 1.0 if left == right else 0.0


@pytest.mark.slow
class TestChunksInFlight:
    def _workload(self, n_pairs):
        records = [
            Record(f"r{i}", "s", {"name": f"item {i}"})
            for i in range(n_pairs + 1)
        ]
        pairs = [(f"r{i}", f"r{i + 1}") for i in range(n_pairs)]
        return records, pairs

    def _engine(self, similarity, **kwargs):
        return ParallelComparisonEngine(
            RecordComparator([FieldComparator("name", similarity)]),
            execution="process",
            n_workers=2,
            chunk_size=1,
            **kwargs,
        )

    def test_resilient_process_run_keeps_both_workers_busy(self):
        records, pairs = self._workload(4)
        engine = self._engine(
            functools.partial(_slow_similarity, sleep=0.4),
            resilience=ResilienceConfig(failure="fail"),
        )
        started = time.perf_counter()
        run = engine.match_pairs(records, pairs, ThresholdClassifier(0.5))
        elapsed = time.perf_counter() - started
        assert run.n_chunks == run.completed_chunks == 4
        # Two rounds of two chunks (0.8 s) plus pool start-up; one
        # chunk in flight at a time would take 1.6 s.
        assert elapsed < 1.4

    def test_resume_never_rescores_the_replayed_prefix(self, tmp_path):
        log = tmp_path / "scored.log"
        logged = functools.partial(_slow_similarity, log=str(log))
        records, pairs = self._workload(6)
        classifier = ThresholdClassifier(0.5)
        single = self._engine(logged).match_pairs(records, pairs, classifier)
        abort = ResilienceConfig(
            failure="fail", fault_injector=FaultInjector(crash(chunk=3))
        )
        with pytest.raises(ChunkExecutionError):
            self._engine(
                logged,
                resilience=abort,
                checkpoint=RunStore(tmp_path / "store"),
            ).match_pairs(records, pairs, classifier)
        log.write_text("")
        resumed = self._engine(
            logged, checkpoint=RunStore(tmp_path / "store")
        ).match_pairs(records, pairs, classifier)
        assert resumed.replayed_chunks == 3
        assert resumed.scored_edges == single.scored_edges
        assert resumed.n_chunks == resumed.completed_chunks == 6
        # Lookahead starts at the first chunk the executor runs: the
        # replayed chunks 0-2 never reach a worker, the rest run once.
        scored = sorted(log.read_text().splitlines())
        assert scored == sorted(
            f"item {i}|item {i + 1}" for i in range(3, 6)
        )
