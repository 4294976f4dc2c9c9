"""Tests for the fast pair-comparison engine.

Covers the three engine layers against the naive path: prepared
records must give byte-identical comparison vectors, staged early-exit
scoring must agree with full scoring at every threshold (including
exact-boundary scores, missing fields, and missing_penalty), and the
multiprocess backend must produce identical vectors and final cluster
sets to serial execution on a seeded corpus.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Record
from repro.core.pipeline import PipelineConfig
from repro.dist import run_distributed_linkage
from repro.linkage import (
    Block,
    BlockCollection,
    ParallelComparisonEngine,
    PreparedRecord,
    RecordComparator,
    FieldComparator,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    prepare_records,
    resolve,
)
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro.text import (
    MEMO_CACHES,
    clear_memo_caches,
    exact_similarity,
    jaro_winkler_similarity,
    product_name_similarity,
)


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
        prepared = prepare_records(comparator, records)
        for left, right in pairs:
            naive = comparator.compare(by_id[left], by_id[right])
            fast = comparator.compare_prepared(prepared[left], prepared[right])
            assert fast == naive  # dataclass equality: ids, sims, score

    def test_prepare_keyed_by_record_id(self, corpus):
        records, __, __ = corpus
        comparator = default_product_comparator()
        prepared = prepare_records(comparator, records)
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


class TestScoreBounded:
    THRESHOLDS = (0.3, 0.5, 0.7, 0.72, 0.85, 0.95)

    def test_decisions_agree_with_full_scoring(self, corpus):
        records, by_id, pairs = corpus
        comparator = default_product_comparator()
        prepared = prepare_records(comparator, records)
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


class TestMemoIsInvisible:
    """The similarity memos may change when a float is computed, never
    which float: clearing them mid-run must not move a byte."""

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
            clear_memo_caches()
            cold_vectors.extend(engine.compare_pairs(by_id, chunk))
            clear_memo_caches()
            run = engine.match_pairs(by_id, chunk, classifier)
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
        from repro.linkage.comparison import VALUE_SIMILARITY_CACHE_MAXSIZE

        memo = MEMO_CACHES["value_similarity"]
        memo.cache_clear()
        assert memo.cache_info().maxsize == VALUE_SIMILARITY_CACHE_MAXSIZE
        comparator = RecordComparator(
            [FieldComparator("name", product_name_similarity)]
        )

        def prepared(index, name):
            return comparator.prepare(Record(f"r{index}", "s", {"name": name}))

        probe = prepared(0, "canon powershot 512")
        early = [prepared(k, f"cannon powershot {k}") for k in range(1, 40)]
        first_pass = [comparator.compare_prepared(probe, e) for e in early]
        for k in range(VALUE_SIMILARITY_CACHE_MAXSIZE + 50):
            comparator.compare_prepared(probe, prepared(k, f"filler {k}"))
        info = memo.cache_info()
        assert info.currsize == info.maxsize
        misses_before = info.misses
        assert [
            comparator.compare_prepared(probe, e) for e in early
        ] == first_pass
        assert memo.cache_info().misses == misses_before + len(early)
        assert memo.cache_info().currsize <= VALUE_SIMILARITY_CACHE_MAXSIZE

    def test_unknown_similarity_callables_are_never_memoized(self):
        calls = []

        def impure(a, b):
            calls.append((a, b))
            return 1.0 if a == b else 0.5

        comparator = RecordComparator([FieldComparator("name", impure)])
        left = comparator.prepare(Record("a", "s", {"name": "x"}))
        right = comparator.prepare(Record("b", "s", {"name": "y"}))
        memo = MEMO_CACHES["value_similarity"]
        before = memo.cache_info()
        for __ in range(3):
            comparator.compare_prepared(left, right)
            comparator.score_bounded(left, right, 0.4)
        assert len(calls) == 6
        after = memo.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


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

    def test_duplicated_pairs_scored_once(self, overlapping):
        records, blocks = overlapping
        comparator = default_product_comparator()
        classifier = ThresholdClassifier(0.72)
        memoized = run_distributed_linkage(
            records, blocks, comparator, classifier, "naive", 3
        )
        raw = run_distributed_linkage(
            records, blocks, comparator, classifier, "naive", 3,
            memoize=False,
        )
        assert memoized.match_pairs == raw.match_pairs
        assert memoized.n_unique_comparisons < memoized.n_comparisons
        assert raw.n_comparisons == memoized.n_comparisons

    def test_strategies_report_same_unique_count(self, overlapping):
        records, blocks = overlapping
        comparator = default_product_comparator()
        classifier = ThresholdClassifier(0.72)
        runs = [
            run_distributed_linkage(
                records, blocks, comparator, classifier, strategy, 4
            )
            for strategy in ("naive", "blocksplit", "pairrange")
        ]
        assert len({run.n_unique_comparisons for run in runs}) == 1
        assert (
            runs[0].match_pairs
            == runs[1].match_pairs
            == runs[2].match_pairs
        )

    @pytest.mark.slow
    def test_process_execution_matches_serial(self, overlapping):
        records, blocks = overlapping
        comparator = default_product_comparator()
        classifier = ThresholdClassifier(0.72)
        serial = run_distributed_linkage(
            records, blocks, comparator, classifier, "blocksplit", 4
        )
        process = run_distributed_linkage(
            records, blocks, comparator, classifier, "blocksplit", 4,
            execution="process", n_workers=2,
        )
        assert process.match_pairs == serial.match_pairs
