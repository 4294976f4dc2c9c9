"""Tests for the columnar block representation and batch kernels.

The contract under test is bit-identity: every kernel output — full
comparison vectors, staged match decisions, early-exit counts — must
equal the scalar prepared-record path byte for byte, on adversarial
Hypothesis corpora covering every similarity the comparator registry
ships, across serial/process/stream execution, through ``resolve`` and
the pipeline, out of core, and across a kill-and-resume checkpoint
boundary. The satellite similarity-helper fixes (pre-tokenized input
handling in ``_as_set``/``_as_counts``/``_numeric_token_set``) are
pinned here too.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Record
from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.columnar import (
    ColumnarBlock,
    build_block,
    column_kind,
    match_id_pairs,
    score_id_pairs,
)
from repro.columnar.block import (
    KIND_COUNTS,
    KIND_EXACT,
    KIND_MEASUREMENT,
    KIND_SCALAR,
    KIND_TOKEN_SET,
)
from repro.linkage import (
    FieldComparator,
    ParallelComparisonEngine,
    RecordComparator,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    resolve,
)
from repro.obs import Tracer
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro.text import (
    cosine_similarity,
    dice_similarity,
    exact_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    measurement_similarity,
    monge_elkan_similarity,
    overlap_coefficient,
    product_name_similarity,
)
from repro.text.similarity import _as_set, _numeric_token_set


def _suffix_equal(a: str, b: str) -> float:
    """An unregistered similarity: exercises the KIND_SCALAR fallback."""
    return 1.0 if a[-1:] == b[-1:] else 0.0


#: One field per registered similarity plus one unknown callable — a
#: block built from this comparator materializes every column kind.
ALL_FIELDS = (
    ("pid", exact_similarity, 1.5),
    ("size", measurement_similarity, 1.0),
    ("tags", jaccard_similarity, 0.5),
    ("words", dice_similarity, 0.75),
    ("kws", overlap_coefficient, 0.5),
    ("desc", cosine_similarity, 1.0),
    ("code", jaro_similarity, 0.5),
    ("brand", jaro_winkler_similarity, 1.0),
    ("sku", levenshtein_similarity, 0.5),
    ("title", monge_elkan_similarity, 1.0),
    ("name", product_name_similarity, 2.0),
    ("suffix", _suffix_equal, 0.25),
)


def _all_kinds_comparator(missing_penalty: float = 0.0) -> RecordComparator:
    return RecordComparator(
        fields=[
            FieldComparator(attr, sim, weight=weight)
            for attr, sim, weight in ALL_FIELDS
        ],
        missing_penalty=missing_penalty,
    )


_WORDS = st.text(
    alphabet="abcxyz0123589 éµ-.", min_size=0, max_size=24
)
_MEASUREMENT = st.one_of(
    _WORDS,
    st.builds(
        "{:.2f} {}".format,
        st.floats(0.01, 999.0, allow_nan=False),
        st.sampled_from(["in", "cm", "mm", "g", "kg", "lb", "hz"]),
    ),
)


@st.composite
def _record_batches(draw):
    """3–7 records over the all-kinds schema, attributes dropping out."""
    n = draw(st.integers(min_value=3, max_value=7))
    records = []
    for i in range(n):
        attributes = {}
        for attr, __, __w in ALL_FIELDS:
            strategy = _MEASUREMENT if attr == "size" else _WORDS
            value = draw(st.one_of(st.none(), strategy))
            if value is not None:
                attributes[attr] = value
        records.append(Record(f"r{i}", f"s{i % 3}", attributes))
    return records


def _all_pairs(records):
    ids = [record.record_id for record in records]
    return [
        (ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    ]


class TestKernelScalarEquality:
    """Hypothesis: kernels == scalar path for every registered similarity."""

    @given(records=_record_batches())
    @settings(max_examples=60, deadline=None)
    def test_score_vectors_byte_identical(self, records):
        comparator = _all_kinds_comparator()
        prepared = {r.record_id: comparator.prepare(r) for r in records}
        block = build_block(comparator, records)
        pairs = _all_pairs(records)
        vectors, __ = score_id_pairs(block, pairs)
        for (left, right), vector in zip(pairs, vectors):
            assert vector == comparator.compare_prepared(
                prepared[left], prepared[right]
            )

    @given(
        records=_record_batches(),
        threshold=st.sampled_from((0.0, 0.3, 0.5, 0.7, 0.85, 1.0)),
        penalty=st.sampled_from((0.0, 0.1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_decisions_identical(self, records, threshold, penalty):
        comparator = _all_kinds_comparator(missing_penalty=penalty)
        prepared = {r.record_id: comparator.prepare(r) for r in records}
        block = build_block(comparator, records)
        pairs = _all_pairs(records)
        matches, __, stats = match_id_pairs(block, pairs, threshold)
        expected = []
        for left, right in pairs:
            bounded = comparator.score_bounded(
                prepared[left], prepared[right], threshold, exact_scores=True
            )
            if bounded.is_match:
                expected.append((left, right, bounded.score))
        assert matches == expected
        assert (
            stats["columnar.pairs_vectorized"]
            + stats["columnar.pairs_residual"]
        ) == len(pairs)


class TestBlockStructure:
    def test_column_kind_registry(self):
        assert column_kind(exact_similarity) == KIND_EXACT
        assert column_kind(jaccard_similarity) == KIND_TOKEN_SET
        assert column_kind(dice_similarity) == KIND_TOKEN_SET
        assert column_kind(overlap_coefficient) == KIND_TOKEN_SET
        assert column_kind(cosine_similarity) == KIND_COUNTS
        assert column_kind(measurement_similarity) == KIND_MEASUREMENT
        for similarity in (
            jaro_similarity,
            jaro_winkler_similarity,
            levenshtein_similarity,
            monge_elkan_similarity,
            product_name_similarity,
            _suffix_equal,
        ):
            assert column_kind(similarity) == KIND_SCALAR

    def test_block_exposes_deterministic_nbytes(self):
        records = [
            Record("a", "s1", {"name": "canon pro 512", "tags": "x y"}),
            Record("b", "s2", {"name": "cannon pro 512"}),
        ]
        comparator = _all_kinds_comparator()
        first = build_block(comparator, records)
        second = build_block(comparator, records)
        assert isinstance(first, ColumnarBlock)
        assert first.nbytes == second.nbytes > 0
        from repro.outofcore import columnar_block_nbytes

        assert columnar_block_nbytes(first) == first.nbytes

    def test_unknown_record_id_raises(self):
        block = build_block(
            default_product_comparator(),
            [Record("a", "s1", {"name": "x"})],
        )
        with pytest.raises(KeyError):
            score_id_pairs(block, [("a", "missing")])


class TestSimilarityHelperFixes:
    """Pins for the pre-tokenized-input bugfix in the text layer."""

    def test_token_set_metrics_accept_pretokenized(self):
        tokens = ["canon", "pro", "512"]
        assert jaccard_similarity(tokens, "canon pro 512") == 1.0
        assert dice_similarity(tokens, ("canon", "pro")) == 0.8
        assert overlap_coefficient(tokens, {"canon"}) == 1.0

    def test_cosine_accepts_pretokenized_and_counters(self):
        # Historically crashed: the list was handed to the tokenizer.
        assert cosine_similarity(
            ["a", "a", "b"], Counter({"a": 2, "b": 1})
        ) == pytest.approx(1.0)
        assert cosine_similarity(["a", "a"], "a a") == 1.0
        assert cosine_similarity([], "") == 1.0
        assert cosine_similarity([], "a") == 0.0

    def test_as_set_preserves_tokens_verbatim(self):
        assert _as_set(["", "É", "a"]) == {"", "É", "a"}
        assert _as_set("Canon PRO-512") == {"canon", "pro", "512"}
        assert jaccard_similarity([""], [""]) == 1.0

    def test_numeric_token_set_uses_unicode_digits(self):
        assert _numeric_token_set(["٣", "abc", "", "mk2"]) == {"٣", "mk2"}


@pytest.fixture(scope="module")
def corpus():
    world = generate_world(
        WorldConfig(categories=("camera",), entities_per_category=15, seed=3)
    )
    dataset = generate_dataset(
        world, CorpusConfig(n_sources=5, typo_rate=0.05, seed=4)
    )
    records = list(dataset.records())
    by_id = {record.record_id: record for record in records}
    candidates = TokenBlocker(max_block_size=60).block(records).candidate_pairs()
    pairs = [
        (ids[0], ids[1])
        for ids in (sorted(pair) for pair in sorted(candidates, key=sorted))
    ]
    return dataset, records, by_id, pairs


CLASSIFIER = ThresholdClassifier(0.7)


def _columnar_engine(execution="serial", **kwargs):
    return ParallelComparisonEngine(
        default_product_comparator(),
        execution=execution,
        representation="columnar",
        **kwargs,
    )


class TestEngineIntegration:
    def test_rejects_unknown_representation(self):
        with pytest.raises(ConfigurationError):
            ParallelComparisonEngine(
                default_product_comparator(), representation="arrow"
            )

    def test_serial_match_identical_to_dict(self, corpus):
        __, __, by_id, pairs = corpus
        reference = ParallelComparisonEngine(
            default_product_comparator()
        ).match_pairs(by_id, pairs, CLASSIFIER)
        run = _columnar_engine().match_pairs(by_id, pairs, CLASSIFIER)
        assert run.representation == "columnar"
        assert run.match_pairs == reference.match_pairs
        assert run.scored_edges == reference.scored_edges

    def test_serial_vectors_identical_to_dict(self, corpus):
        __, __, by_id, pairs = corpus
        reference = ParallelComparisonEngine(
            default_product_comparator()
        ).compare_pairs(by_id, pairs)
        assert _columnar_engine().compare_pairs(by_id, pairs) == reference

    def test_counters_and_gauges_published(self, corpus):
        __, __, by_id, pairs = corpus
        tracer = Tracer()
        run = _columnar_engine(tracer=tracer).match_pairs(
            by_id, pairs, CLASSIFIER
        )
        metrics = tracer.report().metrics
        counters = metrics.get("counters", {})
        gauges = metrics.get("gauges", {})
        assert (
            counters["columnar.pairs_vectorized"]
            + counters["columnar.pairs_residual"]
        ) == len(pairs)
        assert gauges["columnar.block_bytes"] > 0
        assert run.n_early_exit == counters["engine.pairs_early_exit"]

        dict_tracer = Tracer()
        ParallelComparisonEngine(
            default_product_comparator(), tracer=dict_tracer
        ).match_pairs(by_id, pairs, CLASSIFIER)
        dict_gauges = dict_tracer.report().metrics.get("gauges", {})
        assert dict_gauges["engine.prepared_bytes"] > 0

    def test_stream_serial_identical_to_plain(self, corpus):
        from repro.outofcore import MemoryBudget

        __, __, by_id, pairs = corpus
        plain = _columnar_engine().match_pairs(by_id, pairs, CLASSIFIER)
        streamed = _columnar_engine().match_pairs_stream(
            by_id, iter(pairs), CLASSIFIER, budget=MemoryBudget(1 << 26)
        )
        assert streamed.match_pairs == plain.match_pairs
        assert streamed.scored_edges == plain.scored_edges
        assert streamed.n_early_exit == plain.n_early_exit

    @pytest.mark.slow
    def test_process_identical_to_serial(self, corpus):
        __, __, by_id, pairs = corpus
        serial = _columnar_engine().match_pairs(by_id, pairs, CLASSIFIER)
        process = _columnar_engine("process", n_workers=2).match_pairs(
            by_id, pairs, CLASSIFIER
        )
        assert process.match_pairs == serial.match_pairs
        assert process.scored_edges == serial.scored_edges
        assert process.n_early_exit == serial.n_early_exit

    @pytest.mark.slow
    def test_stream_process_identical_to_serial(self, corpus):
        from repro.outofcore import MemoryBudget

        __, __, by_id, pairs = corpus
        serial = _columnar_engine().match_pairs(by_id, pairs, CLASSIFIER)
        streamed = _columnar_engine("process", n_workers=2).match_pairs_stream(
            by_id, iter(pairs), CLASSIFIER, budget=MemoryBudget(1 << 26)
        )
        assert streamed.match_pairs == serial.match_pairs
        assert streamed.scored_edges == serial.scored_edges
        assert streamed.n_early_exit == serial.n_early_exit


class TestResolveAndPipeline:
    def test_resolve_parity(self, corpus):
        __, records, __, __ = corpus
        blocker = TokenBlocker(max_block_size=60)
        comparator = default_product_comparator()
        reference = resolve(records, blocker, comparator, CLASSIFIER)
        columnar = resolve(
            records, blocker, comparator, CLASSIFIER,
            representation="columnar",
        )
        assert columnar.match_pairs == reference.match_pairs
        assert columnar.scored_edges == reference.scored_edges
        assert columnar.clusters == reference.clusters

    def test_resolve_out_of_core_parity(self, corpus):
        __, records, __, __ = corpus
        blocker = TokenBlocker(max_block_size=60)
        comparator = default_product_comparator()
        reference = resolve(records, blocker, comparator, CLASSIFIER)
        bounded = resolve(
            records, blocker, comparator, CLASSIFIER,
            representation="columnar",
            memory_budget=256 * 1024,
        )
        assert bounded.match_pairs == reference.match_pairs
        assert bounded.clusters == reference.clusters

    def test_tight_budget_binds_for_columnar_chunks(self, corpus):
        # Chunks whose block would overflow the budget split in half
        # until each sub-block fits, so peak tracked bytes stay at or
        # under the limit — with output still byte-identical.
        from repro.outofcore import MemoryBudget

        __, records, __, __ = corpus
        blocker = TokenBlocker(max_block_size=60)
        comparator = default_product_comparator()
        reference = resolve(records, blocker, comparator, CLASSIFIER)
        budget = MemoryBudget(16 * 1024)
        bounded = resolve(
            records, blocker, comparator, CLASSIFIER,
            representation="columnar",
            memory_budget=budget,
        )
        assert bounded.match_pairs == reference.match_pairs
        assert bounded.scored_edges == reference.scored_edges
        assert bounded.clusters == reference.clusters
        assert budget.peak <= budget.limit
        assert budget.spill_count > 0

    def test_pipeline_config_validates_representation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(representation="arrow")

    def test_pipeline_parity(self, corpus):
        dataset, __, __, __ = corpus
        reference = BDIPipeline(PipelineConfig()).run(dataset)
        columnar = BDIPipeline(
            PipelineConfig(representation="columnar")
        ).run(dataset)
        assert columnar.clusters == reference.clusters
        assert columnar.entity_table == reference.entity_table
        assert columnar.fusion.chosen == reference.fusion.chosen


class TestCheckpointResume:
    def test_aborted_columnar_run_resumes_identically(self, corpus, tmp_path):
        from repro.recovery import RunStore
        from repro.resilience import (
            ChunkExecutionError,
            ResilienceConfig,
            RetryPolicy,
        )
        from repro.resilience.testing import FaultInjector, crash

        __, __, by_id, pairs = corpus
        baseline = _columnar_engine(chunk_size=500).match_pairs(
            by_id, pairs, CLASSIFIER
        )
        chaos = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            failure="fail",
            fault_injector=FaultInjector(crash(chunk=2)),
        )
        with pytest.raises(ChunkExecutionError):
            _columnar_engine(
                chunk_size=500,
                resilience=chaos,
                checkpoint=RunStore(tmp_path),
            ).match_pairs(by_id, pairs, CLASSIFIER)

        tracer = Tracer()
        resumed = _columnar_engine(
            chunk_size=500, checkpoint=RunStore(tmp_path), tracer=tracer
        ).match_pairs(by_id, pairs, CLASSIFIER)
        assert resumed.match_pairs == baseline.match_pairs
        assert resumed.scored_edges == baseline.scored_edges
        counters = tracer.report().metrics.get("counters", {})
        assert counters["recovery.chunks_replayed"] == 2

    def test_dict_checkpoint_resumable_by_columnar(self, corpus, tmp_path):
        # Chunk artifacts carry plain match tuples, not representation
        # internals, so a run may switch layouts across a resume.
        from repro.recovery import RunStore

        __, __, by_id, pairs = corpus
        baseline = _columnar_engine(chunk_size=500).match_pairs(
            by_id, pairs, CLASSIFIER
        )
        ParallelComparisonEngine(
            default_product_comparator(),
            chunk_size=500,
            checkpoint=RunStore(tmp_path),
        ).match_pairs(by_id, pairs, CLASSIFIER)
        tracer = Tracer()
        resumed = _columnar_engine(
            chunk_size=500, checkpoint=RunStore(tmp_path), tracer=tracer
        ).match_pairs(by_id, pairs, CLASSIFIER)
        assert resumed.match_pairs == baseline.match_pairs
        assert resumed.scored_edges == baseline.scored_edges
        counters = tracer.report().metrics.get("counters", {})
        assert counters["recovery.chunks_replayed"] > 0
