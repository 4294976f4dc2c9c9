"""Differential tests: out-of-core streaming vs the in-memory path.

The contract of :mod:`repro.outofcore` is *byte identity*: every
streaming path — blockers, resolve, the full pipeline with streamed
claims and fusion — must reproduce the in-memory result exactly while
keeping tracked resident bytes under the configured budget. These
tests assert that contract across synthetic worlds of varying skew,
through kill-and-resume mid-spill, and (via Hypothesis) over random
corpus × budget × chunk-size combinations.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Record
from repro.core.errors import EmptyInputError
from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.io import load_dataset, open_record_stream, save_dataset
from repro.linkage import (
    CanopyBlocker,
    MinHashBlocker,
    ParallelComparisonEngine,
    QGramBlocker,
    SortedNeighborhoodBlocker,
    StandardBlocker,
    SuffixArrayBlocker,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    resolve,
)
from repro.obs import Tracer
from repro.outofcore import (
    ExternalPairDeduper,
    ExternalSorter,
    IndexedRecordStore,
    MemoryBudget,
    SpillSession,
    SpillableBlockIndex,
    SpillableClaimGroups,
    pair_nbytes,
    stream_accuvote,
    stream_voting,
)
from repro.recovery import RunStore
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.resilience.testing import FaultInjector, crash
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)

COMPARATOR = default_product_comparator()
CLASSIFIER = ThresholdClassifier(0.6)

# Budgets small enough to force spilling on every corpus below.
TIGHT = 6_000
ROOMY = 50_000_000


def _dataset(seed=11, entities=12, sources=4, zipf=1.1):
    world = generate_world(
        WorldConfig(entities_per_category=entities, seed=seed)
    )
    return generate_dataset(
        world,
        CorpusConfig(n_sources=sources, source_size_zipf=zipf, seed=seed),
    )


def _records(seed=11, **kwargs):
    return list(_dataset(seed, **kwargs).records())


def _spill(tmp_path, limit=TIGHT, name="spill"):
    budget = MemoryBudget(limit)
    store = RunStore(tmp_path / name, durable=False)
    return SpillSession(store, budget), budget


def _block_list(collection):
    return [(block.key, block.record_ids) for block in collection.blocks]


# --- spill primitives ------------------------------------------------


class TestMemoryBudget:
    def test_tracks_peak_and_spills(self):
        budget = MemoryBudget(100)
        budget.add(60)
        budget.add(30)
        budget.remove(50)
        assert budget.tracked == 40
        assert budget.peak == 90
        assert budget.would_exceed(70)
        assert not budget.would_exceed(60)
        budget.record_spill(512)
        assert budget.spill_count == 1
        assert budget.spill_bytes == 512

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ConfigurationError):
            MemoryBudget(0)

    def test_publish_exports_gauges(self):
        tracer = Tracer()
        budget = MemoryBudget(100, tracer=tracer)
        budget.add(42)
        budget.publish()
        gauges = tracer.report().metrics.get("gauges", {})
        assert gauges["outofcore.peak_tracked_bytes"] == 42
        assert gauges["outofcore.spill_count"] == 0


class TestSpillableBlockIndex:
    def test_merged_equals_sorted_key_map(self, tmp_path):
        spill, budget = _spill(tmp_path, limit=500)
        index = SpillableBlockIndex(spill.store, spill.budget)
        expected: dict[str, list[str]] = {}
        for i in range(200):
            key, rid = f"k{i % 17:02d}", f"r{i:03d}"
            index.add(key, rid)
            expected.setdefault(key, []).append(rid)
        assert budget.spill_count > 0
        merged = list(index.merged())
        assert merged == [(key, expected[key]) for key in sorted(expected)]
        assert budget.peak <= 500

    def test_no_spill_under_roomy_budget(self, tmp_path):
        spill, budget = _spill(tmp_path, limit=ROOMY)
        index = SpillableBlockIndex(spill.store, spill.budget)
        for i in range(50):
            index.add(f"k{i % 5}", f"r{i}")
        assert list(index.merged())
        assert budget.spill_count == 0

    def test_add_after_merge_rejected(self, tmp_path):
        spill, __ = _spill(tmp_path)
        index = SpillableBlockIndex(spill.store, spill.budget)
        index.add("a", "r1")
        list(index.merged())
        with pytest.raises(RuntimeError):
            index.add("b", "r2")


class TestExternalSorter:
    def test_sorted_and_reiterable(self, tmp_path):
        spill, budget = _spill(tmp_path, limit=400)
        sorter = ExternalSorter(spill.store, spill.budget)
        items = [(i * 7919 % 101, f"v{i}") for i in range(150)]
        for item in items:
            sorter.add(item, 64)
        assert budget.spill_count > 0
        first = list(sorter.sorted_stream())
        second = list(sorter.sorted_stream())
        assert first == sorted(items)
        assert second == first

    def test_discard_removes_runs(self, tmp_path):
        spill, __ = _spill(tmp_path, limit=200)
        sorter = ExternalSorter(spill.store, spill.budget)
        for i in range(50):
            sorter.add((i,), 64)
        list(sorter.sorted_stream())
        assert sorter.n_runs > 0
        sorter.discard()
        assert sorter.n_runs == 0
        assert list(spill.store.keys()) == []


class TestExternalPairDeduper:
    def test_stream_equals_sorted_unique(self, tmp_path):
        spill, budget = _spill(tmp_path, limit=800)
        deduper = ExternalPairDeduper(spill.store, spill.budget)
        blocks = [
            [f"r{i}" for i in range(j, j + 6)] for j in range(0, 40, 3)
        ]
        for ids in blocks:
            deduper.add_block(ids)
        expected = set()
        for ids in blocks:
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    expected.add(tuple(sorted((ids[a], ids[b]))))
        streamed = list(deduper.stream())
        assert streamed == sorted(expected)
        assert deduper.n_pairs == len(expected)
        assert budget.spill_count > 0
        assert budget.peak <= 800


class TestIndexedRecordStore:
    def test_matches_loaded_dataset(self, tmp_path):
        dataset = _dataset()
        stem = tmp_path / "corpus"
        save_dataset(dataset, stem)
        loaded = {r.record_id: r for r in load_dataset(stem).records()}
        store = IndexedRecordStore(
            stem.with_suffix(".records.jsonl"), MemoryBudget(TIGHT)
        )
        assert set(store) == set(loaded)
        assert len(store) == len(loaded)
        for rid, record in loaded.items():
            assert store[rid] == record
        assert [r.record_id for r in store.values()] == list(loaded)

    def test_cache_stays_under_budget(self, tmp_path):
        dataset = _dataset()
        stem = tmp_path / "corpus"
        save_dataset(dataset, stem)
        budget = MemoryBudget(3_000)
        store = IndexedRecordStore(stem.with_suffix(".records.jsonl"), budget)
        for rid in store:
            store[rid]
        assert budget.peak <= 3_000

    def test_missing_id_raises(self, tmp_path):
        dataset = _dataset()
        stem = tmp_path / "corpus"
        save_dataset(dataset, stem)
        store = IndexedRecordStore(stem.with_suffix(".records.jsonl"))
        with pytest.raises(KeyError):
            store["nope"]


class TestRecordStream:
    def test_stream_matches_load_dataset(self, tmp_path):
        dataset = _dataset()
        stem = tmp_path / "corpus"
        save_dataset(dataset, stem)
        stream = open_record_stream(stem)
        loaded = list(load_dataset(stem).records())
        assert list(stream) == loaded
        # Re-iterable: a second pass starts fresh.
        assert list(stream) == loaded


# --- streaming blockers ----------------------------------------------

def _first_value(record):
    # Synthetic sources rename attributes per dialect, so key on the
    # lexicographically smallest value: deterministic for any record.
    return min(map(str, record.attributes.values()), default="")


# Every KeyBlocker, as (factory, the cap it was built with).
KEYED_BLOCKERS = {
    "token": (lambda: TokenBlocker(max_block_size=40), 40),
    "standard": (lambda: StandardBlocker(lambda r: _first_value(r)[:2]), None),
    # A key function may name a key twice; the record then sits in
    # that block twice, in memory and streamed alike.
    "standard-repeated-key": (
        lambda: StandardBlocker(lambda r: [_first_value(r)[:2]] * 2),
        None,
    ),
    "qgram": (lambda: QGramBlocker(_first_value, q=3, max_block_size=12), 12),
    "suffix": (
        lambda: SuffixArrayBlocker(
            _first_value, min_suffix_length=3, max_block_size=4
        ),
        4,
    ),
    "minhash": (lambda: MinHashBlocker(n_hashes=16, bands=8), None),
}

BLOCKERS = [
    *(
        pytest.param(factory, id=name)
        for name, (factory, __) in KEYED_BLOCKERS.items()
    ),
    pytest.param(
        lambda: SortedNeighborhoodBlocker(_first_value, window=4),
        id="sorted-neighborhood",
    ),
]


def _naive_blocks(blocker, cap, records):
    """Group-by-key longhand, so the shared core is not its own oracle."""
    by_key = {}
    for record in records:
        for key in blocker.record_keys(record):
            by_key.setdefault(key, []).append(record.record_id)
    return [
        (key, tuple(ids))
        for key, ids in sorted(by_key.items())
        if len(ids) >= 2 and (cap is None or len(ids) <= cap)
    ]


SKEWS = [0.8, 1.1, 1.6]


class TestStreamingBlockers:
    @pytest.mark.parametrize("make_blocker", BLOCKERS)
    @pytest.mark.parametrize("zipf", SKEWS)
    def test_streamed_blocks_identical(self, tmp_path, make_blocker, zipf):
        records = _records(seed=7, zipf=zipf)
        blocker = make_blocker()
        expected = _block_list(blocker.block(records))
        spill, budget = _spill(tmp_path, limit=3_000)
        streamed = [
            (block.key, block.record_ids)
            for block in blocker.stream_blocks(records, spill)
        ]
        assert streamed == expected
        assert budget.peak <= 3_000
        assert budget.spill_count > 0

    @pytest.mark.parametrize("make_blocker", BLOCKERS)
    def test_streamed_blocks_identical_without_spilling(
        self, tmp_path, make_blocker
    ):
        records = _records(seed=8)
        blocker = make_blocker()
        expected = _block_list(blocker.block(records))
        spill, budget = _spill(tmp_path, limit=ROOMY)
        streamed = [
            (block.key, block.record_ids)
            for block in blocker.stream_blocks(records, spill)
        ]
        assert streamed == expected
        assert budget.spill_count == 0

    @pytest.mark.parametrize("name", sorted(KEYED_BLOCKERS))
    def test_keyed_blocks_match_naive_oracle(self, tmp_path, name):
        make_blocker, cap = KEYED_BLOCKERS[name]
        records = _records(seed=7, entities=30)
        expected = _naive_blocks(make_blocker(), cap, records)
        assert len(expected) > 1
        if cap is not None:  # a cap that drops nothing is not under test
            assert len(expected) < len(
                _naive_blocks(make_blocker(), None, records)
            )
        assert _block_list(make_blocker().block(records)) == expected
        spill, budget = _spill(tmp_path, limit=3_000)
        streamed = make_blocker().stream_blocks(records, spill)
        assert [(b.key, b.record_ids) for b in streamed] == expected
        assert budget.spill_count > 0

    def test_supports_streaming_flag(self):
        assert TokenBlocker().supports_streaming
        assert not CanopyBlocker(lambda r: "k").supports_streaming

    def test_base_blocker_raises(self, tmp_path):
        spill, __ = _spill(tmp_path)
        with pytest.raises(NotImplementedError):
            list(CanopyBlocker(lambda r: "k").stream_blocks([], spill))


# --- streaming resolve -----------------------------------------------


class TestStreamingResolve:
    @pytest.mark.parametrize("zipf", SKEWS)
    def test_resolve_parity(self, tmp_path, zipf):
        records = _records(seed=5, zipf=zipf)
        blocker = TokenBlocker(max_block_size=40)
        base = resolve(records, blocker, COMPARATOR, CLASSIFIER)
        tracer = Tracer()
        streamed = resolve(
            records,
            blocker,
            COMPARATOR,
            CLASSIFIER,
            tracer=tracer,
            memory_budget=25_000,
            spill_dir=tmp_path,
        )
        assert streamed.clusters == base.clusters
        assert streamed.match_pairs == base.match_pairs
        assert streamed.scored_edges == base.scored_edges
        assert streamed.n_candidates == base.n_candidates
        gauges = tracer.report().metrics.get("gauges", {})
        assert gauges["outofcore.peak_tracked_bytes"] <= 25_000
        assert gauges["outofcore.spill_count"] > 0

    @pytest.mark.parametrize("name", sorted(KEYED_BLOCKERS))
    def test_resolve_parity_every_keyed_blocker(self, tmp_path, name):
        records = _records(seed=5)
        make_blocker, __ = KEYED_BLOCKERS[name]
        base = resolve(records, make_blocker(), COMPARATOR, CLASSIFIER)
        budget = MemoryBudget(16 * 1024)
        streamed = resolve(
            records,
            make_blocker(),
            COMPARATOR,
            CLASSIFIER,
            memory_budget=budget,
            spill_dir=tmp_path,
        )
        assert streamed.clusters == base.clusters
        assert streamed.match_pairs == base.match_pairs
        assert streamed.scored_edges == base.scored_edges
        assert streamed.n_candidates == base.n_candidates > 0
        assert budget.peak <= budget.limit
        assert budget.spill_count > 0

    def test_resolve_parity_process_backend(self, tmp_path):
        records = _records(seed=6)
        blocker = TokenBlocker(max_block_size=40)
        base = resolve(records, blocker, COMPARATOR, CLASSIFIER)
        streamed = resolve(
            records,
            blocker,
            COMPARATOR,
            CLASSIFIER,
            execution="process",
            n_workers=2,
            memory_budget=25_000,
            spill_dir=tmp_path,
        )
        assert streamed.clusters == base.clusters
        assert streamed.scored_edges == base.scored_edges

    def test_resolve_with_candidate_pairs(self, tmp_path):
        records = _records(seed=5)
        blocker = TokenBlocker(max_block_size=40)
        pairs = blocker.block(records).candidate_pairs()
        base = resolve(
            records, blocker, COMPARATOR, CLASSIFIER, candidate_pairs=pairs
        )
        streamed = resolve(
            records,
            blocker,
            COMPARATOR,
            CLASSIFIER,
            candidate_pairs=pairs,
            memory_budget=25_000,
            spill_dir=tmp_path,
        )
        assert streamed.clusters == base.clusters
        assert streamed.n_candidates == base.n_candidates

    def test_non_streaming_blocker_refused(self, tmp_path):
        records = _records(seed=5)
        with pytest.raises(ConfigurationError):
            resolve(
                records,
                CanopyBlocker(lambda r: r.attributes.get("name")),
                COMPARATOR,
                CLASSIFIER,
                memory_budget=25_000,
                spill_dir=tmp_path,
            )

    def test_resolve_from_indexed_record_store(self, tmp_path):
        dataset = _dataset(seed=9)
        stem = tmp_path / "corpus"
        save_dataset(dataset, stem)
        records = list(load_dataset(stem).records())
        blocker = TokenBlocker(max_block_size=40)
        base = resolve(records, blocker, COMPARATOR, CLASSIFIER)
        budget = MemoryBudget(25_000)
        store = IndexedRecordStore(stem.with_suffix(".records.jsonl"), budget)
        streamed = resolve(
            store,
            blocker,
            COMPARATOR,
            CLASSIFIER,
            memory_budget=budget,
            spill_dir=tmp_path / "spill",
        )
        assert streamed.clusters == base.clusters
        assert streamed.scored_edges == base.scored_edges
        assert budget.peak <= 25_000

    def test_spill_count_monotone_in_budget(self, tmp_path):
        records = _records(seed=5)
        blocker = TokenBlocker(max_block_size=40)
        spills = []
        for index, limit in enumerate([8_000, 40_000, ROOMY]):
            tracer = Tracer()
            resolve(
                records,
                blocker,
                COMPARATOR,
                CLASSIFIER,
                tracer=tracer,
                memory_budget=limit,
                spill_dir=tmp_path / str(index),
            )
            gauges = tracer.report().metrics.get("gauges", {})
            spills.append(gauges["outofcore.spill_count"])
        assert spills == sorted(spills, reverse=True)
        assert spills[-1] == 0


# --- streaming engine ------------------------------------------------


class TestMatchPairsStream:
    def test_identical_across_chunk_sizes(self):
        records = _records(seed=4)
        blocker = TokenBlocker(max_block_size=40)
        pairs = [
            tuple(sorted(pair))
            for pair in sorted(
                blocker.block(records).candidate_pairs(), key=sorted
            )
        ]
        base = ParallelComparisonEngine(COMPARATOR).match_pairs(
            records, pairs, CLASSIFIER
        )
        for chunk_size in (1, 7, 100, 100_000):
            engine = ParallelComparisonEngine(
                COMPARATOR, chunk_size=chunk_size
            )
            run = engine.match_pairs_stream(
                records, iter(pairs), CLASSIFIER, budget=MemoryBudget(TIGHT)
            )
            assert run.match_pairs == base.match_pairs
            assert run.scored_edges == base.scored_edges
            assert run.n_pairs == base.n_pairs

    def test_non_threshold_classifier(self):
        records = _records(seed=4)
        blocker = TokenBlocker(max_block_size=40)
        pairs = [
            tuple(sorted(pair))
            for pair in sorted(
                blocker.block(records).candidate_pairs(), key=sorted
            )
        ]

        class Exact:
            def is_match(self, vector):
                return vector.score >= 0.8

        base = ParallelComparisonEngine(COMPARATOR).match_pairs(
            records, pairs, Exact()
        )
        run = ParallelComparisonEngine(COMPARATOR).match_pairs_stream(
            records, iter(pairs), Exact()
        )
        assert run.match_pairs == base.match_pairs
        assert run.scored_edges == base.scored_edges


# --- streaming claims + fusion ---------------------------------------


def _grouped(tmp_path, claims, limit=2_000):
    budget = MemoryBudget(limit)
    store = RunStore(tmp_path / "claims", durable=False)
    groups = SpillableClaimGroups(store, budget)
    for source, item, value in claims:
        groups.add(source, item, value)
    return groups, store, budget


class TestStreamingFusion:
    def _claims(self, n_items=30, n_sources=6):
        claims = []
        for item in range(n_items):
            for source in range(n_sources):
                value = f"v{(item + source) % 3}"
                claims.append((f"s{source}", f"i{item:03d}", value))
        return claims

    def test_stream_voting_matches_fuser(self, tmp_path):
        from repro.fusion import Claim, ClaimSet, VotingFuser

        claims = self._claims()
        base = VotingFuser().fuse(ClaimSet(Claim(*c) for c in claims))
        groups, __, budget = _grouped(tmp_path, claims)
        result = stream_voting(groups)
        assert dict(result.chosen) == dict(base.chosen)
        assert dict(result.confidence) == dict(base.confidence)
        assert budget.spill_count > 0

    def test_stream_accuvote_bit_identical(self, tmp_path):
        from repro.fusion import AccuVote, Claim, ClaimSet

        claims = self._claims()
        base = AccuVote(n_false_values=8).fuse(
            ClaimSet(Claim(*c) for c in claims)
        )
        groups, store, budget = _grouped(tmp_path, claims)
        result = stream_accuvote(
            groups, store.sub("accu"), budget, n_false_values=8
        )
        assert dict(result.chosen) == dict(base.chosen)
        assert dict(result.confidence) == dict(base.confidence)
        assert dict(result.source_accuracy) == dict(base.source_accuracy)
        assert result.iterations == base.iterations
        # Bit-level identity, not approximate equality.
        assert json.dumps(
            dict(result.confidence), sort_keys=True
        ) == json.dumps(dict(base.confidence), sort_keys=True)

    def test_duplicate_claims_first_wins(self, tmp_path):
        from repro.fusion import Claim, ClaimSet, VotingFuser

        claims = [
            ("s0", "i0", "a"),
            ("s1", "i0", "b"),
            ("s0", "i0", "b"),  # duplicate (s0, i0): dropped
            ("s2", "i0", "b"),
        ]
        claim_set = ClaimSet()
        seen = set()
        for source, item, value in claims:
            if (source, item) in seen:
                continue
            seen.add((source, item))
            claim_set.add(Claim(source, item, value))
        base = VotingFuser().fuse(claim_set)
        groups, __, ___ = _grouped(tmp_path, claims)
        result = stream_voting(groups)
        assert dict(result.chosen) == dict(base.chosen)
        assert dict(result.confidence) == dict(base.confidence)

    def test_empty_claims_raise(self, tmp_path):
        groups, store, budget = _grouped(tmp_path, [])
        with pytest.raises(EmptyInputError):
            stream_voting(groups)
        with pytest.raises(EmptyInputError):
            stream_accuvote(groups, store.sub("accu"), budget)


# --- end-to-end pipeline ---------------------------------------------


class TestStreamingPipeline:
    @pytest.mark.parametrize("fusion", ["vote", "accuvote", "truthfinder"])
    @pytest.mark.parametrize("zipf", [0.8, 1.6])
    def test_pipeline_parity(self, tmp_path, fusion, zipf):
        dataset = _dataset(seed=11, zipf=zipf)
        config = PipelineConfig(fusion=fusion)
        base = BDIPipeline(config).run(dataset)
        tracer = Tracer()
        streamed = BDIPipeline(config).run(
            dataset,
            tracer=tracer,
            memory_budget=30_000,
            spill_dir=tmp_path,
        )
        assert streamed.clusters == base.clusters
        assert dict(streamed.fusion.chosen) == dict(base.fusion.chosen)
        assert dict(streamed.fusion.confidence) == dict(
            base.fusion.confidence
        )
        assert dict(streamed.fusion.source_accuracy) == dict(
            base.fusion.source_accuracy
        )
        assert streamed.fusion.iterations == base.fusion.iterations
        assert streamed.entity_table == base.entity_table
        assert streamed.claims.n_items == len(base.claims.items())
        gauges = tracer.report().metrics.get("gauges", {})
        assert gauges["outofcore.peak_tracked_bytes"] <= 30_000
        assert gauges["outofcore.spill_count"] > 0

    def test_evaluation_identical(self, tmp_path):
        dataset = _dataset(seed=13)
        pipeline = BDIPipeline(PipelineConfig(fusion="vote"))
        base = pipeline.evaluate(dataset, pipeline.run(dataset))
        streamed_result = pipeline.run(
            dataset, memory_budget=30_000, spill_dir=tmp_path
        )
        streamed = pipeline.evaluate(dataset, streamed_result)
        assert streamed == base

    def test_unsupported_configs_refused(self, tmp_path):
        dataset = _dataset()
        for config in [
            PipelineConfig(classifier="fellegi-sunter"),
            PipelineConfig(fusion="accucopy"),
            PipelineConfig(fusion="vote", numeric_fusion=True),
        ]:
            with pytest.raises(ConfigurationError) as excinfo:
                BDIPipeline(config).run(
                    dataset, memory_budget=30_000, spill_dir=tmp_path
                )
            if config.fusion == "accucopy":
                assert "accucopy" in str(excinfo.value)

    def test_failed_run_removes_its_spill_directory(
        self, tmp_path, monkeypatch
    ):
        # With no spill_dir the run owns a temporary directory; a stage
        # that raises must take it (and its spilled runs) down on the
        # way out, not leave it to the garbage collector for as long
        # as the traceback is referenced.
        import tempfile

        from repro.fusion import AccuVote

        def failing_fusion(*args, **kwargs):
            raise RuntimeError("fusion stage failed")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(AccuVote, "fuse", failing_fusion)
        with pytest.raises(RuntimeError) as excinfo:
            BDIPipeline(PipelineConfig(fusion="accuvote")).run(
                _dataset(), memory_budget=30_000
            )
        assert excinfo.value.args == ("fusion stage failed",)
        assert list(tmp_path.glob("repro-spill-*")) == []


# --- kill-and-resume mid-spill ---------------------------------------


class TestKillAndResume:
    def test_streamed_resolve_resumes_identically(self, tmp_path):
        from repro.resilience import ChunkExecutionError

        # Big enough for several 2048-pair engine chunks, so the crash
        # lands mid-stream with completed chunks already checkpointed.
        records = _records(seed=5, entities=35, sources=6)
        blocker = TokenBlocker(max_block_size=40)
        base = resolve(records, blocker, COMPARATOR, CLASSIFIER)
        chaos = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            failure="fail",
            fault_injector=FaultInjector(crash(chunk=2)),
        )
        checkpoint = RunStore(tmp_path / "ckpt")
        spill_dir = tmp_path / "spill"
        # The aborted attempt dies on chunk 2 — mid-stream, after the
        # blocking stage already spilled runs into spill_dir.
        with pytest.raises(ChunkExecutionError):
            resolve(
                records,
                blocker,
                COMPARATOR,
                ThresholdClassifier(0.6),
                resilience=chaos,
                checkpoint=checkpoint,
                memory_budget=8_000,
                spill_dir=spill_dir,
            )
        assert any(
            key.endswith(".run.0") or ".run." in key
            for key in RunStore(spill_dir).keys()
        )
        # Resume against the same checkpoint store AND the same spill
        # directory: stale spill runs are rebuilt, completed chunks
        # replay, and the output matches an uninterrupted run.
        tracer = Tracer()
        resumed = resolve(
            records,
            blocker,
            COMPARATOR,
            ThresholdClassifier(0.6),
            tracer=tracer,
            checkpoint=RunStore(tmp_path / "ckpt"),
            memory_budget=8_000,
            spill_dir=spill_dir,
        )
        assert resumed.clusters == base.clusters
        assert resumed.match_pairs == base.match_pairs
        assert resumed.scored_edges == base.scored_edges
        counters = tracer.report().metrics.get("counters", {})
        assert counters.get("recovery.chunks_replayed", 0) >= 2

    def test_streamed_pipeline_resumes_identically(self, tmp_path):
        dataset = _dataset(seed=17)
        config = PipelineConfig(fusion="accuvote")
        base = BDIPipeline(config).run(dataset)

        class Boom(Exception):
            pass

        # Kill the run between linkage and fusion by poisoning the
        # schema translate call partway through the claims pass.
        calls = {"n": 0}
        original = type(base.schema).translate

        def exploding(self, record):
            calls["n"] += 1
            if calls["n"] == 40:
                raise Boom()
            return original(self, record)

        checkpoint = tmp_path / "ckpt"
        spill_dir = tmp_path / "spill"
        import unittest.mock as mock

        with mock.patch.object(type(base.schema), "translate", exploding):
            with pytest.raises(Boom):
                BDIPipeline(config).run(
                    dataset,
                    checkpoint=checkpoint,
                    memory_budget=30_000,
                    spill_dir=spill_dir,
                )
        resumed = BDIPipeline(config).run(
            dataset,
            checkpoint=checkpoint,
            memory_budget=30_000,
            spill_dir=spill_dir,
        )
        assert resumed.clusters == base.clusters
        assert dict(resumed.fusion.chosen) == dict(base.fusion.chosen)
        assert dict(resumed.fusion.confidence) == dict(
            base.fusion.confidence
        )
        assert resumed.entity_table == base.entity_table

    def test_streamed_truthfinder_resumes_by_stage(self, tmp_path):
        # TruthFinder's solver checkpoint signs its claims by sorting
        # them in memory, so a spilled run gets none: killed between two
        # fusion iterations it resumes from the stage ledger and redoes
        # the fusion — to the same bytes, and without ever asking the
        # spilled groups to iterate as a claim set.
        from repro.fusion import TruthFinder

        dataset = _dataset(seed=17)
        config = PipelineConfig(fusion="truthfinder")
        base = BDIPipeline(config).run(dataset)

        class Boom(Exception):
            pass

        calls = {"n": 0}
        original = TruthFinder.item_scorer

        def exploding(self, trust):
            calls["n"] += 1
            if calls["n"] == 3:
                raise Boom()
            return original(self, trust)

        checkpoint = tmp_path / "ckpt"
        spill_dir = tmp_path / "spill"
        import unittest.mock as mock

        with mock.patch.object(TruthFinder, "item_scorer", exploding):
            with pytest.raises(Boom):
                BDIPipeline(config).run(
                    dataset,
                    checkpoint=checkpoint,
                    memory_budget=30_000,
                    spill_dir=spill_dir,
                )
        store = RunStore(checkpoint)
        assert "linkage" in store.completed_stages()
        assert "fusion" not in store.completed_stages()
        assert not any("fusion.solver" in key for key in store.keys())
        tracer = Tracer()
        resumed = BDIPipeline(config).run(
            dataset,
            tracer=tracer,
            checkpoint=checkpoint,
            memory_budget=30_000,
            spill_dir=spill_dir,
        )
        assert resumed.clusters == base.clusters
        for field in ("chosen", "confidence", "source_accuracy"):
            assert json.dumps(getattr(resumed.fusion, field)) == json.dumps(
                getattr(base.fusion, field)
            )
        assert resumed.fusion.iterations == base.fusion.iterations
        assert resumed.entity_table == base.entity_table
        counters = tracer.report().metrics.get("counters", {})
        assert counters["recovery.stages_skipped"] == 2
        assert "recovery.iterations_skipped" not in counters


# --- Hypothesis: random corpus × budget × chunk size -----------------

short_word = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=8,
)


@st.composite
def random_records(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    records = []
    for index in range(n):
        n_tokens = draw(st.integers(min_value=1, max_value=4))
        name = " ".join(draw(short_word) for __ in range(n_tokens))
        records.append(
            Record(f"r{index:03d}", f"s{index % 3}", {"name": name})
        )
    return records


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        records=random_records(),
        limit=st.sampled_from([1_500, 8_000, 10_000_000]),
        chunk_size=st.sampled_from([1, 5, 512]),
    )
    def test_random_corpus_identical_clusters(
        self, tmp_path_factory, records, limit, chunk_size
    ):
        tmp_path = tmp_path_factory.mktemp("oc")
        blocker = TokenBlocker(max_block_size=20, min_token_length=1)
        base = resolve(records, blocker, COMPARATOR, CLASSIFIER)
        base_blocks = _block_list(blocker.block(records))
        spill, budget = _spill(tmp_path, limit=limit)
        streamed_blocks = [
            (block.key, block.record_ids)
            for block in blocker.stream_blocks(records, spill)
        ]
        assert streamed_blocks == base_blocks
        assert budget.peak <= limit
        pairs = [
            tuple(sorted(pair))
            for pair in sorted(
                blocker.block(records).candidate_pairs(), key=sorted
            )
        ]
        engine = ParallelComparisonEngine(COMPARATOR, chunk_size=chunk_size)
        run = engine.match_pairs_stream(
            records, iter(pairs), CLASSIFIER, budget=MemoryBudget(limit)
        )
        streamed = resolve(
            records,
            blocker,
            COMPARATOR,
            CLASSIFIER,
            memory_budget=limit,
            spill_dir=tmp_path / "resolve",
        )
        assert run.match_pairs == base.match_pairs
        assert streamed.clusters == base.clusters
        assert streamed.scored_edges == base.scored_edges

    @settings(max_examples=15, deadline=None)
    @given(records=random_records())
    def test_spill_count_scales_down_with_budget(
        self, tmp_path_factory, records
    ):
        blocker = TokenBlocker(max_block_size=20, min_token_length=1)
        # Each structure spills *itself* before exceeding the shared
        # budget, but it cannot shrink its neighbours: when the limit
        # is smaller than the neighbours' irreducible residency (the
        # block index stays resident while its blocks stream into the
        # pair deduper), the first item added to an empty buffer lands
        # past the line. The true invariant is peak <= limit plus one
        # item's estimate.
        slack = max(
            pair_nbytes(a.record_id, b.record_id)
            for a in records
            for b in records
        )
        spills = []
        for limit in (1_200, 4_000, 20_000, 10_000_000):
            tmp_path = tmp_path_factory.mktemp("mono")
            tracer = Tracer()
            resolve(
                records,
                blocker,
                COMPARATOR,
                CLASSIFIER,
                tracer=tracer,
                memory_budget=limit,
                spill_dir=tmp_path,
            )
            gauges = tracer.report().metrics.get("gauges", {})
            assert gauges["outofcore.peak_tracked_bytes"] <= limit + slack
            spills.append(gauges["outofcore.spill_count"])
        # Spill counts are NOT strictly monotone between neighbouring
        # budgets: the spillable structures share one budget, and a
        # roomier limit can let one structure sit resident on most of
        # the headroom without ever flushing, squeezing a neighbour
        # into more, smaller spills (19 identical records: 28 spills at
        # 1 200 B but 35 at 4 000 B). The true invariants are weaker:
        # an order-of-magnitude more memory still means fewer spills,
        assert spills[2] <= spills[0]
        # a budget that held everything keeps holding it as it grows
        # (same insertion order, budget-independent charges),
        for tighter, roomier in zip(spills, spills[1:]):
            if tighter == 0:
                assert roomier == 0
        # and the roomiest tier never spills at this corpus size.
        assert spills[-1] == 0
