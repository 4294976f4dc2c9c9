"""Tests for durable checkpointing and crash-resumable runs.

Two layers of proof, from the store up:

1. **Store semantics** — atomic artifacts, checksums, corruption
   treated as absence, the fingerprint guard, the stage ledger.
2. **In-process resume** — engine chunk replay, solver mid-convergence
   resume, and full pipeline stage skipping all reproduce an
   uninterrupted run exactly, with the ``recovery.*`` counters
   accounting for every skip.

Real process death is ``tests/test_kill_resume.py``.
"""

import json
import os
import pickle

import pytest

from repro.core import ConfigurationError, Dataset, Record, Source
from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.fusion import AccuCopy, AccuVote, Claim, ClaimSet, TruthFinder
from repro.dist import sharded_resolve
from repro.linkage import (
    FieldComparator,
    ParallelComparisonEngine,
    RecordComparator,
    StandardBlocker,
    ThresholdClassifier,
    default_product_comparator,
    fit_fellegi_sunter,
    resolve,
)
from repro.linkage.blocking import first_token_key
from repro.obs import ManualClock, Tracer
from repro.recovery import (
    CheckpointMismatchError,
    RunStore,
    claims_signature,
    config_fingerprint,
    dataset_fingerprint,
)
from repro.resilience import (
    DeadLetterEntry,
    DeadLetterLog,
    ResilienceConfig,
    RetryPolicy,
)
from repro.resilience.testing import (
    KILL_EXIT_CODE,
    FaultInjector,
    FaultSpec,
    crash,
    kill,
)
from repro.streaming import StreamingResolver, WindowConfig
from repro.text import exact_similarity


def _counters(tracer):
    return tracer.report().metrics.get("counters", {})


# --- the run store ---------------------------------------------------


class TestRunStore:
    def test_save_load_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        value = {"vectors": [1.5, 2.5], "pairs": [("a", "b")], "n": 3}
        meta = store.save("stage.schema", value)
        assert meta["key"] == "stage.schema"
        assert meta["size"] > 0
        assert store.load("stage.schema") == value

    def test_missing_key_is_none(self, tmp_path):
        store = RunStore(tmp_path, tracer=(tracer := Tracer()))
        assert store.load("nope") is None
        assert _counters(tracer)["recovery.misses"] == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        store = RunStore(tmp_path)
        store.save("a", 1)
        store.save("b", 2)
        leftovers = [
            name
            for name in os.listdir(tmp_path / "artifacts")
            if ".tmp-" in name
        ]
        assert leftovers == []

    def test_survives_reopen(self, tmp_path):
        RunStore(tmp_path).save("k", [1, 2, 3])
        assert RunStore(tmp_path).load("k") == [1, 2, 3]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) // 2],  # torn write
            lambda raw: b"JUNK" + raw[4:],  # bad magic
            lambda raw: raw[:-3] + b"xyz",  # flipped payload bytes
            lambda raw: b"",  # empty file
        ],
    )
    def test_corruption_is_absence(self, tmp_path, damage):
        tracer = Tracer()
        store = RunStore(tmp_path, tracer=tracer)
        store.save("k", {"x": 1})
        (artifact,) = list((tmp_path / "artifacts").glob("*.ckpt"))
        artifact.write_bytes(damage(artifact.read_bytes()))
        assert store.load("k") is None
        assert _counters(tracer)["recovery.corrupt"] == 1

    def test_wrong_key_in_artifact_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        store.save("a", 1)
        (artifact,) = list((tmp_path / "artifacts").glob("*.ckpt"))
        target = store._path_for("b")  # noqa: SLF001 — simulate rename
        target.write_bytes(artifact.read_bytes())
        assert store.load("b") is None

    def test_none_is_not_storable(self, tmp_path):
        # None means "absent" to load(); a stored None round-trips to
        # a recompute, which is safe, just pointless.
        store = RunStore(tmp_path)
        store.save("k", None)
        assert store.load("k") is None

    def test_keys_and_delete(self, tmp_path):
        store = RunStore(tmp_path)
        store.save("b.two", 2)
        store.save("a.one", 1)
        assert store.keys() == ("a.one", "b.two")
        store.delete("a.one")
        store.delete("a.one")  # idempotent
        assert store.keys() == ("b.two",)

    def test_sub_view_namespacing(self, tmp_path):
        store = RunStore(tmp_path)
        engine = store.sub("engine")
        solver = store.sub("solver")
        engine.save("chunk.0", [1])
        solver.save("state", {"i": 1})
        assert engine.load("chunk.0") == [1]
        assert solver.load("chunk.0") is None
        assert engine.keys() == ("chunk.0",)
        nested = engine.sub("score")
        nested.save("chunk.1", [2])
        assert store.load("engine.score.chunk.1") == [2]

    def test_stage_ledger_order_and_refresh(self, tmp_path):
        store = RunStore(tmp_path)
        store.mark_stage("schema", "stage.schema", "abc")
        store.mark_stage("linkage", "stage.linkage", "def")
        assert store.completed_stages() == ("schema", "linkage")
        store.mark_stage("schema", "stage.schema", "ghi")  # refreshed
        assert store.completed_stages() == ("linkage", "schema")
        assert not store.completed
        store.mark_complete()
        assert RunStore(tmp_path).completed

    def test_torn_manifest_starts_fresh_ledger(self, tmp_path):
        store = RunStore(tmp_path)
        store.save("k", 42)
        store.mark_stage("schema", "k", None)
        (tmp_path / "manifest.json").write_text('{"version": 1, "ru')
        reopened = RunStore(tmp_path, tracer=(tracer := Tracer()))
        assert reopened.completed_stages() == ()
        assert _counters(tracer)["recovery.corrupt"] == 1
        # Artifacts are self-describing and survive the torn manifest.
        assert reopened.load("k") == 42


# --- fingerprints ----------------------------------------------------


class TestFingerprints:
    def test_deterministic_and_distinct(self):
        assert config_fingerprint({"a": 1}) == config_fingerprint({"a": 1})
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_dict_key_order_irrelevant(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_nonsemantic_fields_excluded(self):
        from repro.obs import ManualClock

        clock = ManualClock()
        chaos = ResilienceConfig(
            fault_injector=object(), clock=clock, sleep=clock.advance
        )
        assert config_fingerprint(chaos) == config_fingerprint(
            ResilienceConfig()
        )

    def test_semantic_fields_included(self):
        assert config_fingerprint(
            ResilienceConfig(failure="skip")
        ) != config_fingerprint(ResilienceConfig(failure="retry"))

    def test_dataset_fingerprint_tracks_content(self):
        def dataset(value):
            return Dataset(
                [Source("s", [Record("s/0", "s", {"name": value})])]
            )

        assert dataset_fingerprint(dataset("x")) == dataset_fingerprint(
            dataset("x")
        )
        assert dataset_fingerprint(dataset("x")) != dataset_fingerprint(
            dataset("y")
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda store: AccuVote(n_false_values=4, checkpoint=store),
            lambda store: TruthFinder(checkpoint=store),
            lambda store: AccuCopy(n_false_values=4, checkpoint=store),
        ],
        ids=["accuvote", "truthfinder", "accucopy"],
    )
    def test_reordered_claims_recompute(self, tmp_path, make):
        # Every solver's answer depends on claim order (float addition
        # order, ties, the order of ``chosen``), so the same claims in
        # another order are another input: the run over them recomputes
        # instead of resuming the first order's state.
        import random

        from repro.synth import ClaimWorldConfig, generate_claims
        from tests.test_fusion import result_digest

        planted = generate_claims(
            ClaimWorldConfig(
                n_items=150,
                n_independent=8,
                n_copiers=4,
                coverage=0.7,
                n_false_values=4,
                seed=29,
            )
        )
        order_a = list(planted.claims)
        order_b = order_a[:]
        random.Random(29).shuffle(order_b)
        forward, backward = ClaimSet(order_a), ClaimSet(order_b)
        assert claims_signature(forward) != claims_signature(backward)
        store = RunStore(tmp_path)
        make(store).fuse(forward)
        resumed = make(store).fuse(backward)
        fresh = make(None).fuse(ClaimSet(order_b))
        assert result_digest(resumed) == result_digest(fresh)

    def test_bind_fingerprint_guard(self, tmp_path):
        store = RunStore(tmp_path)
        store.bind_fingerprint("aaa")
        store.bind_fingerprint("aaa")  # same run: fine
        with pytest.raises(CheckpointMismatchError) as excinfo:
            store.bind_fingerprint("bbb")
        assert excinfo.value.recorded == "aaa"
        assert excinfo.value.offered == "bbb"
        assert "refusing" in str(excinfo.value)
        # The guard survives reopening the directory.
        with pytest.raises(CheckpointMismatchError):
            RunStore(tmp_path, fingerprint="ccc")


# --- satellite: durable dead letters ---------------------------------


class TestDurableDeadLetter:
    def _entry(self, **overrides):
        fields = dict(
            scope="engine.chunk",
            chunk_id="3.1",
            kind="crash",
            error_type="RuntimeError",
            error="naïve café value — ₤ünïcödé",
            attempts=3,
            items=(("rä0", "rß1"), ("r2", "r3")),
            quarantined_at=12.5,
        )
        fields.update(overrides)
        return DeadLetterEntry(**fields)

    def test_durable_round_trip_non_ascii(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        log = DeadLetterLog(path=str(path))
        log.add(self._entry())
        log.add(self._entry(chunk_id="4", error="二番目のエラー"))
        restored = DeadLetterLog.from_jsonl(path.read_text("utf-8"))
        assert restored.entries == log.entries
        # Non-ASCII stays human-readable in the sink (ensure_ascii off).
        assert "café" in path.read_text("utf-8")

    def test_unpicklable_error_payload_survives(self, tmp_path):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        exc = Unpicklable("worker exploded")
        with pytest.raises(TypeError):
            pickle.dumps(exc)
        path = tmp_path / "dead.jsonl"
        log = DeadLetterLog(path=str(path))
        log.add(
            self._entry(
                error_type=type(exc).__name__,
                error=str(exc),
                items=(("a", "b"), exc),  # opaque item → repr
            )
        )
        restored = DeadLetterLog.from_jsonl(path.read_text("utf-8"))
        (entry,) = restored.entries
        assert entry.error == "worker exploded"
        assert entry.error_type == "Unpicklable"
        assert entry.items[0] == ("a", "b")
        assert "Unpicklable" in entry.items[1]

    def test_torn_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        log = DeadLetterLog(path=str(path))
        log.add(self._entry())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"scope": "engine.chunk", "chu')  # crash-cut
        restored = DeadLetterLog.from_jsonl(path.read_text("utf-8"))
        assert restored.entries == log.entries

    def test_restore_does_not_rewrite_sink(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        log = DeadLetterLog(path=str(path))
        log.add(self._entry())
        before = path.read_text("utf-8")
        log.restore([self._entry(chunk_id="9")])
        assert len(log) == 2
        assert path.read_text("utf-8") == before

    def test_merge_is_durable(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        log = DeadLetterLog(path=str(path))
        log.merge(DeadLetterLog([self._entry(), self._entry(chunk_id="7")]))
        assert len(path.read_text("utf-8").splitlines()) == 2

    def test_memory_only_log_unchanged(self):
        log = DeadLetterLog()
        log.add(self._entry())
        assert log.path is None
        assert len(log) == 1


# --- satellite: config validation ------------------------------------


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": -2},
            {"max_attempts": 2.5},
            {"base_delay": -1.0},
            {"base_delay": float("nan")},
            {"multiplier": 0.5},
            {"max_delay": 0.05, "base_delay": 0.1},  # cap below base
            {"jitter": -0.1},
            {"jitter": 1.5},
        ],
    )
    def test_retry_policy_rejects(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_cap_message_names_both_values(self):
        with pytest.raises(ValueError, match="backoff cap"):
            RetryPolicy(base_delay=2.0, max_delay=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": -1.0},
            {"timeout": 0.0},
            {"timeout": float("inf")},
            {"deadline": -5.0},
            {"timeout": 10.0, "deadline": 5.0},  # deadline < timeout
            {"failure": "explode"},
        ],
    )
    def test_resilience_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)

    def test_validation_errors_are_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        assert issubclass(ConfigurationError, ValueError)

    def test_fault_spec_rejects_kind_and_fires(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("vaporize")
        with pytest.raises(ConfigurationError):
            FaultSpec("kill", max_fires=0)
        assert kill(chunk=2).kind == "kill"
        assert KILL_EXIT_CODE == 137


# --- in-process engine resume ----------------------------------------


def _records():
    return [
        Record(
            f"r{i}", f"s{i % 2}", {"name": f"item {i // 2}", "brand": "acme"}
        )
        for i in range(8)
    ]


def _pairs(records):
    ids = [record.record_id for record in records]
    return [
        (ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    ]


def _comparator():
    return RecordComparator(
        fields=[
            FieldComparator("name", exact_similarity, weight=2.0),
            FieldComparator("brand", exact_similarity, weight=1.0),
        ]
    )


CLASSIFIER = ThresholdClassifier(0.9)


def _engine(checkpoint=None, tracer=None, chunk_size=7):
    return ParallelComparisonEngine(
        _comparator(),
        execution="serial",
        n_workers=1,
        chunk_size=chunk_size,
        tracer=tracer,
        checkpoint=checkpoint,
    )


class TestEngineCheckpoint:
    def test_rerun_replays_every_chunk_identically(self, tmp_path):
        records, pairs = _records(), _pairs(_records())
        baseline = _engine().match_pairs(records, pairs, CLASSIFIER)

        tracer = Tracer()
        store = RunStore(tmp_path)
        first = _engine(store, tracer).match_pairs(records, pairs, CLASSIFIER)
        assert first.match_pairs == baseline.match_pairs
        assert first.scored_edges == baseline.scored_edges
        assert _counters(tracer)["recovery.saves"] == 4  # 4 chunks of 7

        tracer2 = Tracer()
        second = _engine(RunStore(tmp_path), tracer2).match_pairs(
            records, pairs, CLASSIFIER
        )
        assert second.match_pairs == baseline.match_pairs
        assert second.scored_edges == baseline.scored_edges
        assert second.completed_chunks == second.n_chunks == 4
        counters = _counters(tracer2)
        assert counters["recovery.chunks_replayed"] == 4
        assert "recovery.saves" not in counters

    def test_changed_pairs_invalidate_chunk_signature(self, tmp_path):
        records = _records()
        pairs = _pairs(records)
        store = RunStore(tmp_path)
        _engine(store).compare_pairs(records, pairs)

        reordered = pairs[7:14] + pairs[:7] + pairs[14:]
        tracer = Tracer()
        vectors = _engine(RunStore(tmp_path), tracer).compare_pairs(
            records, reordered
        )
        assert vectors == _engine().compare_pairs(records, reordered)
        counters = _counters(tracer)
        # Chunks 0 and 1 swapped content: both recomputed, not replayed.
        assert counters["recovery.signature_mismatch"] == 2
        assert counters["recovery.chunks_replayed"] == 2

    def test_compare_and_match_namespaces_do_not_collide(self, tmp_path):
        records, pairs = _records(), _pairs(_records())
        store = RunStore(tmp_path)
        vectors = _engine(store).compare_pairs(records, pairs)
        run = _engine(store).match_pairs(records, pairs, CLASSIFIER)
        baseline_vectors = _engine().compare_pairs(records, pairs)
        baseline_run = _engine().match_pairs(records, pairs, CLASSIFIER)
        assert vectors == baseline_vectors
        assert run.match_pairs == baseline_run.match_pairs
        assert run.scored_edges == baseline_run.scored_edges

    def test_checkpoint_accepts_directory_path(self, tmp_path):
        # resolve() and the engine take a plain path and open the store
        # themselves, like BDIPipeline.run.
        from repro.linkage import TokenBlocker, resolve

        records = _records()
        baseline = resolve(
            records, TokenBlocker(), _comparator(), CLASSIFIER
        )
        first = resolve(
            records,
            TokenBlocker(),
            _comparator(),
            CLASSIFIER,
            checkpoint=str(tmp_path),
        )
        resumed = resolve(
            records,
            TokenBlocker(),
            _comparator(),
            CLASSIFIER,
            checkpoint=str(tmp_path),
        )
        assert first.clusters == baseline.clusters == resumed.clusters
        assert any(".chunk." in key for key in RunStore(tmp_path).keys())

    def test_aborted_run_resumes_from_completed_chunks(self, tmp_path):
        from repro.resilience import ChunkExecutionError
        from repro.resilience.testing import FaultInjector, crash

        records, pairs = _records(), _pairs(_records())
        baseline = _engine().match_pairs(records, pairs, CLASSIFIER)
        chaos = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            failure="fail",
            fault_injector=FaultInjector(crash(chunk=2)),
        )

        engine = ParallelComparisonEngine(
            _comparator(),
            chunk_size=7,
            resilience=chaos,
            checkpoint=RunStore(tmp_path),
        )
        with pytest.raises(ChunkExecutionError):
            engine.match_pairs(records, pairs, CLASSIFIER)

        tracer = Tracer()
        resumed = _engine(RunStore(tmp_path), tracer).match_pairs(
            records, pairs, CLASSIFIER
        )
        assert resumed.match_pairs == baseline.match_pairs
        assert resumed.scored_edges == baseline.scored_edges
        assert _counters(tracer)["recovery.chunks_replayed"] == 2


def _products():
    """12 records, four products in three sources, and all 66 pairs."""
    records = [
        Record(
            f"s{i % 3}r{i}",
            f"s{i % 3}",
            {"name": f"canon powershot a{560 + i // 3}", "brand": "canon"},
        )
        for i in range(12)
    ]
    return records, _pairs(records)


def _engine_matches(threshold, checkpoint=None):
    records, pairs = _products()
    run = ParallelComparisonEngine(
        default_product_comparator(),
        n_workers=2,
        chunk_size=16,
        checkpoint=checkpoint,
    ).match_pairs(records, pairs, ThresholdClassifier(threshold))
    return sorted(map(sorted, run.match_pairs)), run.scored_edges


def _resolved_clusters(threshold, checkpoint=None):
    records, pairs = _products()
    result = resolve(
        records,
        None,
        default_product_comparator(),
        ThresholdClassifier(threshold),
        candidate_pairs=pairs,
        checkpoint=checkpoint,
    )
    return sorted(map(sorted, result.clusters))


def _sharded_clusters(threshold, checkpoint=None):
    records, pairs = _products()
    run = sharded_resolve(
        records,
        None,
        default_product_comparator(),
        ThresholdClassifier(threshold),
        candidate_pairs=pairs,
        n_shards=2,
        backend="inline",
        checkpoint=checkpoint,
    )
    return sorted(map(sorted, run.result.clusters))


class TestAnotherThresholdRecomputes:
    """A store written under one threshold, resumed under another:
    every linkage checkpoint is signed by its comparator and threshold,
    so the resume recomputes to the fresh run's answer instead of
    replaying the first run's matches."""

    @pytest.mark.parametrize(
        "run", [_engine_matches, _resolved_clusters, _sharded_clusters]
    )
    def test_resume_under_another_threshold_recomputes(self, tmp_path, run):
        strict = run(0.99, checkpoint=str(tmp_path))
        loose = run(0.5)
        assert strict != loose
        assert run(0.5, checkpoint=str(tmp_path)) == loose
        # ... and the first run's own configuration still replays.
        assert run(0.99, checkpoint=str(tmp_path)) == strict


# --- in-process solver resume ----------------------------------------


def _claims():
    claims = ClaimSet()
    for item in range(5):
        for source in range(4):
            value = "truth" if source < 3 else f"lie-{item}"
            claims.add(Claim(f"src{source}", f"item{item}", value))
    return claims


class _StopAfterSaves:
    """In-process stand-in for a kill: raise after N iteration saves."""

    class Stop(BaseException):
        pass

    def __init__(self, store, n):
        self._store, self._n, self._saves = store, n, 0

    def load(self, key, signature=None):
        return self._store.load(key, signature)

    def save(self, key, value, signature=None):
        meta = self._store.save(key, value, signature)
        self._saves += 1
        if self._saves >= self._n:
            raise self.Stop()
        return meta


def _solver_span(tracer, name):
    return tracer.report().find_span(name).attributes


class TestSolverResume:
    def test_truthfinder_resumes_identically(self, tmp_path):
        claims = _claims()
        baseline = TruthFinder(tolerance=1e-9).fuse(claims)
        store = RunStore(tmp_path)
        with pytest.raises(_StopAfterSaves.Stop):
            TruthFinder(
                tolerance=1e-9, checkpoint=_StopAfterSaves(store, 3)
            ).fuse(claims)
        tracer = Tracer()
        resumed = TruthFinder(
            tolerance=1e-9, tracer=tracer, checkpoint=store
        ).fuse(claims)
        assert resumed.chosen == baseline.chosen
        assert resumed.confidence == baseline.confidence
        assert resumed.source_accuracy == baseline.source_accuracy
        assert resumed.iterations == baseline.iterations
        assert _counters(tracer)["recovery.iterations_skipped"] == 3
        span = _solver_span(tracer, "fusion.truthfinder")
        assert span["resumed_at"] == 3
        assert span["iterations"] == baseline.iterations == 50
        assert span["converged"] is False  # 1e-9 is out of 50 steps' reach

    def test_truthfinder_resume_from_converged_state(self, tmp_path):
        claims = _claims()
        store = RunStore(tmp_path)
        first = TruthFinder(checkpoint=store).fuse(claims)
        tracer = Tracer()
        again = TruthFinder(tracer=tracer, checkpoint=store).fuse(claims)
        assert again.chosen == first.chosen
        assert again.confidence == first.confidence
        assert again.iterations == first.iterations
        assert "recovery.saves" not in _counters(tracer)

    def test_truthfinder_param_change_recomputes(self, tmp_path):
        claims = _claims()
        store = RunStore(tmp_path)
        TruthFinder(dampening=0.3, checkpoint=store).fuse(claims)
        baseline = TruthFinder(dampening=0.4).fuse(claims)
        resumed = TruthFinder(dampening=0.4, checkpoint=store).fuse(claims)
        assert resumed.chosen == baseline.chosen
        assert resumed.confidence == baseline.confidence
        assert resumed.iterations == baseline.iterations

    def test_accucopy_resumes_identically(self, tmp_path):
        claims = _claims()
        baseline = AccuCopy().fuse(claims)
        store = RunStore(tmp_path)
        with pytest.raises(_StopAfterSaves.Stop):
            AccuCopy(checkpoint=_StopAfterSaves(store, 2)).fuse(claims)
        tracer = Tracer()
        resumed = AccuCopy(tracer=tracer, checkpoint=store).fuse(claims)
        assert resumed.chosen == baseline.chosen
        assert resumed.confidence == baseline.confidence
        assert resumed.source_accuracy == baseline.source_accuracy
        assert resumed.copy_probability == baseline.copy_probability
        assert resumed.iterations == baseline.iterations
        span = _solver_span(tracer, "fusion.accucopy")
        assert span["resumed_at"] == 2
        assert span["max_iterations"] == 5
        assert span["iterations"] == baseline.iterations
        assert span["converged"] is True

    def test_accuvote_resumes_identically(self, tmp_path):
        from repro.synth import ClaimWorldConfig, generate_claims

        # Noisy enough that AccuVote is still moving after two rounds.
        claims = generate_claims(
            ClaimWorldConfig(
                n_items=40, n_independent=5, n_false_values=3, seed=5
            )
        ).claims
        baseline = AccuVote().fuse(claims)
        store = RunStore(tmp_path)
        with pytest.raises(_StopAfterSaves.Stop):
            AccuVote(checkpoint=_StopAfterSaves(store, 2)).fuse(claims)
        tracer = Tracer()
        resumed = AccuVote(tracer=tracer, checkpoint=store).fuse(claims)
        assert resumed == baseline
        assert _counters(tracer)["recovery.iterations_skipped"] == 2
        span = _solver_span(tracer, "fusion.accuvote")
        assert span["resumed_at"] == 2
        assert span["max_iterations"] == 50
        assert span["iterations"] == baseline.iterations > 2
        assert span["converged"] is True
        # Other parameters, other state: recomputed, not resumed.
        tracer = Tracer()
        AccuVote(n_false_values=4, tracer=tracer, checkpoint=store).fuse(
            claims
        )
        assert _solver_span(tracer, "fusion.accuvote")["resumed_at"] == 0

    def test_accuvote_with_known_accuracies_is_one_traced_pass(self):
        known = {f"src{s}": 0.9 - 0.1 * s for s in range(4)}
        tracer = Tracer()
        fuser = AccuVote(known_accuracies=known, tracer=tracer)
        result = fuser.fuse(_claims())
        assert result.source_accuracy == known
        span = _solver_span(tracer, "fusion.accuvote")
        assert (span["iterations"], span["converged"]) == (1, True)

    def test_em_resumes_identically(self, tmp_path):
        records, pairs = _records(), _pairs(_records())
        vectors = _engine().compare_pairs(records, pairs)
        baseline = fit_fellegi_sunter(vectors)
        store = RunStore(tmp_path)
        with pytest.raises(_StopAfterSaves.Stop):
            fit_fellegi_sunter(
                vectors, checkpoint=_StopAfterSaves(store, 2)
            )
        tracer = Tracer()
        resumed = fit_fellegi_sunter(vectors, tracer=tracer, checkpoint=store)
        assert resumed == baseline
        assert _counters(tracer)["recovery.iterations_skipped"] == 2
        span = _solver_span(tracer, "classify.fellegi_sunter_em")
        assert span["resumed_at"] == 2
        assert span["converged"] is True

    def test_state_of_another_layout_reads_as_absent(self, tmp_path):
        # What the solvers saved before they shared one loop: the same
        # signature over the same inputs, another payload. It must be
        # recomputed past, not indexed into.
        claims = _claims()
        baseline = TruthFinder().fuse(claims)
        store = RunStore(tmp_path)
        store.save(
            "state",
            {
                "signature": config_fingerprint(
                    claims_signature(claims), 0.9, 0.3, 0.0, 50, 1e-4
                ),
                "iterations": 3,
                "trust": {f"src{s}": 0.5 for s in range(4)},
                "value_confidence": {},
                "deltas": [0.3, 0.2, 0.1],
            },
        )
        tracer = Tracer()
        result = TruthFinder(tracer=tracer, checkpoint=store).fuse(claims)
        assert result == baseline
        assert "recovery.iterations_skipped" not in _counters(tracer)
        assert _solver_span(tracer, "fusion.truthfinder")["resumed_at"] == 0


# --- pipeline stage ledger -------------------------------------------


def _dataset():
    sources = []
    for s in range(3):
        records = [
            Record(
                f"s{s}r{i}",
                f"src{s}",
                {
                    "title": f"widget model {i % 4} pro",
                    "brand": ["acme", "acme", "bolt"][s],
                    "price": str(10 + (i % 4)),
                },
            )
            for i in range(8)
        ]
        sources.append(Source(f"src{s}", records))
    return Dataset(sources)


PIPELINE_STAGES = ("schema", "linkage", "claims", "fusion", "entity_table")


class TestPipelineCheckpoint:
    def test_first_run_writes_full_ledger(self, tmp_path):
        pipeline = BDIPipeline(PipelineConfig(fusion="truthfinder"))
        dataset = _dataset()
        baseline = pipeline.run(dataset)
        result = pipeline.run(dataset, checkpoint=str(tmp_path))
        assert result.entity_table == baseline.entity_table
        store = RunStore(tmp_path)
        assert store.completed_stages() == PIPELINE_STAGES
        assert store.completed
        assert store.fingerprint is not None

    @pytest.mark.parametrize(
        "fusion", ["truthfinder", "accuvote", "accucopy"]
    )
    def test_every_solver_is_traced_and_checkpointed(self, tmp_path, fusion):
        tracer = Tracer()
        result = BDIPipeline(PipelineConfig(fusion=fusion)).run(
            _dataset(), tracer=tracer, checkpoint=str(tmp_path)
        )
        span = _solver_span(tracer, f"fusion.{fusion}")
        assert span["iterations"] == result.fusion.iterations
        saved = RunStore(tmp_path).sub("fusion.solver").load("state")
        assert len(saved["deltas"]) == result.fusion.iterations

    def test_completed_run_resumes_without_recompute(self, tmp_path):
        pipeline = BDIPipeline(PipelineConfig(fusion="truthfinder"))
        dataset = _dataset()
        baseline = pipeline.run(dataset)
        pipeline.run(dataset, checkpoint=str(tmp_path))
        tracer = Tracer()
        resumed = pipeline.run(dataset, tracer=tracer, checkpoint=str(tmp_path))
        assert resumed.entity_table == baseline.entity_table
        assert resumed.fusion.chosen == baseline.fusion.chosen
        assert resumed.clusters == baseline.clusters
        counters = _counters(tracer)
        assert counters["recovery.stages_skipped"] == len(PIPELINE_STAGES)
        assert "recovery.saves" not in counters

    def test_partial_ledger_resumes_mid_pipeline(self, tmp_path):
        pipeline = BDIPipeline(PipelineConfig(fusion="truthfinder"))
        dataset = _dataset()
        baseline = pipeline.run(dataset)
        pipeline.run(dataset, checkpoint=str(tmp_path))
        # Simulate a crash after the claims stage: truncate the ledger.
        store = RunStore(tmp_path)
        manifest = store.manifest
        manifest["stages"] = manifest["stages"][:3]
        manifest["completed"] = False
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        tracer = Tracer()
        resumed = pipeline.run(dataset, tracer=tracer, checkpoint=str(tmp_path))
        assert resumed.entity_table == baseline.entity_table
        assert resumed.fusion.chosen == baseline.fusion.chosen
        counters = _counters(tracer)
        assert counters["recovery.stages_skipped"] == 3
        assert RunStore(tmp_path).completed

    def test_config_change_refused(self, tmp_path):
        dataset = _dataset()
        BDIPipeline(PipelineConfig(fusion="truthfinder")).run(
            dataset, checkpoint=str(tmp_path)
        )
        with pytest.raises(CheckpointMismatchError):
            BDIPipeline(PipelineConfig(fusion="vote")).run(
                dataset, checkpoint=str(tmp_path)
            )

    def test_dataset_change_refused(self, tmp_path):
        pipeline = BDIPipeline(PipelineConfig(fusion="truthfinder"))
        pipeline.run(_dataset(), checkpoint=str(tmp_path))
        other = Dataset(
            [Source("sx", [Record("sx/0", "sx", {"title": "gizmo"})])]
        )
        with pytest.raises(CheckpointMismatchError):
            pipeline.run(other, checkpoint=str(tmp_path))

    def test_injected_chaos_does_not_change_fingerprint(self, tmp_path):
        # A run killed under fault injection must be resumable by the
        # same config *without* the injector: the injector (and clock)
        # are non-semantic and excluded from the fingerprint.
        from repro.resilience.testing import FaultInjector, crash

        dataset = _dataset()
        chaotic = PipelineConfig(
            fusion="truthfinder",
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                fault_injector=FaultInjector(crash(chunk=0, attempts=1)),
            ),
        )
        clean = PipelineConfig(
            fusion="truthfinder",
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, base_delay=0.0)
            ),
        )
        BDIPipeline(chaotic).run(dataset, checkpoint=str(tmp_path))
        # Same fingerprint → valid resume, no CheckpointMismatchError.
        result = BDIPipeline(clean).run(dataset, checkpoint=str(tmp_path))
        assert result.entity_table


# --- one staleness table ---------------------------------------------
#
# Every kind of checkpoint is written once, then reopened under one
# change. DESIGN.md's recovery table decides each cell: a change to what
# a namespace is bound by raises CheckpointMismatchError, a change to
# what an artifact is signed by recomputes — to the answer a fresh run
# under the change gives — and any other change replays. The writing
# run is untraced and every reopening run traced, so each replay cell
# also shows that a tracer is nonsemantic.
#
# A row is ``run(root, change, tracer) -> (answer, replayed, recomputed)``
# counting units of its checkpoint (chunks, shards, iterations, stages,
# records).

REPLAY, RECOMPUTE, RAISE = "replay", "recompute", "raise"


def _chaos(change, tmp, injected_chunk=0):
    """The resilience every row runs under: an injected crash that one
    retry absorbs, a manual clock and a dead-letter sink — all three
    nonsemantic."""
    injector = FaultInjector(crash(chunk=injected_chunk, attempts=1))
    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        failure="retry",
        fault_injector=None if change == "injector" else injector,
        clock=ManualClock(start=100.0 if change == "clock" else 0.0),
        dead_letter_path=str(
            tmp / ("other.jsonl" if change == "dead_letter_path" else "dead.jsonl")
        ),
    )


def _weighted_comparator(change):
    return RecordComparator(
        fields=[
            FieldComparator(
                "name",
                exact_similarity,
                weight=3.0 if change == "weight" else 2.0,
            ),
            FieldComparator("brand", exact_similarity, weight=1.0),
        ]
    )


def _engine_row(root, change, tracer):
    records, pairs = _records(), _pairs(_records())
    if change == "pairs":
        pairs = pairs[7:] + pairs[:7]  # every chunk index, other pairs
    run = ParallelComparisonEngine(
        _weighted_comparator(change),
        execution="process" if change == "execution" else "serial",
        n_workers=2 if change == "n_workers" else 1,
        chunk_size=7,
        tracer=tracer,
        resilience=_chaos(change, root.parent),
        checkpoint=str(root),
        representation="columnar" if change == "representation" else "dict",
    ).match_pairs(
        records, pairs, ThresholdClassifier(0.6 if change == "threshold" else 0.9)
    )
    answer = (sorted(map(sorted, run.match_pairs)), run.scored_edges)
    return answer, run.replayed_chunks, run.n_chunks - run.replayed_chunks


def _shard_row(root, change, tracer):
    records, pairs = _records(), _pairs(_records())
    if change == "pairs":
        pairs = pairs[1:]
    run = sharded_resolve(
        records,
        None,
        _weighted_comparator(change),
        ThresholdClassifier(0.6 if change == "threshold" else 0.9),
        candidate_pairs=pairs,
        n_shards=3 if change == "n_shards" else 2,
        backend="process" if change == "execution" else "inline",
        chunk_size=7,
        tracer=tracer,
        resilience=_chaos(change, root.parent),
        checkpoint=str(root),
        representation="columnar" if change == "representation" else "dict",
    )
    answer = (
        sorted(map(sorted, run.result.clusters)),
        run.result.scored_edges,
    )
    return answer, run.n_resumed, run.n_shards - run.n_resumed


def _solver_row(root, change, tracer):
    claims = _claims()
    if change == "claims":
        claims.add(Claim("src9", "item0", "truth"))
    result = TruthFinder(
        dampening=0.5 if change == "parameters" else 0.3,
        tracer=tracer,
        checkpoint=RunStore(root),
    ).fuse(claims)
    resumed = 0
    if tracer is not None:
        resumed = _solver_span(tracer, "fusion.truthfinder")["resumed_at"]
    answer = (result.chosen, result.confidence, result.iterations)
    return answer, resumed, result.iterations - resumed


def _pipeline_row(root, change, tracer):
    dataset = _dataset()
    if change == "records":
        dataset = Dataset(
            list(dataset.sources)
            + [Source("src9", [Record("s9r0", "src9", {"title": "gizmo"})])]
        )
    config = PipelineConfig(
        fusion="truthfinder",
        match_threshold=0.6 if change == "threshold" else 0.7,
        resilience=_chaos(change, root.parent),
        representation="columnar" if change == "representation" else "dict",
    )
    result = BDIPipeline(config).run(
        dataset, tracer=tracer, checkpoint=str(root)
    )
    skipped = _counters(tracer).get("recovery.stages_skipped", 0) if tracer else 0
    answer = (result.entity_table, sorted(map(sorted, result.clusters)))
    return answer, skipped, len(PIPELINE_STAGES) - skipped


def _stream():
    return [
        Record(
            f"s{i % 3}r{i}",
            f"s{i % 3}",
            {"name": f"canon a{560 + i // 6} {i % 2}", "brand": "canon"},
            timestamp=i / 4,
        )
        for i in range(40)
    ]


def _stream_row(root, change, tracer):
    resolver = StreamingResolver(
        key_functions=[first_token_key("name")],
        comparator=default_product_comparator()
        if change != "weight"
        else _weighted_comparator(change),
        classifier=ThresholdClassifier(0.6 if change == "threshold" else 0.8),
        window=WindowConfig(size=3.0 if change == "window" else 2.0),
        checkpoint_store=RunStore(root, durable=False),
        tracer=tracer,
        clock=ManualClock(start=100.0 if change == "clock" else 0.0),
    )
    stream = iter(_stream())
    replayed = resolver.resume(stream)
    for __ in resolver.process(stream):
        pass
    return resolver.snapshot()["entities"], replayed, 0


def _serve_row(root, change, tracer):
    from repro.serve import ResolutionService
    from tests.kill_driver import build_records

    service = ResolutionService(
        root,
        key_functions=[first_token_key("name")],
        comparator=_weighted_comparator(change)
        if change == "weight"
        else default_product_comparator(),
        classifier=ThresholdClassifier(0.5 if change == "threshold" else 0.72),
        refresh_blocker=None
        if change == "refresh_blocker"
        else StandardBlocker(first_token_key("name")),
        resilience=_chaos(change, root.parent, injected_chunk=1),
        tracer=tracer,
        durable=False,
    )
    if service.store.log_length == 0:
        for record in build_records(12):
            service.ingest(record)
        service.checkpoint()
    relinked = (
        tracer.metrics.counter("serve.replayed_records").value if tracer else 0
    )
    answer = service.snapshot()["entities"]
    return answer, service.store.log_length - relinked, relinked


_ROWS = {
    "engine chunk": _engine_row,
    "shard result and layout": _shard_row,
    "solver state": _solver_row,
    "pipeline stage": _pipeline_row,
    "stream checkpoint": _stream_row,
    "served generation": _serve_row,
}

_NONSEMANTIC = ("injector", "clock", "dead_letter_path")

STALENESS_TABLE = [
    *(("engine chunk", change, RECOMPUTE) for change in ("pairs", "threshold", "weight")),
    *(
        ("engine chunk", change, REPLAY)
        for change in _NONSEMANTIC + ("representation", "execution", "n_workers")
    ),
    *(
        ("shard result and layout", change, RECOMPUTE)
        for change in ("pairs", "threshold", "weight")
    ),
    ("shard result and layout", "n_shards", RAISE),
    *(
        ("shard result and layout", change, REPLAY)
        for change in _NONSEMANTIC + ("representation", "execution")
    ),
    ("solver state", "claims", RECOMPUTE),
    ("solver state", "parameters", RECOMPUTE),
    ("solver state", "tracer", REPLAY),
    *(("pipeline stage", change, RAISE) for change in ("records", "threshold")),
    *(("pipeline stage", change, REPLAY) for change in _NONSEMANTIC),
    # A named limit: PipelineConfig's execution fields are still
    # fingerprinted (ROADMAP item 2).
    ("pipeline stage", "representation", RAISE),
    *(
        ("stream checkpoint", change, RAISE)
        for change in ("window", "threshold", "weight")
    ),
    ("stream checkpoint", "clock", REPLAY),
    *(("served generation", change, RAISE) for change in ("threshold", "weight")),
    *(
        ("served generation", change, REPLAY)
        for change in _NONSEMANTIC + ("refresh_blocker",)
    ),
]


@pytest.mark.parametrize(
    "row, change, expected",
    STALENESS_TABLE,
    ids=[f"{row}-{change}" for row, change, __ in STALENESS_TABLE],
)
def test_staleness_table(tmp_path, row, change, expected):
    run = _ROWS[row]
    store = tmp_path / "store"
    run(store, "none", None)
    if expected == RAISE:
        with pytest.raises(CheckpointMismatchError):
            run(store, change, Tracer())
        return
    answer, replayed, recomputed = run(store, change, Tracer())
    fresh, __, __ = run(tmp_path / "fresh", change, Tracer())
    assert answer == fresh
    if expected == REPLAY:
        assert replayed > 0 and recomputed == 0
    else:
        assert recomputed > 0
