"""Tests for durable checkpointing and crash-resumable runs.

Three layers of proof, from the store up:

1. **Store semantics** — atomic artifacts, checksums, corruption
   treated as absence, the fingerprint guard, the stage ledger.
2. **In-process resume** — engine chunk replay, solver mid-convergence
   resume, and full pipeline stage skipping all reproduce an
   uninterrupted run exactly, with the ``recovery.*`` counters
   accounting for every skip.
3. **Real process death** (``slow``) — ``tests/recovery_driver.py`` is
   launched as a subprocess, murdered via the ``kill`` fault
   (``os._exit(137)``, no unwinding) at a deterministic chunk or
   iteration boundary, and relaunched; the resumed run's JSON output
   must equal a never-killed run's byte for byte.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.core import ConfigurationError, Dataset, Record, Source
from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.fusion import AccuCopy, AccuVote, Claim, ClaimSet, TruthFinder
from repro.linkage import (
    FieldComparator,
    ParallelComparisonEngine,
    RecordComparator,
    ThresholdClassifier,
    fit_fellegi_sunter,
)
from repro.obs import Tracer
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
from repro.resilience.testing import KILL_EXIT_CODE, FaultSpec, kill
from repro.resilience.workers import PARENT_POLL
from repro.text import exact_similarity
from tests.procs import assert_gone, needs_proc

DRIVER = os.path.join(os.path.dirname(__file__), "recovery_driver.py")


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

    def test_claims_signature_order_insensitive(self):
        forward, backward = ClaimSet(), ClaimSet()
        claims = [Claim("s1", "i1", "a"), Claim("s2", "i1", "b")]
        for claim in claims:
            forward.add(claim)
        for claim in reversed(claims):
            backward.add(claim)
        assert claims_signature(forward) == claims_signature(backward)

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

    def load(self, key):
        return self._store.load(key)

    def save(self, key, value):
        meta = self._store.save(key, value)
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


# --- real process death (subprocess kill/resume) ---------------------


def _run_script(script, *args):
    """Run ``script`` with ``src`` importable; its output is captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(
            None,
            [
                os.path.abspath(
                    os.path.join(os.path.dirname(DRIVER), "..", "src")
                ),
                env.get("PYTHONPATH", ""),
            ],
        )
    )
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def _run_driver(*args, expect=0):
    done = _run_script(DRIVER, *args)
    assert done.returncode == expect, (
        f"driver {args} exited {done.returncode}, expected {expect}\n"
        f"stderr: {done.stderr}"
    )
    return done.stdout


# A coordinator that dies by ``os._exit(137)`` while both its process
# workers are mid-shard (each shard is ~0.7 s of sleeping similarity;
# the marker file appears once both have scored a pair).
_SHARD_DRIVER = """
import os, sys, time

from repro.core import Record
from repro.dist import sharded_resolve
from repro.linkage import (
    FieldComparator, RecordComparator, ThresholdClassifier,
)

MARK = __file__ + ".pids"


def slow(left, right):
    with open(MARK, "a") as handle:
        handle.write(f"{os.getpid()}\\n")
    time.sleep(0.02)
    return 1.0 if left == right else 0.0


if __name__ == "__main__":
    import threading

    def kill_when_busy():
        while True:
            time.sleep(0.01)
            if os.path.exists(MARK):
                with open(MARK) as handle:
                    if len(set(handle.read().split())) == 2:
                        print("both shards busy", flush=True)
                        os._exit(137)

    threading.Thread(target=kill_when_busy, daemon=True).start()
    records = [
        Record(f"r{i}", "s", {"name": f"item {i % 3}"}) for i in range(12)
    ]
    pairs = [(f"r{i}", f"r{j}") for i in range(12) for j in range(i + 1, 12)]
    sharded_resolve(
        records, None, RecordComparator([FieldComparator("name", slow)]),
        ThresholdClassifier(0.5), candidate_pairs=pairs, n_shards=2,
        backend="process",
    )
    print("survived", flush=True)
"""


def _payload(stdout):
    document = json.loads(stdout)
    document.pop("counters")
    return document


@pytest.mark.slow
class TestKillResume:
    """The acceptance contract: murder a real run, resume it, and the
    output is indistinguishable from a run that never died."""

    @pytest.mark.parametrize("execution", ["serial", "process"])
    def test_engine_kill_and_resume(self, tmp_path, execution):
        baseline = _run_driver(
            "engine", str(tmp_path / "base"), "--execution", execution
        )
        _run_driver(
            "engine",
            str(tmp_path / "killed"),
            "--execution",
            execution,
            "--kill-chunk",
            "2",
            expect=KILL_EXIT_CODE,
        )
        # The murdered run took its workers with it (they carry its
        # command line) and left chunks 0-1 durably checkpointed.
        assert_gone(PARENT_POLL + 2, cmdline=str(tmp_path / "killed"))
        store = RunStore(tmp_path / "killed")
        assert any("chunk" in key for key in store.keys())
        resumed = _run_driver(
            "engine", str(tmp_path / "killed"), "--execution", execution
        )
        assert _payload(resumed) == _payload(baseline)
        assert json.loads(resumed)["counters"][
            "recovery.chunks_replayed"
        ] == 2

    @needs_proc
    def test_a_killed_coordinator_takes_its_shard_workers_with_it(
        self, tmp_path
    ):
        driver = tmp_path / "shard_driver.py"
        driver.write_text(textwrap.dedent(_SHARD_DRIVER))
        done = _run_script(driver)
        assert done.returncode == KILL_EXIT_CODE, done.stderr
        assert "both shards busy" in done.stdout
        assert "survived" not in done.stdout
        assert_gone(PARENT_POLL + 2, cmdline=str(driver))

    def test_pipeline_kill_and_resume(self, tmp_path):
        baseline = _run_driver("pipeline", str(tmp_path / "base"))
        _run_driver(
            "pipeline",
            str(tmp_path / "killed"),
            "--kill-chunk",
            "2",
            expect=KILL_EXIT_CODE,
        )
        store = RunStore(tmp_path / "killed")
        assert "schema" in store.completed_stages()
        assert not store.completed
        resumed = _run_driver("pipeline", str(tmp_path / "killed"))
        assert _payload(resumed) == _payload(baseline)
        counters = json.loads(resumed)["counters"]
        assert counters["recovery.stages_skipped"] >= 1
        assert counters["recovery.chunks_replayed"] == 2
        assert RunStore(tmp_path / "killed").completed

    def test_solver_kill_and_resume(self, tmp_path):
        baseline = _run_driver("solver", str(tmp_path / "base"))
        _run_driver(
            "solver",
            str(tmp_path / "killed"),
            "--kill-iter",
            "5",
            expect=KILL_EXIT_CODE,
        )
        resumed = _run_driver("solver", str(tmp_path / "killed"))
        assert _payload(resumed) == _payload(baseline)
        assert json.loads(resumed)["counters"][
            "recovery.iterations_skipped"
        ] == 5
