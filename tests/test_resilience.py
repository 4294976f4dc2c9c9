"""Tests for the fault-tolerant execution layer.

Every timing assertion here is *exact*: the resilience config is wired
to a ManualClock with ``sleep=clock.advance`` (see conftest.py), so
backoff schedules, simulated hangs, and deadlines consume simulated
time only and the whole failure→retry→bisect→quarantine timeline is
deterministic. The acceptance matrix (TestAcceptanceMatrix) asserts
the contract from the issue: with a FaultInjector crashing one of N
chunks, ``"retry"`` reproduces the fault-free output byte for byte,
``"skip"`` quarantines only the poisoned pairs and completes, and
``"fail"`` raises identifying the failing chunk — under both serial
and process execution.
"""

import time

import pytest

from repro.core import ConfigurationError, Record
from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.linkage import (
    FieldComparator,
    ParallelComparisonEngine,
    RecordComparator,
    StandardBlocker,
    ThresholdClassifier,
    resolve,
)
from repro.linkage.blocking import first_token_key
from repro.obs import Tracer
from repro.resilience import (
    ChunkExecutionError,
    DeadLetterEntry,
    DeadLetterLog,
    DeadlineExceededError,
    PoisonPairError,
    ResilienceConfig,
    RetryPolicy,
)
from repro.resilience.testing import (
    FaultInjector,
    FaultSpec,
    crash,
)
from repro.text import exact_similarity

# --- shared workload ---------------------------------------------------
#
# 8 records, two per entity ("item 0".."item 3"), all 28 unordered
# pairs. With chunk_size=7 the engine cuts exactly 4 chunks of 7 under
# both serial (n_workers=1) and process (n_workers=2) execution, so a
# given fault pattern lands on identical chunks in either mode. The
# first pair, POISON = ("r0", "r1"), is a true match — quarantining it
# visibly removes one match from the output.

POISON = ("r0", "r1")


def _records():
    return [
        Record(f"r{i}", f"s{i % 2}", {"name": f"item {i // 2}", "brand": "acme"})
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


def _engine(resilience=None, execution="serial", n_workers=1, chunk_size=7,
            tracer=None):
    return ParallelComparisonEngine(
        _comparator(),
        execution=execution,
        n_workers=n_workers,
        chunk_size=chunk_size,
        tracer=tracer,
        resilience=resilience,
    )


@pytest.fixture(scope="module")
def workload():
    records = _records()
    return records, _pairs(records)


@pytest.fixture(scope="module")
def baseline(workload):
    """The fault-free run every recovered run must reproduce."""
    records, pairs = workload
    return _engine().match_pairs(records, pairs, CLASSIFIER)


class TestRetryPolicy:
    def test_schedule_is_exact_exponential(self):
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, multiplier=2.0)
        assert policy.schedule() == (1.0, 2.0, 4.0)

    def test_delay_capped_at_max_delay(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=10.0, multiplier=10.0, max_delay=50.0
        )
        assert policy.delay(1) == 10.0
        assert policy.delay(2) == 50.0
        assert policy.delay(4) == 50.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        first = policy.delay(1, salt="chunk-3")
        assert first == policy.delay(1, salt="chunk-3")
        assert 1.0 <= first <= 1.5
        # Different salts de-synchronize lockstep retries.
        assert first != policy.delay(1, salt="chunk-4")

    def test_attempt_numbers_are_one_based(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"base_delay": 2.0, "max_delay": 1.0},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestResilienceConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(failure="explode")
        with pytest.raises(ConfigurationError):
            ResilienceConfig(timeout=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(deadline=-1.0)

    def test_hosts_reject_non_config(self):
        with pytest.raises(ConfigurationError):
            _engine(resilience=42)
        with pytest.raises(ConfigurationError):
            PipelineConfig(resilience="retry")


class TestDeadLetterLog:
    def _entry(self, chunk_id="0.1", items=(("a", "b"),), kind="crash"):
        return DeadLetterEntry(
            scope="engine.chunk",
            chunk_id=chunk_id,
            kind=kind,
            error_type="InjectedCrash",
            error="injected crash",
            attempts=3,
            items=tuple(items),
            quarantined_at=7.5,
        )

    def test_json_round_trip(self):
        log = DeadLetterLog()
        log.add(self._entry())
        log.add(self._entry(chunk_id="2.0.1", items=((1, "k"),), kind="timeout"))
        assert DeadLetterLog.from_json(log.to_json()) == log

    def test_query_helpers(self):
        log = DeadLetterLog()
        log.add(self._entry(items=(("a", "b"), ("c", "d"))))
        log.add(self._entry(chunk_id="3", kind="timeout", items=(("e", "f"),)))
        assert log.quarantined_items() == (("a", "b"), ("c", "d"), ("e", "f"))
        assert [e.chunk_id for e in log.by_kind("timeout")] == ["3"]
        assert len(log) == 2 and bool(log)

    def test_merge(self):
        left, right = DeadLetterLog(), DeadLetterLog()
        left.add(self._entry())
        right.add(self._entry(chunk_id="9"))
        left.merge(right)
        assert [e.chunk_id for e in left] == ["0.1", "9"]


class TestFaultInjector:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("oom")

    def test_chunk_and_attempt_targeting(self):
        spec = crash(chunk=1, attempts=(1, 2))
        assert spec.matches(1, [POISON], 1)
        assert spec.matches(1, [POISON], 2)
        assert not spec.matches(1, [POISON], 3)
        assert not spec.matches(0, [POISON], 1)

    def test_item_targeting_follows_bisection(self):
        spec = crash(item=POISON)
        assert spec.matches(0, [POISON, ("r2", "r3")], 1)
        assert spec.matches(0, [POISON], 5)
        assert not spec.matches(0, [("r2", "r3")], 1)

    def test_max_fires_and_history(self):
        injector = FaultInjector(crash(max_fires=2))
        for attempt in (1, 2):
            with pytest.raises(Exception):
                injector.on_attempt(0, [POISON], attempt)
        injector.on_attempt(0, [POISON], 3)  # budget spent: no raise
        assert injector.fired() == injector.fired("crash") == 2
        assert [event.attempt for event in injector.history] == [1, 2]

    def test_garbage_substitutes_payload(self):
        injector = FaultInjector(
            FaultSpec("garbage", chunk=2, payload="junk")
        )
        assert injector.on_result(2, [POISON], 1, "real") == "junk"
        assert injector.on_result(1, [POISON], 1, "real") == "real"


class TestSerialRecovery:
    def test_transient_crash_recovers_identically(
        self, workload, baseline, resilience_config, fault_injector
    ):
        records, pairs = workload
        injector = fault_injector(crash(chunk=0, attempts=1))
        config = resilience_config(injector=injector)
        run = _engine(config).match_pairs(records, pairs, CLASSIFIER)
        assert run.match_pairs == baseline.match_pairs
        assert run.scored_edges == baseline.scored_edges
        assert not run.dead_letters
        assert run.completed_chunks == run.n_chunks == 4
        assert injector.fired() == 1

    def test_backoff_schedule_consumes_exact_time(
        self, workload, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = resilience_config(
            injector=fault_injector(crash(chunk=0, attempts=(1, 2))),
            max_attempts=3,
        )
        tracer = Tracer()
        run = _engine(config, tracer=tracer).match_pairs(
            records, pairs, CLASSIFIER
        )
        # Two failures on chunk 0: backoff 1.0 then 2.0, nothing else
        # moves the clock (tick=0, sleep=advance).
        assert config.clock.now() == 3.0
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["resilience.attempts"] == 4 + 2
        assert counters["resilience.retries"] == 2
        assert counters["resilience.failures"] == 2
        assert counters["resilience.failures_crash"] == 2
        assert counters["resilience.backoff_seconds"] == 3.0
        assert run.completed_chunks == 4

    def test_fail_policy_raises_on_first_failure(
        self, workload, resilience_config, fault_injector
    ):
        records, pairs = workload
        injector = fault_injector(crash(chunk=2))
        config = resilience_config(failure="fail", injector=injector)
        with pytest.raises(ChunkExecutionError) as exc:
            _engine(config).match_pairs(records, pairs, CLASSIFIER)
        assert exc.value.chunk_id == "2"
        assert exc.value.kind == "crash"
        assert exc.value.attempts == 1
        assert injector.fired() == 1  # fail fast: no retries at all
        assert config.clock.now() == 0.0  # and no backoff slept

    def test_retry_policy_raises_poison_pair(
        self, workload, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = resilience_config(
            failure="retry", injector=fault_injector(crash(item=POISON))
        )
        with pytest.raises(PoisonPairError) as exc:
            _engine(config).match_pairs(records, pairs, CLASSIFIER)
        assert exc.value.item == POISON
        assert exc.value.kind == "crash"

    def test_skip_quarantines_exactly_the_poison_pair(
        self, workload, baseline, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = resilience_config(
            failure="skip", injector=fault_injector(crash(item=POISON))
        )
        engine = _engine(config)
        run = engine.match_pairs(records, pairs, CLASSIFIER)
        assert run.quarantined_pairs == (POISON,)
        assert run.match_pairs == baseline.match_pairs - {frozenset(POISON)}
        assert run.completed_chunks == 3 and run.n_chunks == 4
        [entry] = run.dead_letters
        assert entry.kind == "crash"
        assert entry.attempts == 3
        assert entry.items == (POISON,)
        assert engine.dead_letters is run.dead_letters

    def test_bisection_isolates_poison_with_exact_counters(
        self, workload, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = resilience_config(
            failure="skip", injector=fault_injector(crash(item=POISON))
        )
        tracer = Tracer()
        run = _engine(config, tracer=tracer).match_pairs(
            records, pairs, CLASSIFIER
        )
        # Chunk 0 (7 pairs) exhausts, splits [0:3]/[3:7]; the poison
        # half splits again to [POISON] alone: bisection path "0.0.0".
        [entry] = run.dead_letters
        assert entry.chunk_id == "0.0.0"
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["resilience.bisections"] == 2
        # Failing levels: chunk "0", "0.0", "0.0.0" — 3 attempts each;
        # innocent halves [3 pairs→1] + chunks 1-3 succeed first try.
        assert counters["resilience.attempts"] == 9 + 2 + 3
        assert counters["resilience.failures"] == 9
        assert counters["resilience.backoff_seconds"] == 3 * (1.0 + 2.0)
        assert counters["resilience.quarantined_items"] == 1
        assert counters["resilience.quarantined_entries"] == 1
        assert config.clock.now() == 9.0

    def test_injected_hang_charged_timeout_then_recovers(
        self, workload, baseline, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = resilience_config(
            injector=fault_injector(FaultSpec("hang", chunk=1, attempts=1)),
            timeout=4.0,
        )
        tracer = Tracer()
        run = _engine(config, tracer=tracer).match_pairs(
            records, pairs, CLASSIFIER
        )
        assert run.match_pairs == baseline.match_pairs
        assert run.scored_edges == baseline.scored_edges
        # One hang burns its full 4s timeout plus the 1s first backoff.
        assert config.clock.now() == 5.0
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["resilience.failures_timeout"] == 1

    def test_persistent_hang_quarantined_as_timeout(
        self, workload, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = resilience_config(
            failure="skip",
            injector=fault_injector(FaultSpec("hang", item=POISON)),
            timeout=2.0,
            max_attempts=2,
        )
        run = _engine(config).match_pairs(records, pairs, CLASSIFIER)
        assert run.quarantined_pairs == (POISON,)
        [entry] = run.dead_letters.by_kind("timeout")
        assert entry.items == (POISON,)

    def test_garbage_result_detected_and_retried(
        self, workload, baseline, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = resilience_config(
            injector=fault_injector(
                FaultSpec("garbage", chunk=0, attempts=1, payload=None)
            )
        )
        tracer = Tracer()
        run = _engine(config, tracer=tracer).match_pairs(
            records, pairs, CLASSIFIER
        )
        assert run.match_pairs == baseline.match_pairs
        assert run.scored_edges == baseline.scored_edges
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["resilience.failures_garbage"] == 1

    def test_compare_pairs_partial_vectors(
        self, workload, resilience_config, fault_injector
    ):
        records, pairs = workload
        full = _engine().compare_pairs(records, pairs)
        config = resilience_config(
            failure="skip", injector=fault_injector(crash(item=POISON))
        )
        engine = _engine(config)
        vectors = engine.compare_pairs(records, pairs)
        # Everything but the poison pair survives, in input order.
        assert vectors == [
            vector
            for vector in full
            if (vector.left_id, vector.right_id) != POISON
        ]
        assert engine.dead_letters.quarantined_items() == (POISON,)

    def test_clean_resilient_run_reports_zeroed_counters(
        self, workload, baseline, resilience_config
    ):
        records, pairs = workload
        tracer = Tracer()
        run = _engine(resilience_config(), tracer=tracer).match_pairs(
            records, pairs, CLASSIFIER
        )
        assert run.match_pairs == baseline.match_pairs
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["resilience.attempts"] == 4  # one per chunk
        for name in (
            "resilience.retries",
            "resilience.failures",
            "resilience.bisections",
            "resilience.quarantined_items",
            "resilience.quarantined_entries",
            "resilience.backoff_seconds",
        ):
            assert counters[name] == 0  # present and zeroed


class TestDeadline:
    def _config(self, resilience_config, fault_injector, failure):
        # Chunk 0 hangs twice (3s timeout each + 1s backoff = 7s),
        # blowing through the 5s run deadline before any other chunk
        # gets dispatched.
        return resilience_config(
            failure=failure,
            injector=fault_injector(FaultSpec("hang", chunk=0)),
            timeout=3.0,
            deadline=5.0,
            max_attempts=2,
        )

    def test_skip_quarantines_remaining_work_as_deadline(
        self, workload, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = self._config(resilience_config, fault_injector, "skip")
        run = _engine(config).match_pairs(records, pairs, CLASSIFIER)
        assert run.match_pairs == set()
        assert len(run.quarantined_pairs) == len(pairs)
        assert run.completed_chunks == 0 and run.n_chunks == 4
        # Chunk 0 exhausted as a timeout; everything after it expired.
        kinds = {entry.kind for entry in run.dead_letters}
        assert kinds == {"deadline"}
        assert len(run.dead_letters.by_kind("deadline")) >= 3

    def test_retry_raises_deadline_exceeded(
        self, workload, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = self._config(resilience_config, fault_injector, "retry")
        with pytest.raises(DeadlineExceededError) as exc:
            _engine(config).match_pairs(records, pairs, CLASSIFIER)
        assert exc.value.deadline == 5.0
        assert exc.value.elapsed >= 5.0


class TestHeartbeat:
    def test_heartbeat_freezes_at_stalled_chunk(
        self, workload, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = resilience_config(
            failure="skip",
            injector=fault_injector(FaultSpec("hang", chunk=3)),
            timeout=4.0,
            max_attempts=2,
        )
        tracer = Tracer()
        # chunk_size=9 → chunks of 9/9/9/1: the stalled chunk 3 holds
        # exactly one pair, so no bisection muddies the timeline.
        run = _engine(config, chunk_size=9, tracer=tracer).match_pairs(
            records, pairs, CLASSIFIER
        )
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["resilience.heartbeat_chunk"] == 3
        assert gauges["resilience.heartbeat_attempt"] == 2
        # Last attempt dispatched at t=5: first hang 4s + backoff 1s.
        assert gauges["resilience.heartbeat_time"] == 5.0
        assert gauges["resilience.chunks_done"] == 4
        [entry] = run.dead_letters
        assert entry.quarantined_at == 9.0


# --- the acceptance matrix from the issue ------------------------------


@pytest.mark.parametrize(
    "execution,n_workers",
    [
        ("serial", 1),
        pytest.param("process", 2, marks=pytest.mark.slow),
    ],
)
class TestAcceptanceMatrix:
    """Crash 1 of N chunks; assert the three policies' contracts."""

    def test_retry_reproduces_fault_free_output(
        self, execution, n_workers, workload, baseline, resilience_config,
        fault_injector,
    ):
        records, pairs = workload
        config = resilience_config(
            failure="retry", injector=fault_injector(crash(chunk=1, attempts=1))
        )
        run = _engine(config, execution=execution, n_workers=n_workers).match_pairs(
            records, pairs, CLASSIFIER
        )
        assert run.match_pairs == baseline.match_pairs
        assert run.scored_edges == baseline.scored_edges
        assert run.n_pairs == baseline.n_pairs
        assert not run.dead_letters

    def test_skip_quarantines_only_poisoned_pairs(
        self, execution, n_workers, workload, baseline, resilience_config,
        fault_injector,
    ):
        records, pairs = workload
        config = resilience_config(
            failure="skip", injector=fault_injector(crash(item=POISON))
        )
        run = _engine(config, execution=execution, n_workers=n_workers).match_pairs(
            records, pairs, CLASSIFIER
        )
        assert run.quarantined_pairs == (POISON,)
        assert run.match_pairs == baseline.match_pairs - {frozenset(POISON)}
        assert run.completed_chunks == run.n_chunks - 1

    def test_fail_raises_identifying_the_chunk(
        self, execution, n_workers, workload, resilience_config, fault_injector
    ):
        records, pairs = workload
        config = resilience_config(
            failure="fail", injector=fault_injector(crash(chunk=1))
        )
        with pytest.raises(ChunkExecutionError) as exc:
            _engine(config, execution=execution, n_workers=n_workers).match_pairs(
                records, pairs, CLASSIFIER
            )
        assert exc.value.chunk_id == "1"


# --- real process faults (no injector) ---------------------------------


def _hanging_similarity(left: str, right: str) -> float:
    """A similarity that stalls on the sentinel value — a real hang
    inside a real worker process, not a simulated one."""
    if "hang" in (left, right):
        time.sleep(3.0)
    return 1.0 if left == right else 0.0


@pytest.mark.slow
class TestProcessRealFaults:
    def test_real_worker_timeout_quarantined_and_pool_recycled(self):
        records = [
            Record("p0", "s0", {"name": "hang"}),
            Record("p1", "s1", {"name": "alpha"}),
            Record("p2", "s0", {"name": "alpha"}),
        ]
        pairs = [("p0", "p1"), ("p1", "p2"), ("p0", "p2")]
        comparator = RecordComparator(
            fields=[FieldComparator("name", _hanging_similarity)]
        )
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1),
            failure="skip",
            timeout=0.75,
        )
        engine = ParallelComparisonEngine(
            comparator,
            execution="process",
            n_workers=2,
            chunk_size=2,
            resilience=config,
        )
        run = engine.match_pairs(records, pairs, ThresholdClassifier(0.9))
        # Both pairs touching the hanging record time out for real and
        # are quarantined; the innocent pair survives the recycled pool.
        assert run.match_pairs == {frozenset(("p1", "p2"))}
        assert set(run.quarantined_pairs) == {("p0", "p1"), ("p0", "p2")}
        assert {entry.kind for entry in run.dead_letters} == {"timeout"}

    def test_legacy_process_run_reports_chunk_heartbeat(self, workload):
        records, pairs = workload
        tracer = Tracer()
        engine = _engine(
            execution="process", n_workers=2, tracer=tracer
        )
        engine.match_pairs(records, pairs, CLASSIFIER)
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["engine.chunks_done"] == 4


# --- the sharded path --------------------------------------------------
#
# Faults aimed at one shard live in tests/test_dist_runtime.py
# (TestChaosMatrix); here an untargeted fault reaches every shard's
# engine through the public ``resolve(execution="sharded")`` surface.


class TestDistributedResilience:
    def _resolve(self, resilience=None):
        # Every record shares the brand: one block, all 28 pairs,
        # split over two shards by pair owner.
        return resolve(
            _records(),
            StandardBlocker(first_token_key("brand")),
            _comparator(),
            CLASSIFIER,
            execution="sharded",
            n_shards=2,
            shard_backend="inline",
            resilience=resilience,
        )

    def test_retry_matches_fault_free_run(
        self, resilience_config, fault_injector
    ):
        clean = self._resolve()
        injector = fault_injector(crash(attempts=1))
        run = self._resolve(resilience_config(injector=injector))
        assert injector.fired() >= 2  # once per shard at least
        assert run.match_pairs == clean.match_pairs
        assert run.scored_edges == clean.scored_edges
        assert run.clusters == clean.clusters
        assert not run.dead_letters
        assert run.quarantined_pairs == ()

    def test_skip_degrades_to_partial_results(
        self, resilience_config, fault_injector
    ):
        clean = self._resolve()
        config = resilience_config(
            failure="skip", injector=fault_injector(crash(item=POISON))
        )
        run = self._resolve(config)
        assert run.quarantined_pairs == (POISON,)
        assert run.match_pairs == clean.match_pairs - {frozenset(POISON)}
        assert len(run.dead_letters) == 1


class TestPipelineResilience:
    @pytest.fixture(scope="class")
    def dataset(self):
        from repro import FourVKnobs, build_corpus

        return build_corpus(FourVKnobs(volume=0.0, seed=3)).dataset

    def test_pipeline_survives_transient_faults(
        self, dataset, resilience_config, fault_injector
    ):
        clean = BDIPipeline(PipelineConfig()).run(dataset)
        injector = fault_injector(crash(chunk=0, attempts=1, max_fires=2))
        config = PipelineConfig(
            resilience=resilience_config(injector=injector)
        )
        result = BDIPipeline(config).run(dataset)
        assert injector.fired() >= 1
        assert result.dead_letters is not None
        assert not result.dead_letters
        assert result.clusters == clean.clusters
        assert result.entity_table == clean.entity_table

    def test_run_report_carries_resilience_counters(
        self, dataset, resilience_config, fault_injector
    ):
        config = PipelineConfig(
            resilience=resilience_config(
                failure="skip",
                injector=fault_injector(crash(chunk=0, attempts=1, max_fires=1)),
            )
        )
        tracer = Tracer()
        result = BDIPipeline(config).run(dataset, tracer=tracer)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["resilience.attempts"] > 0
        assert counters["resilience.retries"] >= 1
        assert counters["resilience.failures_crash"] == 1
        assert result.dead_letters is not None
