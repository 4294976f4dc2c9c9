"""Self-healing supervision and overload protection (repro.supervision).

Four contracts anchor this file:

1. **Byte-identity healing** — a supervised sharded run whose workers
   die (``flap`` faults inline, real ``os._exit`` kills under the
   process backend) or hang (frozen heartbeat tokens) produces output
   byte-identical to an unfaulted serial run, with no operator
   intervention.
2. **Bounded escalation** — a shard that keeps dying past
   ``SupervisionPolicy.max_restarts`` raises
   :class:`SupervisionExhaustedError` instead of crash-looping, and
   every decision lands on the ``supervisor.events`` timeline.
3. **Degraded-mode serving** — once the circuit breaker trips, reads
   keep answering from the last published generation while writes are
   shed (``Overloaded`` or dead-lettered), and one successful trial
   write (or refresh) re-arms the breaker automatically.
4. **Deterministic chaos** — every timeline above is exact: manual
   clocks, injected sleeps, declarative fault specs, monotonic
   heartbeat tokens instead of wall-clock staleness.
"""

import functools
import json
import os
import threading
import time

import pytest

from repro.core import ConfigurationError, Record
from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.dist import sharded_resolve
from repro.linkage import (
    FieldComparator,
    RecordComparator,
    ThresholdClassifier,
    resolve,
)
from repro.linkage.blocking.keys import first_token_key
from repro.linkage.blocking.standard import StandardBlocker
from repro.linkage.comparison import default_product_comparator
from repro.linkage.engine import ParallelComparisonEngine
from repro.obs import ManualClock, Tracer, observe_supervisor
from repro.resilience import (
    ChunkExecutionError,
    DeadLetterEntry,
    DeadLetterLog,
    DeadlineExceededError,
    InjectedCrash,
    InjectedWorkerDeath,
    ResilienceConfig,
    RetryPolicy,
)
from repro.resilience.testing import (
    FaultInjector,
    crash,
    flap,
    garbage,
    hang,
    kill,
    slow,
)
from repro.serve import ResolutionService
from repro.supervision import (
    AdmissionGate,
    CircuitBreaker,
    HeartbeatEmitter,
    Overloaded,
    OverloadPolicy,
    SupervisionExhaustedError,
    SupervisionPolicy,
    Supervisor,
    progress_token,
    read_heartbeat,
)
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro import FourVKnobs, build_corpus
from repro.text import exact_similarity
from tests.procs import assert_gone, needs_proc


# --- shared workload ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _corpus():
    world = generate_world(
        WorldConfig(categories=("camera",), entities_per_category=12, seed=7)
    )
    dataset = generate_dataset(world, CorpusConfig(n_sources=4, seed=8))
    return tuple(dataset.records())


def _blocker():
    return StandardBlocker(first_token_key("name", aliases=("item name",)))


@functools.lru_cache(maxsize=None)
def _serial():
    return resolve(
        list(_corpus()),
        _blocker(),
        default_product_comparator(),
        ThresholdClassifier(0.72),
    )


def assert_identical(run):
    serial = _serial()
    result = run.result
    assert result.match_pairs == serial.match_pairs
    assert result.scored_edges == serial.scored_edges
    assert result.clusters == serial.clusters
    assert result.n_candidates == serial.n_candidates


def _supervised_run(
    injector,
    policy=None,
    tracer=None,
    backend="inline",
    checkpoint=None,
    chunk_size=2048,
    max_attempts=2,
):
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.0),
        failure="retry",
        fault_injector=injector,
    )
    if policy is None:
        policy = SupervisionPolicy(max_restarts=2, sleep=lambda seconds: None)
    supervisor = Supervisor(policy, tracer=tracer)
    run = sharded_resolve(
        list(_corpus()),
        _blocker(),
        default_product_comparator(),
        ThresholdClassifier(0.72),
        n_shards=3,
        backend=backend,
        chunk_size=chunk_size,
        resilience=resilience,
        checkpoint=checkpoint,
        supervisor=supervisor,
    )
    return run, supervisor


def _kinds(supervisor, shard=None):
    return [
        event.kind
        for event in supervisor.events
        if shard is None or event.shard == shard
    ]


def camera(record_id, source, name):
    return Record(record_id, source, {"name": name})


def _service(
    root, tracer=None, resilience=None, overload=None, refresh_blocker=None
):
    if refresh_blocker is None:
        refresh_blocker = StandardBlocker(first_token_key("name"))
    return ResolutionService(
        root,
        key_functions=[first_token_key("name")],
        comparator=default_product_comparator(),
        classifier=ThresholdClassifier(0.72),
        refresh_blocker=refresh_blocker,
        resilience=resilience,
        tracer=tracer,
        durable=False,
        overload=overload,
    )


# --- circuit breaker ---------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, tracer=None, threshold=2, reset=10.0, hook=None):
        clock = ManualClock(start=0.0, tick=0.0)
        breaker = CircuitBreaker(
            failure_threshold=threshold,
            reset_timeout=reset,
            clock=clock,
            tracer=tracer,
            name="b",
            on_state_change=hook,
        )
        return breaker, clock

    def test_full_trip_trial_rearm_timeline(self):
        tracer = Tracer()
        breaker, clock = self._breaker(tracer=tracer)
        assert breaker.state == "closed"
        assert breaker.allow()
        assert breaker.retry_after() == 0.0
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == 10.0
        clock.advance(4.0)
        assert breaker.retry_after() == 6.0
        assert breaker.state == "open"
        clock.advance(6.0)
        assert breaker.state == "half_open"
        # Exactly one trial slot.
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()
        counters = tracer.report().metrics["counters"]
        assert counters["b.opened"] == 1
        assert counters["b.rearmed"] == 1
        assert counters["b.failures"] == 2

    def test_failed_trial_reopens_for_full_window(self):
        breaker, clock = self._breaker(threshold=1, reset=5.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.allow()  # the half-open trial
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.retry_after() == 5.0  # full window again

    def test_successes_reset_the_failure_count(self):
        breaker, _ = self._breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two consecutive

    def test_state_gauge_and_callback(self):
        tracer = Tracer()
        transitions = []
        breaker, clock = self._breaker(
            tracer=tracer, threshold=1, hook=lambda old, new: transitions.append((old, new))
        )
        gauges = lambda: tracer.metrics.snapshot()["gauges"]  # noqa: E731
        assert gauges()["b.state"] == 0.0
        breaker.record_failure()
        assert gauges()["b.state"] == 2.0
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert gauges()["b.state"] == 1.0
        breaker.record_success()
        assert gauges()["b.state"] == 0.0
        assert transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(reset_timeout=0.0)


# --- admission gate ----------------------------------------------------


class TestAdmissionGate:
    def test_bounded_inflight_with_shed_accounting(self):
        tracer = Tracer()
        gate = AdmissionGate(2, retry_after=0.25, tracer=tracer, name="g")
        gate.acquire()
        gate.acquire()
        assert gate.depth == 2
        with pytest.raises(Overloaded) as rejected:
            gate.acquire()
        assert rejected.value.retry_after == 0.25
        gate.release()
        assert gate.depth == 1
        gate.acquire()  # slot freed, admitted again
        counters = tracer.report().metrics["counters"]
        assert counters["g.shed"] == 1
        assert counters["g.shed_admission"] == 1
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["g.pending_writes"] == 2.0

    def test_admit_context_manager_always_releases(self):
        gate = AdmissionGate(1)
        with pytest.raises(RuntimeError):
            with gate.admit():
                assert gate.depth == 1
                raise RuntimeError("boom")
        assert gate.depth == 0

    def test_release_never_goes_negative(self):
        gate = AdmissionGate(1)
        gate.release()
        assert gate.depth == 0

    def test_invalid_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(0)


class TestPolicyValidation:
    def test_overload_policy_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            OverloadPolicy(max_pending_writes=0)
        with pytest.raises(ConfigurationError):
            OverloadPolicy(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            OverloadPolicy(admission_retry_after=-1.0)
        with pytest.raises(ConfigurationError):
            OverloadPolicy(reset_timeout=0.0)
        with pytest.raises(ConfigurationError):
            OverloadPolicy(shed="explode")

    def test_supervision_policy_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(max_restarts=-1)
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(poll_interval=0.0)
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(stale_polls=0)

    def test_service_rejects_non_policy_overload(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _service(tmp_path, overload={"max_pending_writes": 4})


# --- heartbeats --------------------------------------------------------


class TestHeartbeat:
    def test_beats_are_monotonic_within_an_incarnation(self, tmp_path):
        path = tmp_path / "hb"
        emitter = HeartbeatEmitter(path, incarnation=1)
        assert read_heartbeat(path) is None
        assert progress_token(read_heartbeat(path)) == (0, 0)
        tokens = []
        for chunk in range(3):
            emitter.beat(chunk=chunk, attempt=1)
            tokens.append(progress_token(read_heartbeat(path)))
        assert tokens == [(1, 1), (1, 2), (1, 3)]
        beat = read_heartbeat(path)
        assert beat["chunk"] == 2 and beat["attempt"] == 1

    def test_tokens_stay_monotonic_across_restarts(self, tmp_path):
        path = tmp_path / "hb"
        first = HeartbeatEmitter(path, incarnation=1)
        for _ in range(5):
            first.beat()
        before = progress_token(read_heartbeat(path))
        # A restarted worker's seq resets to zero; the incarnation
        # component keeps the token strictly increasing anyway.
        second = HeartbeatEmitter(path, incarnation=2)
        second.beat()
        after = progress_token(read_heartbeat(path))
        assert before == (1, 5)
        assert after == (2, 1)
        assert after > before

    def test_unreadable_beats_read_as_no_beat(self, tmp_path):
        path = tmp_path / "hb"
        path.write_text("not json", encoding="utf-8")
        assert read_heartbeat(path) is None
        path.write_text("[1, 2]", encoding="utf-8")
        assert read_heartbeat(path) is None

    def test_invalid_incarnation_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            HeartbeatEmitter(tmp_path / "hb", incarnation=0)

    def test_executor_beats_the_configured_emitter(self, tmp_path):
        path = tmp_path / "hb"
        emitter = HeartbeatEmitter(path, incarnation=3)
        tracer = Tracer()
        engine = ParallelComparisonEngine(
            RecordComparator(
                fields=[FieldComparator("name", exact_similarity)]
            ),
            chunk_size=2,
            tracer=tracer,
            resilience=ResilienceConfig(heartbeat=emitter),
        )
        records = [
            Record(f"r{i}", "s0", {"name": f"thing {i // 2}"})
            for i in range(6)
        ]
        pairs = [(f"r{i}", f"r{i + 1}") for i in range(5)]
        engine.match_pairs(records, pairs, ThresholdClassifier(0.9))
        beat = read_heartbeat(path)
        assert beat is not None
        # One beat per attempt: 5 pairs at chunk_size=2 is 3 chunks.
        assert progress_token(beat) == (3, 3)
        assert emitter.seq == 3
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["resilience.heartbeat_seq"] == 3.0


# --- fault specs (slow / flap) -----------------------------------------


class TestChaosSpecs:
    def test_slow_fault_injects_latency_then_proceeds(self):
        naps = []
        injector = FaultInjector(
            slow(chunk=1, delay=2.5), sleeper=naps.append
        )
        injector.on_attempt(0, ["a"], 1)  # wrong chunk: no delay
        injector.on_attempt(1, ["a"], 1)  # delayed, not raised
        assert naps == [2.5]
        assert injector.fired("slow") == 1

    def test_slow_fault_rejects_bad_delay(self):
        with pytest.raises(ConfigurationError):
            slow(delay=-1.0)

    def test_flap_fault_is_a_base_exception_with_identity(self):
        injector = FaultInjector(flap(chunk=0))
        injector.bind_shard(4)
        injector.bind_incarnation(2)
        with pytest.raises(InjectedWorkerDeath) as death:
            injector.on_attempt(0, ["a"], 1)
        assert not isinstance(death.value, Exception)
        assert death.value.shard == 4
        assert death.value.incarnation == 2

    def test_incarnation_filter_lets_restarts_run_clean(self):
        injector = FaultInjector(flap(chunk=0, incarnations=(1, 2)))
        for incarnation in (1, 2):
            injector.bind_incarnation(incarnation)
            with pytest.raises(InjectedWorkerDeath):
                injector.on_attempt(0, ["a"], 1)
        injector.bind_incarnation(3)
        injector.on_attempt(0, ["a"], 1)  # clean on the third launch
        assert injector.fired("flap") == 2
        assert [event.incarnation for event in injector.history] == [1, 2]

    def test_bind_incarnation_validates(self):
        with pytest.raises(ConfigurationError):
            FaultInjector().bind_incarnation(0)


# --- dead-letter rotation (satellite regression) -----------------------


def _entry(index, padding=""):
    return DeadLetterEntry(
        scope="test",
        chunk_id=str(index),
        kind="crash",
        error_type="RuntimeError",
        error=f"boom {index}{padding}",
        attempts=1,
        items=((f"a{index}", f"b{index}"),),
        quarantined_at=float(index),
    )


class TestDeadLetterRotation:
    def test_max_entries_keeps_the_newest_tail(self):
        log = DeadLetterLog(max_entries=3)
        for index in range(5):
            log.add(_entry(index))
        assert [entry.chunk_id for entry in log.entries] == ["2", "3", "4"]
        assert log.dropped == 2
        assert log.rotations == 2
        assert len(log) == 3

    def test_max_bytes_keeps_the_newest_fitting_suffix(self):
        line = len(
            json.dumps(_entry(0).to_dict(), sort_keys=True, ensure_ascii=False)
            .encode("utf-8")
        ) + 1
        log = DeadLetterLog(max_bytes=2 * line)
        for index in range(5):
            log.add(_entry(index))
        assert [entry.chunk_id for entry in log.entries] == ["3", "4"]
        assert log.dropped == 3

    def test_oversized_latest_entry_is_always_retained(self):
        log = DeadLetterLog(max_bytes=10)
        log.add(_entry(0, padding="x" * 500))
        log.add(_entry(1, padding="y" * 500))
        assert len(log) == 1
        assert log.entries[0].chunk_id == "1"

    def test_durable_sink_is_rewritten_to_the_retained_tail(self, tmp_path):
        path = str(tmp_path / "dead_letters.jsonl")
        log = DeadLetterLog(path=path, max_entries=2)
        for index in range(5):
            log.add(_entry(index))
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        assert len(lines) == 2
        reloaded = DeadLetterLog.from_jsonl("\n".join(lines))
        assert [entry.chunk_id for entry in reloaded.entries] == ["3", "4"]
        assert reloaded.entries == log.entries

    def test_restore_and_constructor_also_rotate(self):
        log = DeadLetterLog(entries=[_entry(i) for i in range(4)], max_entries=2)
        assert [entry.chunk_id for entry in log.entries] == ["2", "3"]
        assert log.dropped == 2
        log.restore([_entry(4), _entry(5)])
        assert [entry.chunk_id for entry in log.entries] == ["4", "5"]
        assert log.dropped == 4

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            DeadLetterLog(max_entries=0)
        with pytest.raises(ValueError):
            DeadLetterLog(max_bytes=0)

    def test_serve_ingest_storm_stays_bounded(self, tmp_path):
        injector = FaultInjector(crash())
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            failure="skip",
            fault_injector=injector,
            dead_letter_max_entries=2,
        )
        service = _service(tmp_path, resilience=resilience)
        for index in range(5):
            result = service.ingest(camera(f"c{index}", "s0", f"cam {index}"))
            assert result.quarantined
        assert len(service.dead_letters) == 2
        assert service.dead_letters.dropped == 3
        assert [
            entry.items[0] for entry in service.dead_letters.entries
        ] == ["c3", "c4"]


# --- the supervisor: inline backend ------------------------------------


class TestSupervisorInline:
    def test_flapping_shard_heals_to_byte_identical_output(self):
        tracer = Tracer()
        injector = FaultInjector(
            flap(chunk=0, incarnations=(1, 2), max_fires=2)
        )
        run, supervisor = _supervised_run(injector, tracer=tracer)
        assert_identical(run)
        flapped = supervisor.events[1].shard
        assert _kinds(supervisor, shard=flapped) == [
            "start", "death", "restart", "death", "restart", "recovered",
        ]
        deaths = [e for e in supervisor.events if e.kind == "death"]
        assert [e.incarnation for e in deaths] == [1, 2]
        assert _kinds(supervisor).count("start") == 3
        assert "exhausted" not in _kinds(supervisor)
        counters = tracer.report().metrics["counters"]
        assert counters["supervision.deaths"] == 2
        assert counters["supervision.restarts"] == 2
        assert counters["supervision.recovereds"] == 1

    def test_unsupervised_flap_is_fatal(self):
        # The contrast case: the worker death is a BaseException the
        # resilience layer must NOT absorb, and without a supervisor
        # the one shard loop has no restart to spend on it.
        injector = FaultInjector(flap(chunk=0, max_fires=1))
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            failure="retry",
            fault_injector=injector,
        )
        with pytest.raises(SupervisionExhaustedError) as fatal:
            sharded_resolve(
                list(_corpus()),
                _blocker(),
                default_product_comparator(),
                ThresholdClassifier(0.72),
                n_shards=3,
                backend="inline",
                resilience=resilience,
            )
        assert isinstance(fatal.value.__cause__, InjectedWorkerDeath)
        assert fatal.value.restarts == 0
        assert injector.fired() == 1  # three attempts allowed, one made

    def test_restart_budget_exhaustion_escalates(self):
        injector = FaultInjector(flap(chunk=0))  # dies every incarnation
        policy = SupervisionPolicy(max_restarts=1, sleep=lambda s: None)
        with pytest.raises(SupervisionExhaustedError) as escalated:
            _supervised_run(injector, policy=policy)
        assert escalated.value.restarts == 1
        assert "died 2 time(s)" in str(escalated.value)

    def test_zero_budget_escalates_on_first_death(self):
        injector = FaultInjector(flap(chunk=0))
        policy = SupervisionPolicy(max_restarts=0, sleep=lambda s: None)
        tracer = Tracer()
        supervisor = Supervisor(policy, tracer=tracer)
        with pytest.raises(SupervisionExhaustedError):
            sharded_resolve(
                list(_corpus()),
                _blocker(),
                default_product_comparator(),
                ThresholdClassifier(0.72),
                n_shards=2,
                backend="inline",
                resilience=ResilienceConfig(fault_injector=injector),
                supervisor=supervisor,
            )
        shard = supervisor.events[0].shard
        assert _kinds(supervisor, shard=shard) == [
            "start", "death", "exhausted",
        ]

    def test_restart_backoff_paces_each_restart(self):
        naps = []
        backoff = RetryPolicy(
            max_attempts=1, base_delay=0.2, multiplier=3.0, max_delay=10.0
        )
        policy = SupervisionPolicy(
            max_restarts=2, backoff=backoff, sleep=naps.append
        )
        injector = FaultInjector(
            flap(chunk=0, incarnations=(1, 2), max_fires=2)
        )
        run, supervisor = _supervised_run(injector, policy=policy)
        assert_identical(run)
        shard = supervisor.events[1].shard
        assert naps == [
            backoff.delay(1, salt=f"supervise.{shard}"),
            backoff.delay(2, salt=f"supervise.{shard}"),
        ]

    def test_event_timeline_exports_to_json(self):
        injector = FaultInjector(flap(chunk=0, max_fires=1))
        run, supervisor = _supervised_run(injector)
        payload = json.dumps([e.to_dict() for e in supervisor.events])
        restored = json.loads(payload)
        assert restored[1]["kind"] == "death"
        assert restored[1]["incarnation"] == 1

    def test_observe_supervisor_publishes_healing_gauges(self):
        tracer = Tracer()
        injector = FaultInjector(
            flap(chunk=0, incarnations=(1, 2), max_fires=2)
        )
        run, supervisor = _supervised_run(injector)
        observe_supervisor(tracer, supervisor)
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["supervision.events"] == float(len(supervisor.events))
        assert gauges["supervision.healed_shards"] == 1.0
        assert gauges["supervision.max_shard_restarts"] == 2.0

    def test_supervisor_requires_sharded_execution(self):
        with pytest.raises(ConfigurationError):
            resolve(
                list(_corpus()),
                _blocker(),
                default_product_comparator(),
                ThresholdClassifier(0.72),
                supervisor=Supervisor(),
            )


class TestOneErrorSurface:
    """Whichever backend ran the shard, supervised or not, a failing
    chunk is the same named error — an exception is a result, not a
    death — and a dead worker is a death that names itself."""

    @staticmethod
    def _run(spec, backend, supervisor):
        return sharded_resolve(
            list(_corpus()),
            _blocker(),
            default_product_comparator(),
            ThresholdClassifier(0.72),
            n_shards=3,
            backend=backend,
            resilience=ResilienceConfig(
                failure="fail", fault_injector=FaultInjector(spec)
            ),
            supervisor=supervisor,
        )

    @pytest.mark.parametrize("supervised", [False, True])
    @pytest.mark.parametrize(
        "backend", ["inline", pytest.param("process", marks=pytest.mark.slow)]
    )
    def test_a_failing_chunk_is_one_error_on_every_path(
        self, backend, supervised
    ):
        supervisor = None
        if supervised:
            supervisor = Supervisor(
                SupervisionPolicy(max_restarts=2, sleep=lambda s: None)
            )
        with pytest.raises(ChunkExecutionError) as caught:
            self._run(crash(chunk=0, shard=1), backend, supervisor)
        error = caught.value
        assert (error.chunk_id, error.kind, error.attempts) == ("0", "crash", 1)
        assert str(error) == (
            f"chunk 0 failed (crash) after 1 attempt(s) over "
            f"{len(error.items)} item(s): injected crash: chunk 0 attempt 1"
        )
        assert isinstance(error.__cause__, InjectedCrash)
        assert error.cause is error.__cause__
        if supervised:
            assert "start" in _kinds(supervisor)
            assert not {"death", "restart"} & set(_kinds(supervisor))

    @pytest.mark.slow
    @needs_proc
    def test_an_unsupervised_worker_death_names_shard_and_exit_code(self):
        with pytest.raises(SupervisionExhaustedError) as fatal:
            self._run(kill(chunk=0, shard=1), "process", None)
        assert fatal.value.shard == 1 and fatal.value.restarts == 0
        assert "shard 1 died 1 time(s)" in str(fatal.value)
        assert "exit code 137" in str(fatal.value)
        assert_gone(0.0, parent=os.getpid())


class TestPipelineSupervision:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(supervision=SupervisionPolicy())  # serial
        with pytest.raises(ConfigurationError):
            PipelineConfig(
                execution="sharded", supervision={"max_restarts": 1}
            )

    def test_supervised_pipeline_matches_unfaulted_run(self):
        corpus = build_corpus(
            FourVKnobs(volume=0.0, variety=0.3, veracity=0.2, seed=11)
        )
        baseline = BDIPipeline(
            PipelineConfig(
                execution="sharded", n_shards=2, shard_backend="inline"
            )
        ).run(corpus.dataset)
        injector = FaultInjector(flap(chunk=0, incarnations=(1,), max_fires=1))
        tracer = Tracer()
        healed = BDIPipeline(
            PipelineConfig(
                execution="sharded",
                n_shards=2,
                shard_backend="inline",
                resilience=ResilienceConfig(fault_injector=injector),
                supervision=SupervisionPolicy(
                    max_restarts=1, sleep=lambda s: None
                ),
            )
        ).run(corpus.dataset, tracer=tracer)
        assert healed.clusters == baseline.clusters
        assert healed.entity_table == baseline.entity_table
        metrics = tracer.report().metrics
        assert metrics["counters"]["supervision.deaths"] == 1
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["supervision.healed_shards"] == 1.0


# --- the supervisor: real worker processes -----------------------------


@pytest.mark.slow
class TestSupervisorProcess:
    def test_killed_worker_restarts_twice_and_heals(self, tmp_path):
        injector = FaultInjector(kill(chunk=0, shard=1, incarnations=(1, 2)))
        policy = SupervisionPolicy(
            max_restarts=2,
            poll_interval=0.02,
            backoff=RetryPolicy(
                max_attempts=1, base_delay=0.01, multiplier=1.0,
                max_delay=0.05,
            ),
        )
        run, supervisor = _supervised_run(
            injector,
            policy=policy,
            backend="process",
            checkpoint=str(tmp_path / "store"),
        )
        assert_identical(run)
        deaths = [e for e in supervisor.events if e.kind == "death"]
        assert len(deaths) == 2
        assert all(e.shard == 1 for e in deaths)
        assert all("exit code" in e.detail for e in deaths)
        assert "exhausted" not in _kinds(supervisor)
        assert any(
            e.kind == "recovered" and e.shard == 1 for e in supervisor.events
        )

    def test_process_supervision_heals_without_a_checkpoint_store(self):
        # Results ride the worker's pipe, so no store is needed to
        # carry them; the restarted shard re-runs from its first chunk.
        injector = FaultInjector(kill(chunk=0, shard=1, incarnations=(1,)))
        run, supervisor = _supervised_run(injector, backend="process")
        assert_identical(run)
        assert _kinds(supervisor, shard=1) == [
            "start", "death", "restart", "recovered",
        ]
        assert [
            e.detail for e in supervisor.events if e.kind == "death"
        ] == ["exit code 137"]

    def test_frozen_heartbeat_is_declared_hung_and_killed(self, tmp_path):
        # The worker stays alive but stops making progress: a slow
        # fault parks it for 60s mid-shard. Token-based staleness (not
        # wall clocks) detects the freeze, kills it, and the restarted
        # incarnation runs clean.
        injector = FaultInjector(
            slow(chunk=1, shard=0, incarnations=(1,), delay=60.0)
        )
        policy = SupervisionPolicy(
            max_restarts=1,
            poll_interval=0.05,
            stale_polls=4,
            backoff=RetryPolicy(
                max_attempts=1, base_delay=0.01, multiplier=1.0,
                max_delay=0.05,
            ),
        )
        run, supervisor = _supervised_run(
            injector,
            policy=policy,
            backend="process",
            checkpoint=str(tmp_path / "store"),
            chunk_size=6,
        )
        assert_identical(run)
        hangs = [e for e in supervisor.events if e.kind == "hang"]
        assert len(hangs) == 1
        assert hangs[0].shard == 0
        assert "heartbeat token" in hangs[0].detail
        assert any(
            e.kind == "recovered" and e.shard == 0 for e in supervisor.events
        )


    def test_a_shard_that_cannot_beat_is_never_declared_hung(self):
        # No ResilienceConfig, so no emitter rides into the worker and
        # its token never moves: only the pipe can say it died.
        policy = SupervisionPolicy(
            max_restarts=0, poll_interval=0.01, stale_polls=3
        )
        supervisor = Supervisor(policy)
        run = sharded_resolve(
            list(_corpus()),
            _blocker(),
            RecordComparator([FieldComparator("name", _sleepy_similarity)]),
            ThresholdClassifier(0.72),
            n_shards=3,
            backend="process",
            supervisor=supervisor,
        )
        assert len(run.shards) == 3
        assert _kinds(supervisor) == ["start", "start", "start"]


def _sleepy_similarity(left: str, right: str) -> float:
    time.sleep(0.02)  # ~0.25 s a shard: many silent polls
    return exact_similarity(left, right)


# --- degraded-mode serving ---------------------------------------------


class TestServeOverload:
    def _degraded_service(self, tmp_path, tracer, shed="dead_letter"):
        clock = ManualClock(start=0.0, tick=0.0)
        injector = FaultInjector(crash(chunk=2), crash(chunk=3))
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            failure="skip",
            clock=clock,
            sleep=clock.advance,
            fault_injector=injector,
        )
        overload = OverloadPolicy(
            max_pending_writes=4,
            admission_retry_after=0.1,
            failure_threshold=2,
            reset_timeout=5.0,
            shed=shed,
        )
        service = _service(
            tmp_path, tracer=tracer, resilience=resilience, overload=overload
        )
        # Two healthy writes (positions 0-1), then two quarantined
        # ones (positions 2-3) trip the breaker.
        assert service.ingest(camera("g1", "s0", "canon eos r5")).entity_id
        assert service.ingest(camera("g2", "s1", "canon eos r5")).entity_id
        assert service.ingest(camera("q1", "s0", "nikon z6")).quarantined
        assert service.ingest(camera("q2", "s1", "sony a7")).quarantined
        return service, clock

    def test_degraded_cycle_sheds_writes_serves_reads_and_rearms(
        self, tmp_path
    ):
        tracer = Tracer()
        service, clock = self._degraded_service(tmp_path, tracer)
        health = service.health()
        assert health["status"] == "degraded"
        assert health["breaker"] == "open"
        assert service.readiness() == {
            "ready": True, "generation": 0, "writes_accepted": False,
        }
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["serve.degraded"] == 1.0
        # Writes shed before the durable append, payload dead-lettered.
        log_before = service.store.log_length
        shed = service.ingest(camera("s1", "s2", "canon eos r5"))
        assert shed.shed and shed.quarantined and shed.position == -1
        assert service.store.log_length == log_before
        overloads = service.dead_letters.by_kind("overload")
        assert len(overloads) == 1
        assert overloads[0].items == ("s1",)
        assert overloads[0].scope == "serve.ingest.shed"
        # Reads keep answering from the last published generation.
        assert service.match(camera("probe", "s9", "canon eos r5"))
        assert len(service.entities()) >= 1
        assert service.generation == 0
        # Automatic re-arm: one successful trial write after the
        # breaker's window closes the circuit.
        clock.advance(5.0)
        trial = service.ingest(camera("t1", "s0", "fuji xt5"))
        assert trial.entity_id and not trial.quarantined
        health = service.health()
        assert health["status"] == "ok"
        assert health["breaker"] == "closed"
        counters = tracer.report().metrics["counters"]
        assert counters["serve.shed"] == 1
        assert counters["serve.shed_degraded"] == 1
        assert counters["serve.breaker.opened"] == 1
        assert counters["serve.breaker.rearmed"] == 1
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["serve.degraded"] == 0.0

    def test_reject_mode_raises_overloaded_with_retry_after(self, tmp_path):
        tracer = Tracer()
        service, clock = self._degraded_service(
            tmp_path, tracer, shed="reject"
        )
        clock.advance(1.5)
        with pytest.raises(Overloaded) as rejected:
            service.ingest(camera("s1", "s2", "canon eos r5"))
        assert rejected.value.retry_after == pytest.approx(3.5)
        assert len(service.dead_letters.by_kind("overload")) == 0

    def test_failed_trial_write_reopens_the_breaker(self, tmp_path):
        tracer = Tracer()
        clock = ManualClock(start=0.0, tick=0.0)
        injector = FaultInjector(crash(chunk=0), crash(chunk=1))
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            failure="skip",
            clock=clock,
            sleep=clock.advance,
            fault_injector=injector,
        )
        service = _service(
            tmp_path,
            tracer=tracer,
            resilience=resilience,
            overload=OverloadPolicy(
                failure_threshold=1, reset_timeout=5.0,
                shed="dead_letter",
            ),
        )
        assert service.ingest(camera("q1", "s0", "nikon z6")).quarantined
        assert service.health()["breaker"] == "open"
        clock.advance(5.0)
        # The half-open trial itself crashes (chunk 1): reopen.
        assert service.ingest(camera("q2", "s1", "sony a7")).quarantined
        assert service.health()["breaker"] == "open"
        counters = tracer.report().metrics["counters"]
        assert counters["serve.breaker.opened"] == 2
        assert "serve.breaker.rearmed" not in counters

    def test_admission_gate_bounds_concurrent_writes(self, tmp_path):
        tracer = Tracer()
        service = _service(
            tmp_path,
            tracer=tracer,
            overload=OverloadPolicy(
                max_pending_writes=2, admission_retry_after=0.25,
                failure_threshold=50,
            ),
        )
        results = []
        # Hold the service lock so admitted writers queue behind it,
        # keeping the gate deterministically full.
        service._lock.acquire()
        try:
            threads = [
                threading.Thread(
                    target=lambda i=i: results.append(
                        service.ingest(camera(f"w{i}", "s0", f"cam {i}"))
                    ),
                )
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for _ in range(500):
                if service._gate.depth == 2:
                    break
                threading.Event().wait(0.01)
            assert service._gate.depth == 2
            assert service.readiness()["writes_accepted"] is False
            with pytest.raises(Overloaded) as rejected:
                service.ingest(camera("w9", "s0", "cam 9"))
            assert rejected.value.retry_after == 0.25
        finally:
            service._lock.release()
        for thread in threads:
            thread.join()
        assert len(results) == 2
        assert all(result.entity_id for result in results)
        assert service._gate.depth == 0
        assert service.readiness()["writes_accepted"] is True
        counters = tracer.report().metrics["counters"]
        assert counters["serve.shed_admission"] == 1

    def test_ingest_deadline_quarantines_as_deadline(self, tmp_path):
        tracer = Tracer()
        clock = ManualClock(start=0.0, tick=0.0)
        injector = FaultInjector(crash())
        resilience = ResilienceConfig(
            retry=RetryPolicy(
                max_attempts=5, base_delay=1.0, multiplier=1.0
            ),
            failure="skip",
            clock=clock,
            sleep=clock.advance,
            fault_injector=injector,
        )
        service = _service(tmp_path, tracer=tracer, resilience=resilience)
        result = service.ingest(camera("d1", "s0", "cam"), deadline=2.5)
        assert result.quarantined
        entry = service.dead_letters.entries[-1]
        assert entry.kind == "deadline"
        assert entry.error_type == "DeadlineExceededError"
        assert entry.attempts == 3  # attempts that actually ran
        counters = tracer.report().metrics["counters"]
        assert counters["serve.deadline_exceeded"] == 1

    def test_ingest_deadline_raises_under_retry_policy(self, tmp_path):
        clock = ManualClock(start=0.0, tick=0.0)
        injector = FaultInjector(crash())
        resilience = ResilienceConfig(
            retry=RetryPolicy(
                max_attempts=5, base_delay=1.0, multiplier=1.0
            ),
            failure="retry",
            clock=clock,
            sleep=clock.advance,
            fault_injector=injector,
        )
        service = _service(tmp_path, resilience=resilience)
        with pytest.raises(DeadlineExceededError):
            service.ingest(camera("d1", "s0", "cam"), deadline=1.5)

    def test_default_deadline_comes_from_the_policy(self, tmp_path):
        clock = ManualClock(start=0.0, tick=0.0)
        injector = FaultInjector(crash())
        resilience = ResilienceConfig(
            retry=RetryPolicy(
                max_attempts=5, base_delay=1.0, multiplier=1.0
            ),
            failure="skip",
            deadline=2.5,
            clock=clock,
            sleep=clock.advance,
            fault_injector=injector,
        )
        service = _service(
            tmp_path,
            resilience=resilience,
            overload=OverloadPolicy(failure_threshold=50),
        )
        result = service.ingest(camera("d1", "s0", "cam"))
        assert result.quarantined
        assert service.dead_letters.entries[-1].kind == "deadline"

    def test_a_deadline_means_one_thing(self, tmp_path):
        """The engine under the config's deadline, the service under the
        config's and under a per-call one: every attempt runs on the
        one executor, so all three stop at the same point."""

        def crashing(deadline=None):
            clock = ManualClock(start=0.0, tick=0.0)
            return ResilienceConfig(
                retry=RetryPolicy(
                    max_attempts=5, base_delay=1.0, multiplier=1.0
                ),
                failure="skip",
                deadline=deadline,
                clock=clock,
                sleep=clock.advance,
                fault_injector=FaultInjector(crash()),
            )

        def row(config, dead_letters):
            return (
                len(config.fault_injector.history),
                [(entry.kind, entry.attempts) for entry in dead_letters],
                config.clock.now(),
            )

        engine_config = crashing(deadline=2.5)
        engine = ParallelComparisonEngine(
            default_product_comparator(), n_workers=1, resilience=engine_config
        )
        records = [camera(rid, "s0", "canon eos") for rid in "abc"]
        engine.match_pairs(
            records, [("a", "b"), ("a", "c")], ThresholdClassifier(0.72)
        )
        config_service = crashing(deadline=2.5)
        service = _service(tmp_path / "config", resilience=config_service)
        service.ingest(camera("d1", "s0", "cam"))
        call_config = crashing()
        per_call = _service(tmp_path / "call", resilience=call_config)
        per_call.ingest(camera("d1", "s0", "cam"), deadline=2.5)
        assert [
            row(engine_config, engine.dead_letters),
            row(config_service, service.dead_letters),
            row(call_config, per_call.dead_letters),
        ] == [(3, [("deadline", 3)], 3.0)] * 3

    @pytest.mark.parametrize(
        "fault",
        ["crash_once", "crash_always", "hang", "garbage_once", "deadline"],
    )
    @pytest.mark.parametrize("failure", ["fail", "retry", "skip"])
    def test_ingest_fails_as_the_engine_does(self, tmp_path, failure, fault):
        """``service.ingest`` at log position p and an engine one-pair
        chunk at index p, under equal configs: the same raised type,
        dead letter and final clock."""
        position = 2

        def config():
            clock = ManualClock(start=0.0, tick=0.0)
            spec, timeout, deadline = {
                "crash_once": (crash(chunk=position, attempts=1), None, None),
                "crash_always": (crash(chunk=position), None, None),
                "hang": (hang(chunk=position), 1.5, None),
                "garbage_once": (
                    garbage(chunk=position, attempts=1), None, None
                ),
                "deadline": (crash(chunk=position), None, 2.5),
            }[fault]
            return ResilienceConfig(
                retry=RetryPolicy(
                    max_attempts=5, base_delay=1.0, multiplier=1.0
                ),
                failure=failure,
                timeout=timeout,
                deadline=deadline,
                clock=clock,
                sleep=clock.advance,
                fault_injector=FaultInjector(spec),
            )

        def outcome(config, call, dead_letters):
            raised = None
            try:
                call()
            except Exception as error:  # noqa: BLE001 - compared below
                raised = type(error)
            assert config.fault_injector.history
            letters = [
                (e.kind, e.attempts, e.error_type, e.chunk_id)
                for e in dead_letters()
            ]
            return raised, letters, config.clock.now()

        engine_config = config()
        engine = ParallelComparisonEngine(
            default_product_comparator(),
            chunk_size=1,
            resilience=engine_config,
        )
        records = [
            camera(f"r{i}", f"s{i}", "canon eos") for i in range(position + 2)
        ]
        pairs = [("r0", f"r{i}") for i in range(1, position + 2)]
        engine_side = outcome(
            engine_config,
            lambda: engine.match_pairs(
                records, pairs, ThresholdClassifier(0.72)
            ),
            lambda: engine.dead_letters or (),
        )

        service_config = config()
        service = _service(tmp_path, resilience=service_config)
        for i in range(position):
            service.ingest(camera(f"h{i}", "s0", f"healthy {i}"))
        service_side = outcome(
            service_config,
            lambda: service.ingest(camera("x", "s1", "canon eos")),
            lambda: service.dead_letters,
        )
        assert service_side == engine_side

    def test_refresh_deadline_propagates_into_the_engine(self, tmp_path):
        tracer = Tracer()
        clock = ManualClock(start=0.0, tick=1.0)  # time races forward
        service = _service(
            tmp_path,
            tracer=tracer,
            resilience=ResilienceConfig(failure="fail", clock=clock),
            overload=OverloadPolicy(failure_threshold=50),
        )
        service.ingest(camera("a", "s0", "canon eos"))
        service.ingest(camera("b", "s1", "canon eos"))
        with pytest.raises(DeadlineExceededError):
            service.refresh(deadline=0.5)
        counters = tracer.report().metrics["counters"]
        assert counters["serve.refresh_failures"] == 1
        assert service.health()["last_refresh_error"].startswith(
            "DeadlineExceededError"
        )
        # Without the deadline the same refresh completes.
        assert service.refresh() == 1
        assert service.health()["last_refresh_error"] is None


# --- the ISSUE acceptance drill ----------------------------------------


class TestChaosAcceptance:
    def test_double_kill_and_ingest_flood_need_no_operator(self, tmp_path):
        # Part 1 — a supervised sharded run whose worker dies twice
        # completes on its own, byte-identical to the unfaulted run.
        tracer = Tracer()
        injector = FaultInjector(
            flap(chunk=0, incarnations=(1, 2), max_fires=2)
        )
        run, supervisor = _supervised_run(
            injector, tracer=tracer, checkpoint=str(tmp_path / "store")
        )
        assert_identical(run)
        assert _kinds(supervisor).count("death") == 2
        assert "exhausted" not in _kinds(supervisor)

        # Part 2 — the serving side floods past the admission limit
        # while degraded: reads answer throughout, every shed write is
        # accounted for, and the service re-arms itself.
        serve_tracer = Tracer()
        clock = ManualClock(start=0.0, tick=0.0)
        serve_injector = FaultInjector(crash(chunk=2), crash(chunk=3))
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            failure="skip",
            clock=clock,
            sleep=clock.advance,
            fault_injector=serve_injector,
        )
        service = _service(
            tmp_path / "serve",
            tracer=serve_tracer,
            resilience=resilience,
            overload=OverloadPolicy(
                max_pending_writes=2,
                admission_retry_after=0.1,
                failure_threshold=2,
                reset_timeout=4.0,
                shed="dead_letter",
            ),
        )
        service.ingest(camera("g1", "s0", "canon eos r5"))
        service.ingest(camera("g2", "s1", "canon eos r5"))
        service.ingest(camera("q1", "s0", "nikon z6"))
        service.ingest(camera("q2", "s1", "sony a7"))
        assert service.health()["status"] == "degraded"

        # Degraded shed (breaker open) plus an admission flood.
        shed_results = []
        assert service.ingest(camera("f0", "s2", "leica q3")).shed
        service._lock.acquire()
        try:
            threads = [
                threading.Thread(
                    target=lambda i=i: shed_results.append(
                        service.ingest(camera(f"f{i}", "s2", "leica q3"))
                    ),
                )
                for i in (1, 2)
            ]
            for thread in threads:
                thread.start()
            for _ in range(500):
                if service._gate.depth == 2:
                    break
                threading.Event().wait(0.01)
            with pytest.raises(Overloaded):
                service.ingest(camera("f3", "s2", "leica q3"))
            # Reads answered while degraded AND flooded.
            assert service.match(camera("probe", "s9", "canon eos r5"))
            assert service.generation == 0
        finally:
            service._lock.release()
        for thread in threads:
            thread.join()
        assert all(result.shed for result in shed_results)

        # Accounting: every shed write is in the dead-letter log or
        # the admission counter; nothing hit the durable log.
        assert len(service.dead_letters.by_kind("overload")) == 3
        counters = serve_tracer.report().metrics["counters"]
        assert counters["serve.shed"] == 4  # 3 degraded + 1 admission
        assert counters["serve.shed_degraded"] == 3
        assert counters["serve.shed_admission"] == 1
        assert service.store.log_length == 4

        # Recovery without intervention.
        clock.advance(4.0)
        assert service.ingest(camera("t1", "s0", "fuji xt5")).entity_id
        assert service.health()["status"] == "ok"
