"""repro.resilience — fault-tolerant execution for every parallel path.

Big-data integration jobs run over many unreliable sources and many
unreliable workers; partial failure is the norm. This package makes
the stack degrade gracefully instead of aborting:

- :class:`RetryPolicy` — exponential backoff with a cap and
  deterministic jitter, timed through an injectable clock/sleep.
- ``ResilienceConfig.failure`` — ``"fail"`` (abort fast), ``"retry"``
  (retry, bisect, then raise on the isolated poison item), ``"skip"``
  (quarantine and complete with partial results).
- :class:`ResilienceConfig` — the one object threaded through
  :class:`~repro.linkage.engine.ParallelComparisonEngine`,
  :func:`~repro.linkage.resolve` (every execution mode, including
  :func:`~repro.dist.runtime.sharded_resolve`'s per-shard engines), and
  :class:`~repro.core.pipeline.PipelineConfig`.
- :class:`ResilientChunkExecutor` — the shared retry → bisect →
  quarantine loop, emitting ``resilience.*`` counters and heartbeat
  gauges into :mod:`repro.obs`.
- :class:`DeadLetterLog` — quarantined work carried on run results and
  serialized to JSON for CI artifacts.
- :class:`WorkerPool` / :class:`WorkerDied` — the one place a worker
  process is created, watched, killed and reaped
  (:mod:`repro.resilience.workers`); the engine's chunk look-ahead and
  the supervisor's shard loop both submit to it.
- :mod:`repro.resilience.testing` — the deterministic fault-injection
  harness (:class:`~repro.resilience.testing.FaultInjector`) for
  chaos-testing this library and systems built on it.
"""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "deadletter": "DeadLetterEntry DeadLetterLog",
        "executor": "ResilientChunkExecutor ResilientOutcome",
        "policy": (
            "ChunkExecutionError ChunkResultInvalid ChunkTimeoutError "
            "DeadlineExceededError InjectedCrash InjectedHang "
            "InjectedWorkerDeath PoisonPairError ResilienceConfig "
            "ResilienceError RetryPolicy"
        ),
        "workers": "WorkerDied WorkerPool",
    },
)
