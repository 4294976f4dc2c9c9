"""Self-healing supervision for the sharded pipeline runtime.

The sharded runtime (:mod:`repro.dist.runtime`) already makes shard
work *resumable*: workers checkpoint engine chunks into their own
``dist.shard.{k}.engine`` namespace and completed shards persist their
results, so an operator who notices a dead worker can re-run the job
and lose nothing. The :class:`Supervisor` removes the operator from
that sentence. It watches each shard worker two ways —

- **exit codes**: a worker that exits non-zero (or exits zero without
  having published its result) died;
- **heartbeat tokens**: a live process whose
  ``(incarnation, seq)`` heartbeat token (see
  :mod:`repro.supervision.heartbeat`) is unchanged across
  ``stale_polls`` consecutive polls is hung, and gets killed;

— and restarts the victim from its own checkpoint namespace under a
bounded, backoff-governed restart budget. Because restarted workers
replay completed chunks from the ledger and the engine is
deterministic, a supervised run's final output is **byte-identical**
to an unfaulted run. When a shard dies more than
``SupervisionPolicy.max_restarts`` times the supervisor stops healing
and escalates with :class:`SupervisionExhaustedError` — a crash loop
is a bug report, not something to retry forever.

Every decision is recorded as a :class:`SupervisionEvent` (the
``supervisor.events`` timeline, exportable to JSON for CI artifacts)
and mirrored into ``supervision.*`` counters on the tracer.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import time
from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError, ReproError
from repro.obs import NULL_TRACER
from repro.resilience.policy import InjectedWorkerDeath, RetryPolicy
from repro.supervision.heartbeat import (
    HeartbeatEmitter,
    progress_token,
    read_heartbeat,
)

__all__ = [
    "SUPERVISION_EVENT_KINDS",
    "SupervisionEvent",
    "SupervisionExhaustedError",
    "SupervisionPolicy",
    "Supervisor",
]

SUPERVISION_EVENT_KINDS: tuple[str, ...] = (
    "start",
    "death",
    "hang",
    "restart",
    "recovered",
    "exhausted",
)


class SupervisionExhaustedError(ReproError):
    """A shard kept dying after every restart the policy allowed."""

    def __init__(
        self, shard: int, restarts: int, cause: BaseException | None = None
    ) -> None:
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"shard {shard} died {restarts + 1} time(s); restart budget "
            f"of {restarts} exhausted{detail}"
        )
        self.shard = shard
        self.restarts = restarts
        self.cause = cause


@dataclass(frozen=True)
class SupervisionEvent:
    """One entry in the supervisor's decision timeline.

    ``kind`` is one of :data:`SUPERVISION_EVENT_KINDS`;
    ``incarnation`` is which launch of the shard the event concerns
    (1 = first launch, each restart increments it).
    """

    kind: str
    shard: int
    incarnation: int
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "shard": self.shard,
            "incarnation": self.incarnation,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SupervisionPolicy:
    """How aggressively the supervisor heals — and when it gives up.

    ``max_restarts`` is the per-shard restart budget (0 = never
    restart, escalate on the first death). ``backoff`` paces restarts
    so a crash-looping shard doesn't spin the host. ``poll_interval``
    is the monitoring cadence for process workers; ``stale_polls``
    (optional) turns on heartbeat supervision: a worker whose token is
    unchanged for that many consecutive polls is declared hung and
    killed. ``heartbeat_dir`` pins where heartbeat files live (a temp
    dir otherwise). ``sleep`` is the injectable restart-backoff sleep
    (inline backend and tests); real process polling always uses real
    time.
    """

    max_restarts: int = 2
    backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=1, base_delay=0.05, multiplier=2.0, max_delay=1.0
        )
    )
    poll_interval: float = 0.02
    stale_polls: int | None = None
    heartbeat_dir: str | None = None
    sleep: "object | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_restarts, int) or self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be an integer >= 0, "
                f"got {self.max_restarts!r}"
            )
        if (
            not isinstance(self.poll_interval, (int, float))
            or self.poll_interval <= 0
        ):
            raise ConfigurationError(
                f"poll_interval must be > 0, got {self.poll_interval!r}"
            )
        if self.stale_polls is not None and (
            not isinstance(self.stale_polls, int) or self.stale_polls < 1
        ):
            raise ConfigurationError(
                f"stale_polls must be an integer >= 1, "
                f"got {self.stale_polls!r}"
            )


def _supervised_worker(
    task, incarnation: int, store_root: str, durable: bool, result_key: str
) -> None:
    """Process-worker entry point (module-level: must be picklable).

    Publishes the shard result into the run store under ``result_key``
    *before* exiting zero — the supervisor treats "exited zero, no
    result" as a death, so the exit code alone never vouches for work
    that didn't land. An :class:`InjectedWorkerDeath` escaping the
    engine becomes a real non-zero exit, exactly like a SIGKILL.
    """
    from repro.dist.runtime import _run_shard
    from repro.recovery import RunStore
    from repro.resilience.testing import KILL_EXIT_CODE

    injector = getattr(task.resilience, "fault_injector", None)
    if injector is not None and hasattr(injector, "bind_incarnation"):
        injector.bind_incarnation(incarnation)
    try:
        result = _run_shard(task)
    except InjectedWorkerDeath:
        os._exit(KILL_EXIT_CODE)
    RunStore(store_root, durable=durable).save(result_key, {"result": result})


@dataclass
class _Supervised:
    """Coordinator-side state for one running shard worker."""

    shard: int
    proc: "object"
    incarnation: int
    heartbeat_path: str
    result_key: str
    token: tuple[int, int] = (0, 0)
    stale: int = 0


class Supervisor:
    """Run shard tasks to completion, restarting the ones that die.

    Plugs into :func:`repro.dist.runtime.sharded_resolve` via its
    ``supervisor=`` argument; the runtime hands over exactly the shard
    tasks that could not be resumed from the store. ``events`` holds
    the full decision timeline after (or during) a run.
    """

    def __init__(self, policy: SupervisionPolicy | None = None, tracer=None):
        self._policy = policy if policy is not None else SupervisionPolicy()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.events: list[SupervisionEvent] = []

    @property
    def policy(self) -> SupervisionPolicy:
        return self._policy

    def _event(
        self, kind: str, shard: int, incarnation: int, detail: str = ""
    ) -> None:
        self.events.append(SupervisionEvent(kind, shard, incarnation, detail))
        self._tracer.counter(f"supervision.{kind}s").inc()

    def _sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        sleep = self._policy.sleep if self._policy.sleep is not None else time.sleep
        sleep(seconds)

    def _restart_delay(self, shard: int, restarts: int) -> float:
        return self._policy.backoff.delay(restarts, salt=f"supervise.{shard}")

    # --- inline backend ----------------------------------------------

    def _execute_inline(self, tasks: dict, persist) -> dict:
        """Deterministic single-process supervision (chaos tests).

        ``flap`` faults surface here as :class:`InjectedWorkerDeath`
        escaping the engine — a ``BaseException``, so it sails past the
        resilient executor's recovery exactly as a SIGKILL would kill a
        real worker mid-chunk.
        """
        from repro.dist.runtime import _run_shard

        results: dict = {}
        for shard in sorted(tasks):
            task = tasks[shard]
            restarts = 0
            self._event("start", shard, 1)
            while True:
                incarnation = restarts + 1
                injector = getattr(task.resilience, "fault_injector", None)
                if injector is not None and hasattr(
                    injector, "bind_incarnation"
                ):
                    injector.bind_incarnation(incarnation)
                try:
                    result = _run_shard(task)
                except InjectedWorkerDeath as death:
                    self._event("death", shard, incarnation, str(death))
                    if restarts >= self._policy.max_restarts:
                        self._event("exhausted", shard, incarnation)
                        raise SupervisionExhaustedError(
                            shard, restarts, death
                        ) from death
                    restarts += 1
                    self._sleep(self._restart_delay(shard, restarts))
                    self._event("restart", shard, restarts + 1)
                    continue
                results[shard] = result
                persist(shard, result)
                if restarts:
                    self._event("recovered", shard, incarnation)
                break
        return results

    # --- process backend ---------------------------------------------

    def _launch(
        self, ctx, task, shard: int, incarnation: int, hb_dir: str, binding
    ) -> _Supervised:
        heartbeat_path = os.path.join(hb_dir, f"shard.{shard}.heartbeat")
        result_key = f"{binding.prefix}.supervised.{shard}.result"
        run_task = task
        if task.resilience is not None:
            emitter = HeartbeatEmitter(heartbeat_path, incarnation)
            run_task = dataclasses.replace(
                task,
                resilience=dataclasses.replace(
                    task.resilience, heartbeat=emitter
                ),
            )
        proc = ctx.Process(
            target=_supervised_worker,
            args=(
                run_task,
                incarnation,
                binding.store_root,
                binding.durable,
                result_key,
            ),
        )
        proc.start()
        return _Supervised(
            shard=shard,
            proc=proc,
            incarnation=incarnation,
            heartbeat_path=heartbeat_path,
            result_key=result_key,
        )

    def _execute_process(self, tasks: dict, persist, binding) -> dict:
        """Supervise real OS worker processes.

        Needs the checkpoint store twice over: workers publish results
        through it (exit codes can't carry a :class:`ShardResult`) and
        restarts are only *cheap* because engine chunks resume from it.
        """
        import multiprocessing

        from repro.recovery import RunStore

        if binding.store_root is None:
            raise ConfigurationError(
                "process-backend supervision requires a checkpoint store "
                "(pass checkpoint=... to the sharded run): workers publish "
                "results and resume restarts through it"
            )
        # Forked workers where the platform has them (same launch
        # method as the runtime's ProcessPoolExecutor, and each fork
        # snapshots a pristine injector state from the coordinator);
        # spawn elsewhere.
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context("spawn")
        store = RunStore(binding.store_root, durable=binding.durable)
        policy = self._policy
        results: dict = {}
        restarts = {shard: 0 for shard in tasks}
        queue = sorted(tasks)
        waiting: list[tuple[float, int]] = []  # (ready_at, shard)
        running: dict[int, _Supervised] = {}
        max_workers = max(1, min(len(queue), os.cpu_count() or 1))
        temp: tempfile.TemporaryDirectory | None = None
        hb_dir = policy.heartbeat_dir
        if hb_dir is None:
            temp = tempfile.TemporaryDirectory(prefix="repro-supervise-")
            hb_dir = temp.name

        def schedule_restart(
            state: _Supervised, kind: str, detail: str
        ) -> None:
            shard = state.shard
            self._event(kind, shard, state.incarnation, detail)
            if restarts[shard] >= policy.max_restarts:
                self._event("exhausted", shard, state.incarnation)
                for other in running.values():
                    other.proc.kill()
                    other.proc.join()
                raise SupervisionExhaustedError(shard, restarts[shard])
            restarts[shard] += 1
            delay = self._restart_delay(shard, restarts[shard])
            waiting.append((time.monotonic() + delay, shard))

        def reap(state: _Supervised) -> None:
            shard = state.shard
            code = state.proc.exitcode
            state.proc.join()
            del running[shard]
            if code == 0:
                payload = store.load(state.result_key)
                if payload is not None and "result" in payload:
                    results[shard] = payload["result"]
                    persist(shard, payload["result"])
                    if restarts[shard]:
                        self._event("recovered", shard, state.incarnation)
                    return
                schedule_restart(
                    state, "death", "exited 0 without publishing a result"
                )
                return
            schedule_restart(state, "death", f"exit code {code}")

        try:
            while len(results) < len(tasks):
                now = time.monotonic()
                due = [entry for entry in waiting if entry[0] <= now]
                for entry in due:
                    waiting.remove(entry)
                    queue.append(entry[1])
                queue.sort()
                while queue and len(running) < max_workers:
                    shard = queue.pop(0)
                    incarnation = restarts[shard] + 1
                    state = self._launch(
                        ctx, tasks[shard], shard, incarnation, hb_dir, binding
                    )
                    running[shard] = state
                    if incarnation == 1:
                        self._event("start", shard, incarnation)
                    else:
                        self._event("restart", shard, incarnation)
                if not running:
                    if not waiting:  # pragma: no cover - defensive
                        raise ConfigurationError(
                            "supervisor stalled with no running or "
                            "waiting shards"
                        )
                    time.sleep(
                        max(
                            policy.poll_interval / 4,
                            min(entry[0] for entry in waiting) - now,
                        )
                    )
                    continue
                time.sleep(policy.poll_interval)
                for shard in sorted(running):
                    state = running[shard]
                    if state.proc.exitcode is not None:
                        reap(state)
                        continue
                    if policy.stale_polls is None:
                        continue
                    token = progress_token(
                        read_heartbeat(state.heartbeat_path)
                    )
                    if token > state.token:
                        state.token = token
                        state.stale = 0
                        continue
                    state.stale += 1
                    if state.stale >= policy.stale_polls:
                        state.proc.kill()
                        state.proc.join()
                        del running[shard]
                        schedule_restart(
                            state,
                            "hang",
                            f"heartbeat token {state.token} unchanged "
                            f"for {state.stale} polls",
                        )
        finally:
            if temp is not None:
                temp.cleanup()
        return results

    # --- entry point --------------------------------------------------

    def execute(self, tasks: dict, persist, *, backend: str, binding) -> dict:
        """Run ``tasks`` (shard → task) under supervision.

        Returns shard → result for every task; raises
        :class:`SupervisionExhaustedError` when any shard exceeds the
        restart budget. ``persist`` is the runtime's per-shard
        checkpointing callback, invoked exactly once per completed
        shard (so a run killed *between* shards still resumes).
        """
        if not tasks:
            return {}
        if backend == "inline":
            return self._execute_inline(tasks, persist)
        return self._execute_process(tasks, persist, binding)
