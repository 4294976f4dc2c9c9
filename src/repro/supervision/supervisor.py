"""Self-healing supervision for the sharded pipeline runtime.

The sharded runtime (:mod:`repro.dist.runtime`) already makes shard
work *resumable*: workers checkpoint engine chunks into their own
``dist.shard.{k}.engine`` namespace and completed shards persist their
results, so an operator who notices a dead worker can re-run the job
and lose nothing. The :class:`Supervisor` removes the operator from
that sentence. Shards run as jobs on the one
:class:`~repro.resilience.workers.WorkerPool` (its ``n_workers=0``
form for the inline backend) — the mechanism: launch, pipe, kill,
reap. The supervisor is the policy over it, watching each shard two
ways —

- **the pipe**: a job that ends in
  :class:`~repro.resilience.workers.WorkerDied` (an exit, a SIGKILL,
  an injected death) died;
- **heartbeat tokens**: a live worker whose
  ``(incarnation, seq)`` heartbeat token (see
  :mod:`repro.supervision.heartbeat`) is unchanged across
  ``stale_polls`` consecutive silent polls is hung, and gets killed;

— and restarts the victim under a bounded, backoff-governed restart
budget. An *exception* from a shard is its result, re-raised at once:
only deaths and hangs are restarted. Because the engine is
deterministic, and a restarted worker replays completed chunks from
its checkpoint namespace (or, with no store, re-runs the shard from
its first chunk), a supervised run's final output is
**byte-identical** to an unfaulted run. When a shard dies more than
``SupervisionPolicy.max_restarts`` times the supervisor stops healing
and escalates with :class:`SupervisionExhaustedError` — a crash loop
is a bug report, not something to retry forever.

Every decision is recorded as a :class:`SupervisionEvent` (the
``supervisor.events`` timeline, exportable to JSON for CI artifacts)
and mirrored into ``supervision.*`` counters on the tracer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError, ReproError
from repro.obs import NULL_TRACER
from repro.resilience.policy import RetryPolicy
from repro.resilience.workers import WorkerDied, WorkerPool
from repro.supervision.heartbeat import (
    HeartbeatEmitter,
    progress_token,
    read_heartbeat,
)

__all__ = [
    "SupervisionEvent",
    "SupervisionExhaustedError",
    "SupervisionPolicy",
    "Supervisor",
]


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

    ``kind`` is one of ``"start"``, ``"death"``, ``"hang"``,
    ``"restart"``, ``"recovered"`` and ``"exhausted"``;
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
    is how long one poll waits for a worker to answer; ``stale_polls``
    (optional) turns on heartbeat supervision: a worker whose token is
    unchanged for that many consecutive polls in which no worker
    answered is declared hung and killed. Workers beat when either
    ``stale_polls`` or ``heartbeat_dir`` is set; ``heartbeat_dir`` pins
    where the files live (a temp dir otherwise). ``sleep`` is the
    injectable restart-backoff sleep (tests pace restarts without
    waiting); polling always uses real time.
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


@dataclass
class _Supervised:
    """Coordinator-side state for one launched shard."""

    shard: int
    incarnation: int
    heartbeat_path: str | None
    token: tuple[int, int] = (0, 0)
    stale: int = 0


class Supervisor:
    """Run shard tasks to completion, restarting the ones that die.

    Every sharded run goes through :meth:`execute` —
    :func:`repro.dist.runtime.sharded_resolve` without a ``supervisor=``
    uses one with a restart budget of zero. The runtime hands over
    exactly the shard tasks that could not be resumed from the store.
    ``events`` holds the full decision timeline after (or during) a run.
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

    def execute(self, tasks: dict, persist, *, backend: str) -> dict:
        """Run ``tasks`` (shard → task) under the restart budget.

        Returns shard → result for every task: one shard at a time in
        this process (``"inline"``) or one per core (``"process"``). A
        shard whose worker died or hung is relaunched, after the
        policy's backoff and ahead of shards not yet started, until
        ``max_restarts`` are spent — then
        :class:`SupervisionExhaustedError`; an exception a shard raised
        is re-raised as itself. ``persist`` is the runtime's per-shard
        checkpointing callback, invoked once per completed shard (so a
        run killed *between* shards still resumes).
        """
        from repro.dist.runtime import _run_shard

        policy = self._policy
        n_workers = 0
        if backend != "inline":
            n_workers = min(len(tasks), os.cpu_count() or 1)
        slots = max(1, n_workers)  # inline: one shard at a time
        results: dict = {}
        restarts = dict.fromkeys(tasks, 0)
        queue = deque(sorted(tasks))
        running: dict[int, _Supervised] = {}  # by pool job

        def lost(state: _Supervised, kind: str, died: WorkerDied) -> None:
            shard = state.shard
            self._event(kind, shard, state.incarnation, str(died))
            if restarts[shard] >= policy.max_restarts:
                self._event("exhausted", shard, state.incarnation)
                cause = died.__cause__ or died
                raise SupervisionExhaustedError(
                    shard, restarts[shard], cause
                ) from cause
            restarts[shard] += 1
            delay = policy.backoff.delay(
                restarts[shard], salt=f"supervise.{shard}"
            )
            if delay > 0:
                (policy.sleep or time.sleep)(delay)
            queue.appendleft(shard)

        with contextlib.ExitStack() as stack:
            hb_dir = policy.heartbeat_dir
            if hb_dir is None and policy.stale_polls is not None:
                hb_dir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-supervise-")
                )
            # Closing the pool kills what is still running: the other
            # shards of an exhausted or failed run are not awaited.
            pool = stack.enter_context(
                contextlib.closing(WorkerPool(n_workers))
            )
            while queue or running:
                while queue and len(running) < slots:
                    shard = queue.popleft()
                    incarnation = restarts[shard] + 1
                    self._event(
                        "start" if incarnation == 1 else "restart",
                        shard,
                        incarnation,
                    )
                    task, heartbeat_path = _with_heartbeat(
                        tasks[shard], hb_dir, incarnation
                    )
                    job = pool.submit(_run_shard, task, incarnation)
                    running[job] = _Supervised(
                        shard, incarnation, heartbeat_path
                    )
                answered = pool.poll(policy.poll_interval)
                for job in answered:
                    state = running.pop(job)
                    try:
                        result = pool.result(job)
                    except WorkerDied as died:
                        lost(state, "death", died)
                        continue
                    results[state.shard] = result
                    persist(state.shard, result)
                    if restarts[state.shard]:
                        self._event(
                            "recovered", state.shard, state.incarnation
                        )
                if answered or policy.stale_polls is None:
                    continue
                for job, state in sorted(running.items()):
                    if state.heartbeat_path is None:
                        continue  # no beats to go stale: the pipe only
                    token = progress_token(
                        read_heartbeat(state.heartbeat_path)
                    )
                    if token > state.token:
                        state.token, state.stale = token, 0
                        continue
                    state.stale += 1
                    if state.stale >= policy.stale_polls:
                        pool.kill(job)
                        del running[job]
                        lost(
                            state,
                            "hang",
                            WorkerDied(
                                f"heartbeat token {state.token} unchanged "
                                f"for {state.stale} polls"
                            ),
                        )
        return results


def _with_heartbeat(task, hb_dir: str | None, incarnation: int):
    """``task`` beating into ``hb_dir`` (and the file it beats), when
    there is a directory to beat into and an executor config to carry
    the emitter; otherwise the task as it is."""
    if hb_dir is None or task.resilience is None:
        return task, None
    path = os.path.join(hb_dir, f"shard.{task.shard}.heartbeat")
    beating = dataclasses.replace(
        task.resilience, heartbeat=HeartbeatEmitter(path, incarnation)
    )
    return dataclasses.replace(task, resilience=beating), path
