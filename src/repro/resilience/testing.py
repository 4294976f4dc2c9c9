"""Deterministic chaos: the fault-injection harness.

A :class:`FaultInjector` is the test double the resilient executor
consults around every chunk attempt. It is configured with declarative
:class:`FaultSpec` rules — *make chunk N crash on attempt K*, *hang any
chunk containing this pair*, *return garbage once* — and fires them
with no randomness whatsoever: the same workload plus the same specs
produces the same faults, attempt for attempt. Pair it with a
:class:`~repro.obs.clock.ManualClock` (and ``sleep=clock.advance``) in
the :class:`~repro.resilience.policy.ResilienceConfig` and the entire
failure→backoff→recovery timeline becomes exactly assertable.

Fault kinds
-----------

- ``"crash"``   — raises :class:`~repro.resilience.policy.InjectedCrash`
  before the attempt dispatches (stands in for a dead worker process).
- ``"hang"``    — raises :class:`~repro.resilience.policy.InjectedHang`;
  the executor charges the attempt its full timeout on the injected
  clock and records a timeout failure (a worker that never answers).
- ``"garbage"`` — replaces the attempt's result with ``payload``
  (default ``None``), exercising result-shape validation (a corrupted
  response).
- ``"kill"``    — terminates the *driver process itself* via
  ``os._exit(137)``: no stack unwinding, no ``finally`` blocks, no
  atexit hooks — the faithful model of an OOM kill, a ``kill -9``, or
  a node loss mid-run. Only checkpointing
  (:mod:`repro.recovery`) survives it; pair with a
  :class:`~repro.recovery.RunStore` and resume the run in a fresh
  process.
- ``"slow"``    — injects ``delay`` seconds of latency (through the
  injector's ``sleeper``, real by default) before the attempt runs: a
  degraded-but-alive worker, the input hang detectors must *not*
  mistake for a dead one.
- ``"flap"``    — raises
  :class:`~repro.resilience.policy.InjectedWorkerDeath`, a
  ``BaseException`` the retry machinery cannot absorb: the worker is
  dead and only a supervisor restart (or, in a real worker process, a
  hard exit 137) handles it. Target specific restarts with
  ``incarnations`` — ``flap(shard=1, incarnations=(1, 2))`` kills the
  shard's first two incarnations and lets the third run clean, which
  is how repeated-crash-then-recover timelines stay deterministic.

:func:`crash`, :func:`kill` and :func:`flap` build the rules of their
kind; any kind is ``FaultSpec(kind, ...)``.

Targeting composes: ``chunk`` matches the top-level chunk index,
``item`` matches any chunk *containing* that item (which is how a
poison pair keeps failing through bisection until it is isolated),
``attempts`` limits firing to specific 1-based attempt numbers (omit it
for a persistent fault, ``attempts=1`` for a transient one), and
``incarnations`` limits firing to specific 1-based worker incarnations
(bound via :meth:`FaultInjector.bind_incarnation` by the supervisor on
every launch and restart).

This module ships with the library — not just its test suite — so
downstream users can chaos-test their own deployments the same way::

    from repro.obs import ManualClock
    from repro.resilience import ResilienceConfig, RetryPolicy
    from repro.resilience.testing import FaultInjector, crash

    clock = ManualClock(tick=0.0)
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay=1.0),
        failure="retry",
        clock=clock,
        sleep=clock.advance,
        fault_injector=FaultInjector(crash(chunk=0, attempts=1)),
    )
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Iterable

from repro.core.errors import ConfigurationError
from repro.resilience.policy import (
    InjectedCrash,
    InjectedHang,
    InjectedWorkerDeath,
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "KILL_EXIT_CODE",
    "crash",
    "flap",
    "kill",
]

FAULT_KINDS: tuple[str, ...] = (
    "crash", "hang", "garbage", "kill", "slow", "flap",
)

#: Exit status used by ``kind="kill"`` — the conventional status of a
#: process terminated by SIGKILL (128 + 9), so resume harnesses can
#: distinguish an injected kill from an ordinary crash.
KILL_EXIT_CODE = 137


def _normalize_attempts(attempts) -> frozenset | None:
    if attempts is None:
        return None
    if isinstance(attempts, int):
        return frozenset((attempts,))
    return frozenset(attempts)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault rule.

    ``chunk`` / ``item`` / ``attempts`` / ``shard`` / ``incarnations``
    are conjunctive filters; a ``None`` filter matches everything.
    ``shard`` restricts the rule to the worker bound to that shard id
    via :meth:`FaultInjector.bind_shard` (the sharded runtime binds
    each worker before it runs its chunks); an unbound injector never
    fires shard-targeted rules. ``incarnations`` restricts the rule to
    specific 1-based worker incarnations (bound via
    :meth:`FaultInjector.bind_incarnation`; an unbound injector is
    incarnation 1). ``max_fires`` caps how many times the rule fires
    in total (``None`` = unlimited). ``payload`` is the garbage value
    substituted for ``kind="garbage"``; ``delay`` is the injected
    latency in seconds for ``kind="slow"``.
    """

    kind: str
    chunk: int | None = None
    item: object | None = None
    attempts: object = None
    max_fires: int | None = None
    payload: object = None
    shard: int | None = None
    incarnations: object = None
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigurationError("max_fires must be >= 1")
        if (
            not isinstance(self.delay, (int, float))
            or not math.isfinite(self.delay)
            or self.delay < 0
        ):
            raise ConfigurationError(
                f"delay must be a finite number >= 0, got {self.delay!r}"
            )
        object.__setattr__(
            self, "attempts", _normalize_attempts(self.attempts)
        )
        object.__setattr__(
            self, "incarnations", _normalize_attempts(self.incarnations)
        )

    def matches(self, chunk_index: int, items: list, attempt: int) -> bool:
        if self.chunk is not None and self.chunk != chunk_index:
            return False
        if self.item is not None and self.item not in items:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True


def crash(
    chunk: int | None = None,
    item: object | None = None,
    attempts=None,
    max_fires: int | None = None,
    shard: int | None = None,
) -> FaultSpec:
    """A crash rule (see :class:`FaultSpec` for targeting)."""
    return FaultSpec("crash", chunk, item, attempts, max_fires, shard=shard)


def kill(
    chunk: int | None = None,
    attempts=None,
    shard: int | None = None,
    incarnations=None,
) -> FaultSpec:
    """A process-kill rule: the driver dies hard via ``os._exit``.

    Unlike ``crash`` this is unrecoverable in-process — the run ends
    instantly with exit status :data:`KILL_EXIT_CODE` and must be
    resumed from its checkpoints in a fresh process. Use only inside a
    sacrificial subprocess (see ``tests/kill_driver.py``) or a
    supervised worker.
    """
    return FaultSpec(
        "kill", chunk, attempts=attempts, shard=shard,
        incarnations=incarnations,
    )


def flap(
    chunk: int | None = None,
    max_fires: int | None = None,
    shard: int | None = None,
    incarnations=None,
) -> FaultSpec:
    """A repeating-death rule: the worker dies, restarts, dies again.

    Fires :class:`~repro.resilience.policy.InjectedWorkerDeath` (in a
    supervised worker process: a hard exit 137) on every matching
    incarnation. ``flap(shard=1, incarnations=(1, 2))`` is the
    canonical flapping worker: dead on launch, dead on first restart,
    clean on the second — exactly reproducible because the supervisor
    binds the incarnation number before every (re)launch.
    """
    return FaultSpec(
        "flap", chunk, max_fires=max_fires, shard=shard,
        incarnations=incarnations,
    )


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (the injector's audit trail)."""

    kind: str
    chunk: int
    attempt: int
    n_items: int
    incarnation: int = 1


class FaultInjector:
    """The executor-facing hook that fires :class:`FaultSpec` rules.

    The executor calls :meth:`on_attempt` before dispatching a chunk
    attempt (crash/hang/kill/slow/flap rules fire here) and
    :meth:`on_result` after a successful attempt (garbage rules fire
    here). Every firing is appended to :attr:`history` so tests can
    assert exactly which faults the run absorbed.

    ``sleeper`` serves ``slow`` faults (default :func:`time.sleep`);
    inject a :meth:`ManualClock.advance <repro.obs.clock.ManualClock.advance>`
    to make injected latency instant and exact.
    """

    def __init__(self, *specs: FaultSpec, sleeper=None) -> None:
        self._specs: list[list] = [[spec, 0] for spec in specs]
        self._shard: int | None = None
        self._incarnation: int = 1
        self._sleeper = sleeper if sleeper is not None else time.sleep
        self.history: list[FaultEvent] = []

    def bind_shard(self, shard: int | None) -> None:
        """Declare which shard this injector is currently serving.

        Shard-targeted specs (``shard=`` filter) fire only while the
        injector is bound to that shard id. The sharded runtime calls
        this in each worker before the shard's chunks run; outside a
        sharded run the injector stays unbound and shard-targeted
        specs never fire.
        """
        self._shard = shard

    def bind_incarnation(self, incarnation: int) -> None:
        """Declare which worker incarnation (1-based) is running.

        The supervisor binds ``1`` on first launch and ``restarts + 1``
        on every restart (in the worker process itself for the process
        backend), so ``incarnations``-targeted specs replay identically
        across supervised runs. An unbound injector is incarnation 1.
        """
        if not isinstance(incarnation, int) or incarnation < 1:
            raise ConfigurationError(
                f"incarnation must be an integer >= 1, got {incarnation!r}"
            )
        self._incarnation = incarnation

    def _fire(self, kinds, chunk_index, items, attempt) -> FaultSpec | None:
        for slot in self._specs:
            spec, fired = slot
            if spec.kind not in kinds:
                continue
            if spec.max_fires is not None and fired >= spec.max_fires:
                continue
            if spec.shard is not None and spec.shard != self._shard:
                continue
            if (
                spec.incarnations is not None
                and self._incarnation not in spec.incarnations
            ):
                continue
            if spec.matches(chunk_index, list(items), attempt):
                slot[1] = fired + 1
                self.history.append(
                    FaultEvent(
                        spec.kind, chunk_index, attempt, len(items),
                        self._incarnation,
                    )
                )
                return spec
        return None

    def on_attempt(self, chunk_index: int, items, attempt: int) -> None:
        """Raise the configured crash/hang/death — or kill or delay
        the process — for this attempt, if any rule fires."""
        spec = self._fire(
            ("crash", "hang", "kill", "slow", "flap"),
            chunk_index, items, attempt,
        )
        if spec is None:
            return
        if spec.kind == "kill":
            # Hard death: no unwinding, no cleanup. Models SIGKILL.
            os._exit(KILL_EXIT_CODE)
        if spec.kind == "flap":
            raise InjectedWorkerDeath(self._shard, self._incarnation)
        if spec.kind == "slow":
            if spec.delay:
                self._sleeper(spec.delay)
            return
        if spec.kind == "crash":
            raise InjectedCrash(
                f"injected crash: chunk {chunk_index} attempt {attempt}"
            )
        raise InjectedHang(
            f"injected hang: chunk {chunk_index} attempt {attempt}"
        )

    def on_result(self, chunk_index: int, items, attempt: int, value):
        """Substitute garbage for this attempt's result, if configured."""
        spec = self._fire(("garbage",), chunk_index, items, attempt)
        if spec is None:
            return value
        return spec.payload

    def fired(self, kind: str | None = None) -> int:
        """How many faults fired (optionally of one kind)."""
        if kind is None:
            return len(self.history)
        return sum(1 for event in self.history if event.kind == kind)
