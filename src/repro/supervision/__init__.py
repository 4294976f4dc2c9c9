"""repro.supervision — self-healing execution and overload protection.

The resilience layer (:mod:`repro.resilience`) recovers from failures
*inside* a worker: retries, bisection, quarantine. This package
recovers from failures *of* workers and of the serving layer around
them:

- :class:`Supervisor` / :class:`SupervisionPolicy` — the one loop
  sharded pipeline shards run through: watch each worker's pipe and
  monotonic heartbeat tokens, restart the dead and the hung under a
  bounded backoff budget, escalate with
  :class:`SupervisionExhaustedError` when the budget runs out. The
  healed run's output is byte-identical to an unfaulted run.
- :class:`HeartbeatEmitter` / :func:`read_heartbeat` /
  :func:`progress_token` — ``(incarnation, seq)``-stamped liveness
  without wall clocks: staleness is "the token didn't move", never
  "the timestamp looks old".
- :class:`CircuitBreaker` — closed → open → half-open protection
  around a failing dependency, deterministic under an injected clock.
- :class:`AdmissionGate` / :class:`OverloadPolicy` /
  :class:`Overloaded` — bounded write intake with explicit,
  retry-after-carrying rejection instead of queueing collapse.

:class:`~repro.serve.service.ResolutionService` composes the breaker
and the gate into degraded-mode serving (reads keep answering from the
last published generation while writes shed); the sharded runtime
composes the supervisor via its ``supervisor=`` argument.
"""

from repro.supervision.admission import (
    SHED_MODES,
    AdmissionGate,
    Overloaded,
    OverloadPolicy,
)
from repro.supervision.breaker import BREAKER_STATES, CircuitBreaker
from repro.supervision.heartbeat import (
    HeartbeatEmitter,
    progress_token,
    read_heartbeat,
)
from repro.supervision.supervisor import (
    SUPERVISION_EVENT_KINDS,
    SupervisionEvent,
    SupervisionExhaustedError,
    SupervisionPolicy,
    Supervisor,
)

__all__ = [
    "AdmissionGate",
    "BREAKER_STATES",
    "CircuitBreaker",
    "HeartbeatEmitter",
    "Overloaded",
    "OverloadPolicy",
    "SHED_MODES",
    "SUPERVISION_EVENT_KINDS",
    "SupervisionEvent",
    "SupervisionExhaustedError",
    "SupervisionPolicy",
    "Supervisor",
    "progress_token",
    "read_heartbeat",
]
