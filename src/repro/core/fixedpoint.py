"""The one resumable fixed-point loop under every iterative solver.

TruthFinder, AccuVote, AccuCopy and Fellegi-Sunter EM differ in what
one iteration computes, not in how iterations are driven: apply a step
until it reports convergence or the bound is reached, trace each
iteration's change, and save the state after every iteration so a
killed run resumes mid-convergence to the uninterrupted run's output.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.core.errors import ConfigurationError
from repro.obs import NULL_TRACER

__all__ = ["fixed_point"]

State = TypeVar("State")

#: Folded into every saved signature: an artifact written under another
#: payload layout never matches, so it reads as absent and the solver
#: recomputes instead of indexing keys that are not there.
_LAYOUT = "fixed-point/1"


def fixed_point(
    step: Callable[[State], tuple[State, float, bool]],
    state: State,
    *,
    max_iterations: int,
    span: str,
    counter: str,
    tracer=None,
    checkpoint=None,
    signature: Callable[[], str] | None = None,
    digits: int = 8,
    **attributes,
) -> tuple[State, int]:
    """Iterate ``state, delta, done = step(state)`` until ``done`` or
    ``max_iterations``; returns ``(state, iterations)``, the count
    including iterations resumed from a checkpoint.

    ``tracer`` records one ``span`` carrying ``max_iterations``,
    ``resumed_at`` (iterations already done when this call started, 0
    on a fresh run), ``iterations``, ``converged``, the ``deltas``
    rounded to ``digits`` and any extra ``attributes``, and adds the
    iterations to ``counter``.

    ``checkpoint`` (anything with ``load(key, signature)`` /
    ``save(key, value, signature)``, such as a
    :class:`~repro.recovery.RunStore`) receives the whole loop state
    after every step, signed with this call's ``signature()`` — the
    caller's digest of its input and parameters, computed only when
    there is a checkpoint. A state saved under another signature reads
    as absent; one under this signature is resumed from, its
    iterations counted as skipped on the recovery counter.
    """
    if max_iterations < 1:
        raise ConfigurationError(
            f"{span}: max_iterations must be >= 1, got {max_iterations}"
        )
    tracer = tracer if tracer is not None else NULL_TRACER
    deltas: list[float] = []
    done = False
    if checkpoint is not None:
        signed = f"{_LAYOUT}:{signature()}"
        saved = checkpoint.load("state", signed)
        if saved is not None:
            state, done = saved["state"], saved["done"]
            deltas = list(saved["deltas"])
            tracer.counter("recovery.iterations_skipped").inc(len(deltas))
    with tracer.span(
        span,
        max_iterations=max_iterations,
        resumed_at=len(deltas),
        **attributes,
    ) as open_span:
        while not done and len(deltas) < max_iterations:
            state, delta, done = step(state)
            deltas.append(delta)
            if checkpoint is not None:
                checkpoint.save(
                    "state",
                    {"state": state, "deltas": deltas, "done": done},
                    signed,
                )
        open_span.set("iterations", len(deltas))
        open_span.set("converged", done)
        open_span.set("deltas", [round(delta, digits) for delta in deltas])
    tracer.counter(counter).inc(len(deltas))
    return state, len(deltas)
