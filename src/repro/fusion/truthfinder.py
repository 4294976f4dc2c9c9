"""TruthFinder (Yin, Han & Yu): trust-aware iterative truth discovery.

The founding insight of truth discovery: *a value is likely true if
claimed by trustworthy sources, and a source is trustworthy if it
claims likely-true values*. TruthFinder iterates that fixed point:

* source trustworthiness ``t(s)`` = mean confidence of the values it
  claims;
* value confidence combines its supporters' trust scores
  ``τ(s) = -ln(1 - t(s))`` (so several moderately trusted supporters
  beat one strongly trusted one), squashed through a logistic with
  dampening ``γ`` (:data:`DAMPENING`; lower values slow saturation);
* optionally, similar values *imply* each other: a value gains
  confidence from similar claimed values (``implication_weight ·
  similarity``), which matters for formatted values.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from repro.core.errors import ConfigurationError
from repro.core.fixedpoint import fixed_point
from repro.fusion.base import (
    SCORED_STATE,
    ClaimSet,
    Fuser,
    FusionResult,
    ItemScorer,
    choose,
    reweigh,
    score,
)
from repro.recovery import claims_signature, config_fingerprint

__all__ = ["TruthFinder"]

_MAX_TRUST = 1.0 - 1e-6

#: Every source's trustworthiness before the first round.
INITIAL_TRUST = 0.9

#: γ in the logistic squash of accumulated trust scores.
DAMPENING = 0.3


class TruthFinder(Fuser):
    """Iterative trust/confidence propagation.

    Parameters
    ----------
    implication_weight, similarity:
        When both set, a value's raw score gains
        ``implication_weight · similarity(v, v') · score(v')`` from
        each co-claimed value ``v'``.
    max_iterations, tolerance:
        Convergence control on the source-trust vector (cosine change).
    tracer:
        An :class:`repro.obs.Tracer` (default no-op); each fuse records
        a span carrying the per-iteration convergence deltas, so a run
        report answers "did it converge in 4 iterations or 40?".
    checkpoint:
        An optional checkpoint store (a
        :class:`repro.recovery.RunStore` or a view of one). Each
        iteration's full solver state is durably saved after it
        completes; a rerun over the same claims with the same
        parameters resumes mid-convergence from the last completed
        iteration, producing output identical to an uninterrupted run.
    """

    name = "truthfinder"

    def __init__(
        self,
        implication_weight: float = 0.0,
        similarity: Callable[[str, str], float] | None = None,
        max_iterations: int = 50,
        tolerance: float = 1e-4,
        tracer=None,
        checkpoint=None,
    ) -> None:
        if implication_weight < 0:
            raise ConfigurationError("implication_weight must be >= 0")
        if implication_weight > 0 and similarity is None:
            raise ConfigurationError(
                "implication_weight needs a similarity function"
            )
        self._implication_weight = implication_weight
        self._similarity = similarity
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._tracer = tracer
        self._checkpoint = checkpoint

    def _state_signature(self, claims: ClaimSet) -> str:
        return config_fingerprint(
            SCORED_STATE,
            claims_signature(claims),
            INITIAL_TRUST,
            DAMPENING,
            self._implication_weight,
            self._max_iterations,
            self._tolerance,
        )

    def item_scorer(self, trust: Mapping[str, float]) -> ItemScorer:
        """The TruthFinder rule under ``trust`` (every source, in
        first-seen order): one item's values and supporters to the
        confidence of each value — the logistic of its supporters'
        summed trust scores plus what similar co-claimed values imply.
        With implication the rule reads the values, and :meth:`fuse`
        has the sweep score each item alone."""
        tau = [-math.log(max(1e-9, 1.0 - t)) for t in trust.values()]
        trust_of = tau.__getitem__
        weight, similarity = self._implication_weight, self._similarity
        implies = weight > 0 and similarity is not None

        def score_item(values, supporters):
            raw = [math.fsum(map(trust_of, who)) for who in supporters]
            if implies:
                raw = [
                    score
                    + weight
                    * math.fsum(
                        similarity(value, other) * other_score
                        for other, other_score in zip(values, raw)
                        if other != value
                    )
                    for value, score in zip(values, raw)
                ]
            return [
                1.0 / (1.0 + math.exp(-DAMPENING * score))
                for score in raw
            ]

        return score_item

    def fuse(self, claims: ClaimSet) -> FusionResult:
        claims.require_nonempty()
        reads_values = self._implication_weight > 0

        def step(state):
            trust, __ = state
            scores, means = score(
                claims, self.item_scorer(trust), reads_values=reads_values
            )
            trust, change = reweigh(trust, means, 0.0, _MAX_TRUST)
            return (trust, scores), change, change < self._tolerance

        trust = dict.fromkeys(claims.sources(), INITIAL_TRUST)
        (trust, scores), iterations = fixed_point(
            step,
            (trust, None),
            max_iterations=self._max_iterations,
            span="fusion.truthfinder",
            counter="fusion.truthfinder.iterations",
            tracer=self._tracer,
            checkpoint=self._checkpoint,
            signature=lambda: self._state_signature(claims),
        )
        chosen, confidence = choose(claims, scores)
        return FusionResult(chosen, confidence, trust, iterations)
