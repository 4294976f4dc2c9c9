"""TruthFinder (Yin, Han & Yu): trust-aware iterative truth discovery.

The founding insight of truth discovery: *a value is likely true if
claimed by trustworthy sources, and a source is trustworthy if it
claims likely-true values*. TruthFinder iterates that fixed point:

* source trustworthiness ``t(s)`` = mean confidence of the values it
  claims;
* value confidence combines its supporters' trust scores
  ``τ(s) = -ln(1 - t(s))`` (so several moderately trusted supporters
  beat one strongly trusted one), squashed through a logistic with
  dampening ``γ``;
* optionally, similar values *imply* each other: a value gains
  confidence from similar claimed values (``implication_weight ·
  similarity``), which matters for formatted values.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Mapping

from repro.core.errors import ConfigurationError
from repro.core.fixedpoint import fixed_point
from repro.fusion.base import (
    ClaimSet,
    Fuser,
    FusionResult,
    ItemScorer,
    reweigh,
    sweep,
)

__all__ = ["TruthFinder"]

_MAX_TRUST = 1.0 - 1e-6


class TruthFinder(Fuser):
    """Iterative trust/confidence propagation.

    Parameters
    ----------
    initial_trust:
        Starting trustworthiness of every source.
    dampening:
        γ in the logistic squash of accumulated trust scores; lower
        values slow saturation.
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
        initial_trust: float = 0.9,
        dampening: float = 0.3,
        implication_weight: float = 0.0,
        similarity: Callable[[str, str], float] | None = None,
        max_iterations: int = 50,
        tolerance: float = 1e-4,
        tracer=None,
        checkpoint=None,
    ) -> None:
        if not 0.0 < initial_trust < 1.0:
            raise ConfigurationError("initial_trust must be in (0, 1)")
        if dampening <= 0:
            raise ConfigurationError("dampening must be positive")
        if implication_weight < 0:
            raise ConfigurationError("implication_weight must be >= 0")
        if implication_weight > 0 and similarity is None:
            raise ConfigurationError(
                "implication_weight needs a similarity function"
            )
        self._initial_trust = initial_trust
        self._dampening = dampening
        self._implication_weight = implication_weight
        self._similarity = similarity
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._tracer = tracer
        self._checkpoint = checkpoint

    def _state_signature(self, claims: ClaimSet) -> str:
        from repro.recovery import claims_signature, config_fingerprint

        return config_fingerprint(
            claims_signature(claims),
            self._initial_trust,
            self._dampening,
            self._implication_weight,
            self._max_iterations,
            self._tolerance,
        )

    def item_scorer(self, trust: Mapping[str, float]) -> ItemScorer:
        """The TruthFinder rule under ``trust``: one item's claims to
        the confidence of each claimed value — the logistic of its
        supporters' summed trust scores plus what similar co-claimed
        values imply."""
        tau = {
            source: -math.log(max(1e-9, 1.0 - t))
            for source, t in trust.items()
        }

        def score_item(item_claims):
            raw: dict[str, float] = {}
            for claim in item_claims:
                raw[claim.value] = (
                    raw.get(claim.value, 0) + tau[claim.source_id]
                )
            if self._implication_weight > 0 and self._similarity is not None:
                raw = {
                    value: score
                    + self._implication_weight
                    * sum(
                        self._similarity(value, other) * raw[other]
                        for other in raw
                        if other != value
                    )
                    for value, score in raw.items()
                }
            return {
                value: 1.0 / (1.0 + math.exp(-self._dampening * score))
                for value, score in raw.items()
            }

        return score_item

    def fuse(self, claims: ClaimSet) -> FusionResult:
        claims.require_nonempty()

        def step(result):
            trust = result.source_accuracy
            chosen, confidence, means = sweep(claims, self.item_scorer(trust))
            trust, change = reweigh(trust, means, 0.0, _MAX_TRUST)
            done = change < self._tolerance
            return FusionResult(chosen, confidence, trust), change, done

        trust = dict.fromkeys(claims.sources(), self._initial_trust)
        result, iterations = fixed_point(
            step,
            FusionResult({}, source_accuracy=trust),
            max_iterations=self._max_iterations,
            span="fusion.truthfinder",
            counter="fusion.truthfinder.iterations",
            tracer=self._tracer,
            checkpoint=self._checkpoint,
            signature=lambda: self._state_signature(claims),
        )
        return replace(result, iterations=iterations)
