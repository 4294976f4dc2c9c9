"""AccuCopy: accuracy-aware fusion with copy discounting (Dong et al.).

The full VLDB'09 model: truth discovery and copy detection reinforce
each other. Copiers inflate the vote of whatever their parent says; so
each round (1) detects copying from the current truth beliefs, (2)
re-computes vote counts with copied votes *discounted*, (3) re-
estimates accuracies. Discounting follows the paper's independence
weighting: a value's supporters are visited in descending accuracy,
and each supporter's vote is scaled by

    I(s) = Π over already-counted supporters s'  (1 − c · P(s ~ s'))

— a source whose claims are probably copies of an already-counted
source contributes almost nothing.

Known limitation (inherent to the model, noted in the literature):
when *partial* copiers (copy rate well below 1) form a belief-state
majority, the bootstrap can settle on the cabal's values as truth, at
which point the cabal's common errors are believed true and stop
betraying the copying. Near-verbatim copiers — the canonical setting
of the original experiments — are detected regardless of cabal size.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.errors import ConfigurationError
from repro.fusion.base import ClaimSet, Fuser, FusionResult
from repro.fusion.copydetect import CopyDetector
from repro.fusion.online import _ACCURACY_CEIL, _ACCURACY_FLOOR, vote_count
from repro.fusion.voting import VotingFuser
from repro.obs import NULL_TRACER

__all__ = ["AccuCopy"]


class AccuCopy(Fuser):
    """Joint truth discovery and copy detection.

    Parameters
    ----------
    n_false_values, initial_accuracy:
        As in :class:`~repro.fusion.accu.AccuVote`.
    detector:
        The copy detector (its ``copy_rate`` is also the discount
        strength).
    outer_iterations:
        Rounds of (detect → discount-vote → re-estimate accuracy).
    tracer:
        An :class:`repro.obs.Tracer` (default no-op); each fuse records
        a span carrying the per-round accuracy-change deltas.
    checkpoint:
        An optional checkpoint store (a
        :class:`repro.recovery.RunStore` or a view of one). Each
        round's full solver state is durably saved; a rerun over the
        same claims with the same parameters resumes from the last
        completed round with output identical to an uninterrupted run.
    """

    name = "accucopy"

    def __init__(
        self,
        n_false_values: int = 10,
        initial_accuracy: float = 0.8,
        detector: CopyDetector | None = None,
        outer_iterations: int = 5,
        tolerance: float = 1e-3,
        tracer=None,
        checkpoint=None,
    ) -> None:
        if outer_iterations < 1:
            raise ConfigurationError("outer_iterations must be >= 1")
        self._n = n_false_values
        self._initial_accuracy = initial_accuracy
        self._detector = detector or CopyDetector(
            n_false_values=n_false_values
        )
        self._outer_iterations = outer_iterations
        self._tolerance = tolerance
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._checkpoint = checkpoint

    def _state_signature(self, claims: ClaimSet) -> str:
        from repro.recovery import claims_signature, config_fingerprint

        return config_fingerprint(
            claims_signature(claims),
            self._n,
            self._initial_accuracy,
            self._detector,
            self._outer_iterations,
            self._tolerance,
        )

    def _discounted_posteriors(
        self,
        claims: ClaimSet,
        accuracy: Mapping[str, float],
        copy_probability: Mapping[tuple[str, str], float],
    ) -> dict[tuple[str, str], float]:
        c = self._detector.copy_rate
        posteriors: dict[tuple[str, str], float] = {}
        for item in claims.items():
            values = claims.values_for(item)
            scores: list[float] = []
            for value in values:
                supporters = sorted(
                    claims.supporters(item, value),
                    key=lambda s: (-accuracy.get(s, 0.5), s),
                )
                score = 0.0
                counted: list[str] = []
                for source in supporters:
                    independence = 1.0
                    for earlier in counted:
                        key = (min(source, earlier), max(source, earlier))
                        independence *= 1.0 - c * copy_probability.get(
                            key, 0.0
                        )
                    score += independence * vote_count(
                        accuracy.get(source, self._initial_accuracy),
                        self._n,
                    )
                    counted.append(source)
                scores.append(score)
            peak = max(scores)
            exps = [math.exp(score - peak) for score in scores]
            total = sum(exps)
            for value, weight in zip(values, exps):
                posteriors[(item, value)] = weight / total
        return posteriors

    def fuse(self, claims: ClaimSet) -> FusionResult:
        claims.require_nonempty()
        sources = claims.sources()
        # Bootstrap truths with plain voting; accuracies with the prior.
        truths = VotingFuser().fuse(claims).chosen
        accuracy = {source: self._initial_accuracy for source in sources}
        copy_probability: dict[tuple[str, str], float] = {}
        posteriors: dict[tuple[str, str], float] = {}
        iterations = 0
        deltas: list[float] = []
        checkpoint = self._checkpoint
        signature = start = None
        converged = False
        if checkpoint is not None:
            signature = self._state_signature(claims)
            state = checkpoint.load("state")
            if state is not None and state.get("signature") == signature:
                truths = state["truths"]
                accuracy = state["accuracy"]
                copy_probability = state["copy_probability"]
                posteriors = state["posteriors"]
                deltas = list(state["deltas"])
                iterations = state["iterations"]
                converged = state["converged"]
                start = iterations + 1
                self._tracer.counter(
                    "recovery.iterations_skipped"
                ).inc(iterations)
        with self._tracer.span(
            "fusion.accucopy",
            outer_iterations=self._outer_iterations,
            resumed_at=start or 0,
        ) as span:
            for iterations in (
                ()
                if converged
                else range(start or 1, self._outer_iterations + 1)
            ):
                copy_probability = self._detector.detect(
                    claims, truths, accuracy
                )
                posteriors = self._discounted_posteriors(
                    claims, accuracy, copy_probability
                )
                new_truths: dict[str, str] = {}
                for item in claims.items():
                    values = claims.values_for(item)
                    new_truths[item] = max(
                        values, key=lambda v: (posteriors[(item, v)], v)
                    )
                new_accuracy: dict[str, float] = {}
                for source in sources:
                    source_claims = claims.claims_by(source)
                    mean_posterior = sum(
                        posteriors[(claim.item_id, claim.value)]
                        for claim in source_claims
                    ) / len(source_claims)
                    new_accuracy[source] = min(
                        _ACCURACY_CEIL, max(_ACCURACY_FLOOR, mean_posterior)
                    )
                accuracy_change = max(
                    abs(new_accuracy[s] - accuracy[s]) for s in sources
                )
                deltas.append(accuracy_change)
                stable_truths = new_truths == truths
                truths, accuracy = new_truths, new_accuracy
                done = (
                    stable_truths and accuracy_change < self._tolerance
                )
                if checkpoint is not None:
                    checkpoint.save(
                        "state",
                        {
                            "signature": signature,
                            "iterations": iterations,
                            "truths": truths,
                            "accuracy": accuracy,
                            "copy_probability": copy_probability,
                            "posteriors": posteriors,
                            "deltas": deltas,
                            "converged": done,
                        },
                    )
                if done:
                    break
            span.set("iterations", iterations)
            span.set("deltas", [round(delta, 8) for delta in deltas])
        self._tracer.counter("fusion.accucopy.iterations").inc(iterations)
        confidence = {
            item: posteriors[(item, truths[item])]
            for item in claims.items()
        }
        return FusionResult(
            chosen=truths,
            confidence=confidence,
            source_accuracy=dict(accuracy),
            iterations=iterations,
            copy_probability=dict(copy_probability),
        )
