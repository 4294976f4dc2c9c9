"""AccuVote: Bayesian accuracy-aware fusion (Dong, Berti-Équille &
Srivastava, VLDB'09 — the copy-free half of their model).

Each source has an accuracy ``A(s)``: it claims an item's true value
with probability ``A(s)``, else one of ``n`` false values uniformly.
Under that model a claimed value's posterior follows from summing its
supporters' *vote counts*

    C(s) = ln( n · A(s) / (1 - A(s)) )

so accurate sources carry more weight and very inaccurate sources
carry almost none. Accuracies are unknown, so the algorithm iterates:
posteriors from accuracies, accuracies from posteriors (a source's
accuracy is the mean posterior probability of the values it claims),
until the accuracy vector stabilizes.
"""

from __future__ import annotations

import math
from typing import Mapping

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
    softmax,
)
from repro.fusion.online import _ACCURACY_CEIL, _ACCURACY_FLOOR, vote_count
from repro.recovery import claims_signature, config_fingerprint

__all__ = ["AccuVote"]

#: Every source's accuracy before the first round, unless known.
INITIAL_ACCURACY = 0.8

#: How far an accuracy may still move in the round that converges.
TOLERANCE = 1e-4


class AccuVote(Fuser):
    """Iterative Bayesian fusion with per-source accuracy estimation.

    Parameters
    ----------
    n_false_values:
        Assumed number of distinct wrong values per item (the uniform
        false-value model's ``n``).
    known_accuracies:
        When provided, accuracies are *not* re-estimated — the
        algorithm becomes single-pass Bayesian voting with known
        source quality (used by online fusion).
    max_iterations:
        Convergence control on the accuracy vector, which has converged
        once no accuracy moves by :data:`TOLERANCE`.
    tracer, checkpoint:
        As in :class:`~repro.fusion.truthfinder.TruthFinder`: a span
        carrying the per-iteration accuracy-change deltas, and a store
        each iteration's state is saved to so a rerun over the same
        claims and parameters resumes mid-convergence.
    """

    name = "accuvote"

    def __init__(
        self,
        n_false_values: int = 10,
        known_accuracies: Mapping[str, float] | None = None,
        max_iterations: int = 50,
        tracer=None,
        checkpoint=None,
    ) -> None:
        if n_false_values < 1:
            raise ConfigurationError("n_false_values must be >= 1")
        self._n = n_false_values
        self._known = dict(known_accuracies) if known_accuracies else None
        self._max_iterations = max_iterations
        self._tracer = tracer
        self._checkpoint = checkpoint

    def _state_signature(self, claims: ClaimSet) -> str:
        return config_fingerprint(
            SCORED_STATE,
            claims_signature(claims),
            self._n,
            INITIAL_ACCURACY,
            self._known,
            self._max_iterations,
            TOLERANCE,
        )

    def item_scorer(self, accuracy: Mapping[str, float]) -> ItemScorer:
        """The AccuVote rule under ``accuracy`` (every source, in
        first-seen order): one item's values and supporters to
        P(value true | claims) per value — the softmax of each value's
        summed supporter vote counts."""
        votes = [vote_count(a, self._n) for a in accuracy.values()]
        vote = votes.__getitem__

        def score_item(values, supporters):
            return softmax([math.fsum(map(vote, who)) for who in supporters])

        return score_item

    def fuse(self, claims: ClaimSet) -> FusionResult:
        claims.require_nonempty()
        known = self._known

        def step(state):
            accuracy, __ = state
            scores, means = score(claims, self.item_scorer(accuracy))
            if known is not None:
                return (accuracy, scores), 0.0, True
            accuracy, change = reweigh(
                accuracy, means, _ACCURACY_FLOOR, _ACCURACY_CEIL
            )
            return (accuracy, scores), change, change < TOLERANCE

        accuracy = {
            source: (known or {}).get(source, INITIAL_ACCURACY)
            for source in claims.sources()
        }
        (accuracy, scores), iterations = fixed_point(
            step,
            (accuracy, None),
            max_iterations=self._max_iterations,
            span="fusion.accuvote",
            counter="fusion.accuvote.iterations",
            tracer=self._tracer,
            checkpoint=self._checkpoint,
            signature=lambda: self._state_signature(claims),
        )
        chosen, confidence = choose(claims, scores)
        return FusionResult(chosen, confidence, accuracy, iterations)
