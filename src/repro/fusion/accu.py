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

from dataclasses import replace
from typing import Mapping

from repro.core.errors import ConfigurationError
from repro.core.fixedpoint import fixed_point
from repro.fusion.base import (
    ClaimSet,
    Fuser,
    FusionResult,
    ItemScorer,
    reweigh,
    softmax,
    sweep,
)
from repro.fusion.online import _ACCURACY_CEIL, _ACCURACY_FLOOR, vote_count

__all__ = ["AccuVote"]


class AccuVote(Fuser):
    """Iterative Bayesian fusion with per-source accuracy estimation.

    Parameters
    ----------
    n_false_values:
        Assumed number of distinct wrong values per item (the uniform
        false-value model's ``n``).
    initial_accuracy:
        Starting accuracy for every source; fixed accuracies can be
        supplied per source instead via ``known_accuracies``.
    known_accuracies:
        When provided, accuracies are *not* re-estimated — the
        algorithm becomes single-pass Bayesian voting with known
        source quality (used by online fusion).
    max_iterations, tolerance:
        Convergence control on the accuracy vector.
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
        initial_accuracy: float = 0.8,
        known_accuracies: Mapping[str, float] | None = None,
        max_iterations: int = 50,
        tolerance: float = 1e-4,
        tracer=None,
        checkpoint=None,
    ) -> None:
        if n_false_values < 1:
            raise ConfigurationError("n_false_values must be >= 1")
        if not 0.0 < initial_accuracy < 1.0:
            raise ConfigurationError("initial_accuracy must be in (0, 1)")
        self._n = n_false_values
        self._initial_accuracy = initial_accuracy
        self._known = dict(known_accuracies) if known_accuracies else None
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        self._tracer = tracer
        self._checkpoint = checkpoint

    def _state_signature(self, claims: ClaimSet) -> str:
        from repro.recovery import claims_signature, config_fingerprint

        return config_fingerprint(
            claims_signature(claims),
            self._n,
            self._initial_accuracy,
            self._known,
            self._max_iterations,
            self._tolerance,
        )

    def item_scorer(self, accuracy: Mapping[str, float]) -> ItemScorer:
        """The AccuVote rule under ``accuracy``: one item's claims to
        P(value true | claims) per claimed value — the softmax of each
        value's summed supporter vote counts."""
        votes = {
            source: vote_count(a, self._n) for source, a in accuracy.items()
        }

        def score_item(item_claims):
            scores: dict[str, float] = {}
            for claim in item_claims:
                scores[claim.value] = (
                    scores.get(claim.value, 0) + votes[claim.source_id]
                )
            return softmax(scores)

        return score_item

    def fuse(self, claims: ClaimSet) -> FusionResult:
        claims.require_nonempty()
        known = self._known

        def step(result):
            accuracy = result.source_accuracy
            chosen, confidence, means = sweep(
                claims, self.item_scorer(accuracy)
            )
            if known is not None:
                return FusionResult(chosen, confidence, accuracy), 0.0, True
            accuracy, change = reweigh(
                accuracy, means, _ACCURACY_FLOOR, _ACCURACY_CEIL
            )
            done = change < self._tolerance
            return FusionResult(chosen, confidence, accuracy), change, done

        accuracy = {
            source: (known or {}).get(source, self._initial_accuracy)
            for source in claims.sources()
        }
        result, iterations = fixed_point(
            step,
            FusionResult({}, source_accuracy=accuracy),
            max_iterations=self._max_iterations,
            span="fusion.accuvote",
            counter="fusion.accuvote.iterations",
            tracer=self._tracer,
            checkpoint=self._checkpoint,
            signature=lambda: self._state_signature(claims),
        )
        return replace(result, iterations=iterations)
