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
from repro.fusion.base import ClaimSet, Fuser, FusionResult
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
    """

    name = "accuvote"

    def __init__(
        self,
        n_false_values: int = 10,
        initial_accuracy: float = 0.8,
        known_accuracies: Mapping[str, float] | None = None,
        max_iterations: int = 50,
        tolerance: float = 1e-4,
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

    def _posteriors(
        self, claims: ClaimSet, accuracy: Mapping[str, float]
    ) -> dict[tuple[str, str], float]:
        """P(value true | claims) per (item, value) under the model."""
        posteriors: dict[tuple[str, str], float] = {}
        for item in claims.items():
            values = claims.values_for(item)
            scores = []
            for value in values:
                scores.append(
                    sum(
                        vote_count(accuracy[source], self._n)
                        for source in claims.supporters(item, value)
                    )
                )
            peak = max(scores)
            exps = [math.exp(score - peak) for score in scores]
            total = sum(exps)
            for value, weight in zip(values, exps):
                posteriors[(item, value)] = weight / total
        return posteriors

    def fuse(self, claims: ClaimSet) -> FusionResult:
        claims.require_nonempty()
        sources = claims.sources()
        if self._known is not None:
            accuracy = {
                source: self._known.get(source, self._initial_accuracy)
                for source in sources
            }
            posteriors = self._posteriors(claims, accuracy)
            iterations = 1
        else:
            accuracy = {
                source: self._initial_accuracy for source in sources
            }
            posteriors = {}
            iterations = 0
            for iterations in range(1, self._max_iterations + 1):
                posteriors = self._posteriors(claims, accuracy)
                new_accuracy: dict[str, float] = {}
                for source in sources:
                    source_claims = claims.claims_by(source)
                    mean_posterior = sum(
                        posteriors[(claim.item_id, claim.value)]
                        for claim in source_claims
                    ) / len(source_claims)
                    new_accuracy[source] = min(
                        _ACCURACY_CEIL,
                        max(_ACCURACY_FLOOR, mean_posterior),
                    )
                change = max(
                    abs(new_accuracy[s] - accuracy[s]) for s in sources
                )
                accuracy = new_accuracy
                if change < self._tolerance:
                    break
        chosen: dict[str, str] = {}
        confidence: dict[str, float] = {}
        for item in claims.items():
            values = claims.values_for(item)
            best = max(values, key=lambda v: (posteriors[(item, v)], v))
            chosen[item] = best
            confidence[item] = posteriors[(item, best)]
        return FusionResult(
            chosen=chosen,
            confidence=confidence,
            source_accuracy=dict(accuracy),
            iterations=iterations,
        )
