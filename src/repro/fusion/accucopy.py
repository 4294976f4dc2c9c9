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
from repro.fusion.copydetect import CopyDetector
from repro.fusion.online import _ACCURACY_CEIL, _ACCURACY_FLOOR, vote_count
from repro.fusion.voting import VotingFuser

__all__ = ["AccuCopy"]

#: The one refusal of claims that are not resident, raised by
#: :meth:`AccuCopy.fuse` and — before any stage runs — by
#: ``BDIPipeline.run(memory_budget=...)``.
SPILLED_CLAIMS_REFUSED = (
    "fusion='accucopy' does not run on spilled claims (memory_budget): "
    "its copy detector indexes who claims what, O(claims) resident, to "
    "compare source pairs across items, so it needs an in-memory ClaimSet"
)


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
        if not 0.0 < initial_accuracy < 1.0:
            raise ConfigurationError("initial_accuracy must be in (0, 1)")
        self._n = n_false_values
        self._initial_accuracy = initial_accuracy
        self._detector = detector or CopyDetector(
            n_false_values=n_false_values
        )
        self._outer_iterations = outer_iterations
        self._tolerance = tolerance
        self._tracer = tracer
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

    def item_scorer(
        self,
        accuracy: Mapping[str, float],
        copy_probability: Mapping[tuple[str, str], float],
    ) -> ItemScorer:
        """The AccuCopy rule under ``accuracy`` and the detected copying:
        AccuVote's softmax with each value's supporters visited in
        descending accuracy and each vote scaled by its independence
        of the supporters already counted."""
        votes = {
            source: vote_count(a, self._n) for source, a in accuracy.items()
        }
        # Nothing here depends on the item. Supporters are visited in one
        # ranking of the sources, and a vote is discounted only by the
        # sources ranked ahead of it whose factor is not exactly 1.0
        # (multiplying by 1.0 changes no bit), kept in ranking order —
        # the order they are counted in whatever the item.
        c = self._detector.copy_rate
        ranking = sorted(accuracy, key=lambda s: (-accuracy[s], s))
        rank = {source: position for position, source in enumerate(ranking)}
        discounts: dict[str, list[tuple[str, float]]] = {}
        for position, source in enumerate(ranking):
            for earlier in ranking[:position]:
                key = (min(source, earlier), max(source, earlier))
                factor = 1.0 - c * copy_probability.get(key, 0.0)
                if factor != 1.0:
                    discounts.setdefault(source, []).append((earlier, factor))

        def score_item(item_claims):
            supporters: dict[str, list[str]] = {}
            for claim in item_claims:
                supporters.setdefault(claim.value, []).append(claim.source_id)
            scores: dict[str, float] = {}
            for value, sources in supporters.items():
                sources.sort(key=rank.__getitem__)
                score = 0.0
                for source in sources:
                    independence = 1.0
                    for earlier, factor in discounts.get(source, ()):
                        if earlier in sources:
                            independence *= factor
                    score += independence * votes[source]
                scores[value] = score
            return softmax(scores)

        return score_item

    def fuse(self, claims: ClaimSet) -> FusionResult:
        if not isinstance(claims, ClaimSet):
            raise ConfigurationError(SPILLED_CLAIMS_REFUSED)
        claims.require_nonempty()

        def step(result):
            accuracy = result.source_accuracy
            copying = self._detector.detect(claims, result.chosen, accuracy)
            chosen, confidence, means = sweep(
                claims, self.item_scorer(accuracy, copying)
            )
            accuracy, change = reweigh(
                accuracy, means, _ACCURACY_FLOOR, _ACCURACY_CEIL
            )
            done = chosen == result.chosen and change < self._tolerance
            result = FusionResult(
                chosen, confidence, accuracy, copy_probability=copying
            )
            return result, change, done

        # Bootstrap truths with plain voting; accuracies with the prior.
        accuracy = dict.fromkeys(claims.sources(), self._initial_accuracy)
        result, iterations = fixed_point(
            step,
            replace(VotingFuser().fuse(claims), source_accuracy=accuracy),
            max_iterations=self._outer_iterations,
            span="fusion.accucopy",
            counter="fusion.accucopy.iterations",
            tracer=self._tracer,
            checkpoint=self._checkpoint,
            signature=lambda: self._state_signature(claims),
        )
        return replace(result, iterations=iterations)
