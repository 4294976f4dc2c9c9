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
from dataclasses import replace
from typing import Mapping

from repro.core.errors import ConfigurationError
from repro.core.fixedpoint import fixed_point
from repro.fusion.accu import INITIAL_ACCURACY
from repro.fusion.base import (
    ClaimSet,
    Fuser,
    FusionResult,
    ItemScorer,
    choose,
    reweigh,
    score,
    softmax,
)
from repro.fusion.copydetect import CopyDetector
from repro.fusion.online import _ACCURACY_CEIL, _ACCURACY_FLOOR, vote_count
from repro.fusion.voting import VotingFuser
from repro.recovery import claims_signature, config_fingerprint

__all__ = ["AccuCopy"]

#: How far an accuracy may still move in a round that ends the rounds.
TOLERANCE = 1e-3

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
    n_false_values:
        As in :class:`~repro.fusion.accu.AccuVote`, whose
        :data:`~repro.fusion.accu.INITIAL_ACCURACY` every source starts
        from.
    detector:
        The copy detector (its ``copy_rate`` is also the discount
        strength).
    outer_iterations:
        Rounds of (detect → discount-vote → re-estimate accuracy); the
        rounds stop early once the winners repeat and no accuracy moves
        by :data:`TOLERANCE`.
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
        detector: CopyDetector | None = None,
        outer_iterations: int = 5,
        tracer=None,
        checkpoint=None,
    ) -> None:
        self._n = n_false_values
        self._detector = detector or CopyDetector(
            n_false_values=n_false_values
        )
        self._outer_iterations = outer_iterations
        self._tracer = tracer
        self._checkpoint = checkpoint

    def _state_signature(self, claims: ClaimSet) -> str:
        return config_fingerprint(
            claims_signature(claims),
            self._n,
            INITIAL_ACCURACY,
            self._detector,
            self._outer_iterations,
            TOLERANCE,
        )

    def item_scorer(
        self,
        accuracy: Mapping[str, float],
        copy_probability: Mapping[tuple[str, str], float],
    ) -> ItemScorer:
        """The AccuCopy rule under ``accuracy`` (every source, in
        first-seen order) and the detected copying: AccuVote's softmax
        with each value's supporters visited in descending accuracy and
        each vote scaled by its independence of the supporters already
        counted."""
        sources = list(accuracy)
        weights = list(accuracy.values())
        votes = [vote_count(a, self._n) for a in weights]
        # Nothing here depends on the item. A vote is discounted only by
        # the sources ranked ahead of it whose factor is not exactly 1.0
        # (multiplying by 1.0 changes no bit), kept in ranking order:
        # float products are order-sensitive, so the factors multiply in
        # the order the model counts supporters whatever the item. The
        # votes are then summed exactly, in any order. Lists are indexed
        # by source position.
        c = self._detector.copy_rate
        ranking = sorted(
            range(len(sources)), key=lambda p: (-weights[p], sources[p])
        )
        discounts: list[list[tuple[int, float]]] = [[] for __ in sources]
        for place, p in enumerate(ranking):
            source = sources[p]
            for q in ranking[:place]:
                earlier = sources[q]
                key = (min(source, earlier), max(source, earlier))
                factor = 1.0 - c * copy_probability.get(key, 0.0)
                if factor != 1.0:
                    discounts[p].append((q, factor))

        def vote(p, counted):
            independence = 1.0
            for q, factor in discounts[p]:
                if q in counted:
                    independence *= factor
            return independence * votes[p]

        def score_item(values, supporters):
            return softmax(
                [math.fsum([vote(p, who) for p in who]) for who in supporters]
            )

        return score_item

    def fuse(self, claims: ClaimSet) -> FusionResult:
        if not isinstance(claims, ClaimSet):
            raise ConfigurationError(SPILLED_CLAIMS_REFUSED)
        claims.require_nonempty()

        def step(result):
            accuracy = result.source_accuracy
            copying = self._detector.detect(claims, result.chosen, accuracy)
            scores, means = score(claims, self.item_scorer(accuracy, copying))
            chosen, confidence = choose(claims, scores)
            accuracy, change = reweigh(
                accuracy, means, _ACCURACY_FLOOR, _ACCURACY_CEIL
            )
            done = chosen == result.chosen and change < TOLERANCE
            result = FusionResult(
                chosen, confidence, accuracy, copy_probability=copying
            )
            return result, change, done

        # Bootstrap truths with plain voting; accuracies with the prior.
        accuracy = dict.fromkeys(claims.sources(), INITIAL_ACCURACY)
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
