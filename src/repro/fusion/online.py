"""Online data fusion: answer early, probe sources lazily (Liu et al.,
VLDB'11).

Batch fusion reads every source before answering; at web scale that
is slow and usually unnecessary — after a handful of good sources the
answer rarely changes. Online fusion probes sources one at a time (best
estimated accuracy first), maintains the Bayesian posterior of the
current leading value, and *terminates an item* once no combination of
the remaining sources could overturn the leader (or the leader's
posterior clears a confidence bar). The benchmark quantity is the
expected-correctness-vs-sources-probed curve and how early items
terminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import ConfigurationError
from repro.fusion.base import ClaimSet, FusionResult

__all__ = ["OnlineFusion", "OnlineTrace", "claim_posterior", "vote_count"]

_ACCURACY_FLOOR = 0.01
_ACCURACY_CEIL = 0.99

#: The posterior at which an item's leader is final.
STOP_POSTERIOR = 0.99


def vote_count(accuracy: float, n_false_values: int) -> float:
    """The Bayesian vote weight of one claim by a source.

    The uniform-false-value model of Dong et al.: a source with
    accuracy ``a`` choosing among ``n`` wrong values contributes
    ``ln(n * a / (1 - a))`` to its claimed value's log-score. Accuracy
    is clamped away from 0 and 1 so weights stay finite. The one
    definition under every Bayesian fuser — :class:`AccuVote` (in
    memory and out of core alike), :class:`AccuCopy`,
    :class:`OnlineFusion` and the streaming decayed-fusion layer — so
    they agree bit-for-bit on the same inputs.
    """
    accuracy = min(_ACCURACY_CEIL, max(_ACCURACY_FLOOR, accuracy))
    return math.log(n_false_values * accuracy / (1.0 - accuracy))


def claim_posterior(
    scores: Mapping[str, float], value: str, n_false_values: int
) -> float:
    """P(``value`` | vote counts) under the uniform-false-value model.

    The ``n + 1`` possible values all start at vote count 0; values
    nobody claimed yet keep that count, so early posteriors stay
    honest instead of jumping to 1.0 after one probe. The normaliser is
    one exact sum, so the posterior is the same on every Python.
    """
    if not scores:
        return 0.0
    peak = max(0.0, max(scores.values()))
    exps = {v: math.exp(s - peak) for v, s in scores.items()}
    unclaimed = max(0, n_false_values + 1 - len(scores))
    total = math.fsum([*exps.values(), unclaimed * math.exp(-peak)])
    return exps.get(value, 0.0) / total if total else 0.0


@dataclass(frozen=True)
class OnlineTrace:
    """State of the online computation after each probe.

    ``answers[k]`` is the current answer per item after probing ``k+1``
    sources; ``terminated[k]`` the fraction of items already finalized.
    """

    probe_order: tuple[str, ...]
    answers: tuple[dict[str, str], ...]
    terminated: tuple[float, ...]
    expected_correctness: tuple[float, ...]


class OnlineFusion:
    """Probe-one-source-at-a-time Bayesian fusion.

    Worth it when reading a source costs something: with every claim
    already in memory the early stop saves nothing and can finalise a
    value the unread claims would outvote, so the live projection
    (:func:`repro.linkage.projection.fuse_entity`) votes them all.

    Parameters
    ----------
    accuracies:
        (Estimated) per-source accuracies — they set both the probe
        order and the vote counts.
    n_false_values:
        The Bayesian vote model's ``n``.

    An item terminates early once its leader's posterior reaches
    :data:`STOP_POSTERIOR`, in addition to the cannot-be-overturned
    rule.
    """

    def __init__(
        self,
        accuracies: Mapping[str, float],
        n_false_values: int = 10,
    ) -> None:
        if not accuracies:
            raise ConfigurationError("accuracies must be non-empty")
        self._accuracy = dict(accuracies)
        self._n = n_false_values

    def _vote_count(self, source: str) -> float:
        return vote_count(self._accuracy.get(source, 0.5), self._n)

    def probe_order(self, claims: ClaimSet) -> list[str]:
        """Sources in descending estimated accuracy (ties by name)."""
        return sorted(
            claims.sources(),
            key=lambda source: (-self._accuracy.get(source, 0.5), source),
        )

    def run(self, claims: ClaimSet) -> tuple[FusionResult, OnlineTrace]:
        """Probe all sources in order, tracking the anytime answer.

        Returns the final result plus the per-probe trace. An item's
        ``confidence`` is its leader's posterior at termination time.
        """
        claims.require_nonempty()
        order = self.probe_order(claims)
        items = claims.items()
        scores: dict[str, dict[str, float]] = {item: {} for item in items}
        finalized: dict[str, str] = {}
        final_confidence: dict[str, float] = {}
        answers_trace: list[dict[str, str]] = []
        terminated_trace: list[float] = []
        correctness_trace: list[float] = []

        remaining_weight = {
            item: math.fsum(
                self._vote_count(source)
                for source in order
                if claims.value_of(source, item) is not None
            )
            for item in items
        }

        for source in order:
            weight = self._vote_count(source)
            for claim in claims.claims_by(source):
                item = claim.item_id
                remaining_weight[item] -= weight
                if item in finalized:
                    continue
                item_scores = scores[item]
                item_scores[claim.value] = (
                    item_scores.get(claim.value, 0.0) + weight
                )
            # Termination check per still-open item.
            for item in items:
                if item in finalized:
                    continue
                item_scores = scores[item]
                if not item_scores:
                    continue
                ranked = sorted(
                    item_scores.items(), key=lambda kv: (-kv[1], kv[0])
                )
                leader, leader_score = ranked[0]
                # Values nobody has claimed *yet* sit at vote count 0 and
                # could still be claimed by remaining sources.
                runner_up = ranked[1][1] if len(ranked) > 1 else 0.0
                posterior = self._posterior(item_scores, leader)
                unbeatable = (
                    leader_score - max(runner_up, 0.0)
                    > remaining_weight[item]
                )
                if posterior >= STOP_POSTERIOR or unbeatable:
                    finalized[item] = leader
                    final_confidence[item] = posterior
            snapshot = {}
            expected = 0.0
            for item in items:
                item_scores = scores[item]
                if item in finalized:
                    snapshot[item] = finalized[item]
                    expected += final_confidence[item]
                elif item_scores:
                    leader = max(
                        item_scores, key=lambda v: (item_scores[v], v)
                    )
                    snapshot[item] = leader
                    expected += self._posterior(item_scores, leader)
            answers_trace.append(snapshot)
            terminated_trace.append(len(finalized) / len(items))
            correctness_trace.append(expected / len(items))

        final_answers = answers_trace[-1] if answers_trace else {}
        for item in items:
            if item not in final_confidence and item in final_answers:
                final_confidence[item] = self._posterior(
                    scores[item], final_answers[item]
                )
        result = FusionResult(
            chosen=final_answers,
            confidence=final_confidence,
            source_accuracy=dict(self._accuracy),
            iterations=len(order),
        )
        trace = OnlineTrace(
            probe_order=tuple(order),
            answers=tuple(answers_trace),
            terminated=tuple(terminated_trace),
            expected_correctness=tuple(correctness_trace),
        )
        return result, trace

    def _posterior(self, scores: Mapping[str, float], value: str) -> float:
        """P(value | probes so far); see :func:`claim_posterior`."""
        return claim_posterior(scores, value, self._n)
