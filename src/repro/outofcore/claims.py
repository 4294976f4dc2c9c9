"""Bounded-memory grouped-claims aggregation and streaming fusion.

:class:`SpillableClaimGroups` accumulates claims out of core and
streams them back grouped by item, in item first-seen order with each
item's claims in claim order and at most one claim per
``(source, item)`` (first wins) — exactly the view a
:class:`~repro.fusion.base.ClaimSet` built by the in-memory pipeline
presents to the fusers. :func:`stream_voting` and
:func:`stream_accuvote` replay the corresponding fusers over that
stream, reproducing their output **bit for bit**: voting copies the
tie-break expression verbatim, and AccuVote's accuracy update re-sorts
per-claim posterior contributions back into claim order before summing,
because float addition order is part of the contract.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

from repro.core.errors import ConfigurationError, EmptyInputError
from repro.fusion.base import Claim, FusionResult
from repro.fusion.online import _ACCURACY_CEIL, _ACCURACY_FLOOR, vote_count
from repro.outofcore.budget import MemoryBudget
from repro.outofcore.spill import ExternalSorter, entry_nbytes

__all__ = [
    "ClaimStreamSummary",
    "SpillableClaimGroups",
    "stream_accuvote",
    "stream_voting",
]


class ClaimStreamSummary:
    """What remains of the claims stage after streaming fusion consumed it.

    Stands in for the :class:`~repro.fusion.base.ClaimSet` slot on
    :class:`~repro.core.pipeline.PipelineResult` in out-of-core runs,
    where materializing every claim would defeat the memory bound.
    """

    def __init__(self, n_claims: int, n_items: int, n_sources: int) -> None:
        self.n_claims = n_claims
        self.n_items = n_items
        self.n_sources = n_sources

    def __len__(self) -> int:
        return self.n_claims

    def __repr__(self) -> str:
        return (
            f"ClaimStreamSummary(claims={self.n_claims}, "
            f"items={self.n_items}, sources={self.n_sources})"
        )


class SpillableClaimGroups:
    """Claims accumulated with bounded memory, re-streamable by item.

    Only the id-scale maps (item and source first-seen order) stay
    resident — the same asymptotic footprint as the fusion *output* —
    while the claims themselves live in budget-bounded sorted runs,
    keyed ``(item first-seen seq, claim seq)`` so the merge restores
    ClaimSet iteration semantics exactly. Duplicate ``(source, item)``
    claims are dropped at stream time, first claim wins, mirroring the
    pipeline's pre-insertion ``seen`` set.
    """

    def __init__(self, store, budget: MemoryBudget) -> None:
        self._sorter = ExternalSorter(store, budget, name="claims")
        self._item_seq: dict[str, int] = {}
        self._source_seq: dict[str, int] = {}
        self._n_added = 0

    @property
    def n_claims(self) -> int:
        """Claims added (before (source, item) deduplication)."""
        return self._n_added

    @property
    def n_items(self) -> int:
        """Distinct items seen."""
        return len(self._item_seq)

    @property
    def n_sources(self) -> int:
        """Distinct sources seen."""
        return len(self._source_seq)

    def add(self, source_id: str, item_id: str, value: str) -> None:
        """Register one claim; later duplicates of a (source, item) are
        dropped when the groups stream out."""
        item_seq = self._item_seq.setdefault(item_id, len(self._item_seq))
        self._source_seq.setdefault(source_id, len(self._source_seq))
        self._sorter.add(
            (item_seq, self._n_added, item_id, source_id, value),
            entry_nbytes(item_id, source_id, value, 0, 0),
        )
        self._n_added += 1

    def sources(self) -> tuple[str, ...]:
        """Source ids in first-seen order (ClaimSet.sources semantics)."""
        return tuple(self._source_seq)

    def items(self) -> tuple[str, ...]:
        """Item ids in first-seen order (ClaimSet.items semantics)."""
        return tuple(self._item_seq)

    def summary(self) -> ClaimStreamSummary:
        """The stream's cardinalities for reports and results."""
        return ClaimStreamSummary(
            n_claims=self._n_added,
            n_items=len(self._item_seq),
            n_sources=len(self._source_seq),
        )

    def indexed_groups(
        self,
    ) -> Iterator[tuple[str, list[tuple[int, Claim]]]]:
        """``(item_id, [(claim seq, claim), ...])`` groups, re-iterable.

        Groups arrive in item first-seen order; within a group claims
        are in claim order with ``(source, item)`` duplicates dropped
        (first wins). Each call starts a fresh merge over the runs.
        """
        current_item: str | None = None
        current: list[tuple[int, Claim]] = []
        seen_sources: set[str] = set()
        for __, seq, item_id, source_id, value in self._sorter.sorted_stream():
            if item_id != current_item:
                if current_item is not None:
                    yield current_item, current
                current_item = item_id
                current = []
                seen_sources = set()
            if source_id in seen_sources:
                continue
            seen_sources.add(source_id)
            current.append((seq, Claim(source_id, item_id, value)))
        if current_item is not None:
            yield current_item, current

    def groups(self) -> Iterator[tuple[str, list[Claim]]]:
        """``(item_id, claims)`` groups — :meth:`indexed_groups` minus seqs."""
        for item_id, indexed in self.indexed_groups():
            yield item_id, [claim for __, claim in indexed]

    def release(self) -> None:
        """Release the resident buffer's budget tracking."""
        self._sorter.release()


def stream_voting(groups: SpillableClaimGroups) -> FusionResult:
    """Majority voting over a claim stream.

    Bit-identical to :class:`repro.fusion.VotingFuser` over the
    equivalent ClaimSet — including its first-in-claim-order tie-break.
    """
    if groups.n_claims == 0:
        raise EmptyInputError("claim set is empty")
    chosen: dict[str, str] = {}
    confidence: dict[str, float] = {}
    for item, claims in groups.groups():
        counts: dict[str, int] = {}
        for claim in claims:
            counts[claim.value] = counts.get(claim.value, 0) + 1
        total = sum(counts.values())
        best_value = max(
            counts,
            key=lambda value: (counts[value], -list(counts).index(value)),
        )
        chosen[item] = best_value
        confidence[item] = counts[best_value] / total if total else 0.0
    return FusionResult(chosen=chosen, confidence=confidence)


def _group_posteriors(
    claims: list[Claim],
    accuracy: Mapping[str, float],
    n_false_values: int,
) -> tuple[list[str], dict[str, float]]:
    """One item's value posteriors, mirroring ``AccuVote._posteriors``.

    Values in first-seen order; per-value scores sum supporter vote
    counts in claim order; softmax with peak subtraction — the same
    operations in the same order as the in-memory implementation, so
    every float matches exactly.
    """
    values: dict[str, None] = {}
    for claim in claims:
        values.setdefault(claim.value, None)
    ordered = list(values)
    scores = []
    for value in ordered:
        scores.append(
            sum(
                vote_count(accuracy[claim.source_id], n_false_values)
                for claim in claims
                if claim.value == value
            )
        )
    peak = max(scores)
    exps = [math.exp(score - peak) for score in scores]
    total = sum(exps)
    posteriors = {
        value: weight / total for value, weight in zip(ordered, exps)
    }
    return ordered, posteriors


def stream_accuvote(
    groups: SpillableClaimGroups,
    store,
    budget: MemoryBudget,
    *,
    n_false_values: int = 10,
    initial_accuracy: float = 0.8,
    known_accuracies: Mapping[str, float] | None = None,
    max_iterations: int = 50,
    tolerance: float = 1e-4,
) -> FusionResult:
    """AccuVote over a claim stream, bit-identical to the in-memory run.

    The accuracy update is the delicate part: in memory, a source's
    accuracy is ``sum(posterior of its claims in claim order) / count``,
    and float addition order changes the low bits. The stream arrives
    grouped by *item*, so each iteration spills per-claim posterior
    contributions keyed by claim seq and merges them back into claim
    order before summing — restoring the exact addition sequence.
    """
    if groups.n_claims == 0:
        raise EmptyInputError("claim set is empty")
    if n_false_values < 1:
        raise ConfigurationError("n_false_values must be >= 1")
    if not 0.0 < initial_accuracy < 1.0:
        raise ConfigurationError("initial_accuracy must be in (0, 1)")
    sources = groups.sources()
    if known_accuracies is not None:
        accuracy = {
            source: known_accuracies.get(source, initial_accuracy)
            for source in sources
        }
        acc_used = accuracy
        iterations = 1
    else:
        accuracy = {source: initial_accuracy for source in sources}
        acc_used = accuracy
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            acc_used = accuracy
            contributions = ExternalSorter(store, budget, name="accu.contrib")
            for __, indexed in groups.indexed_groups():
                claims = [claim for __, claim in indexed]
                _, posteriors = _group_posteriors(
                    claims, accuracy, n_false_values
                )
                for seq, claim in indexed:
                    contributions.add(
                        (seq, claim.source_id, posteriors[claim.value]),
                        entry_nbytes(claim.source_id, 0, 0.0),
                    )
            sums: dict[str, float] = {}
            counts: dict[str, int] = {}
            for __, source_id, posterior in contributions.sorted_stream():
                sums[source_id] = sums.get(source_id, 0) + posterior
                counts[source_id] = counts.get(source_id, 0) + 1
            contributions.discard()
            new_accuracy: dict[str, float] = {}
            for source in sources:
                mean_posterior = sums[source] / counts[source]
                new_accuracy[source] = min(
                    _ACCURACY_CEIL,
                    max(_ACCURACY_FLOOR, mean_posterior),
                )
            change = max(
                abs(new_accuracy[s] - accuracy[s]) for s in sources
            )
            accuracy = new_accuracy
            if change < tolerance:
                break
    # The in-memory path picks winners from the posteriors of the final
    # iteration, which were computed with that iteration's *pre-update*
    # accuracies — hence acc_used, not accuracy, here.
    chosen: dict[str, str] = {}
    confidence: dict[str, float] = {}
    for item_id, indexed in groups.indexed_groups():
        claims = [claim for __, claim in indexed]
        ordered, posteriors = _group_posteriors(
            claims, acc_used, n_false_values
        )
        best = max(ordered, key=lambda v: (posteriors[v], v))
        chosen[item_id] = best
        confidence[item_id] = posteriors[best]
    return FusionResult(
        chosen=chosen,
        confidence=confidence,
        source_accuracy=dict(accuracy),
        iterations=iterations,
    )
