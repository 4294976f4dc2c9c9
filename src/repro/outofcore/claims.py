"""Bounded-memory grouped claims: the out-of-core claim source.

:class:`SpillableClaimGroups` accumulates claims out of core and
streams them back grouped by item, in item first-seen order with each
item's claims in claim order and at most one claim per
``(source, item)`` (first wins) — exactly the value-table groups a
:class:`~repro.fusion.base.ClaimSet` built by the in-memory pipeline
presents to the fusers. It answers the same four questions a fuser asks
of its claims (``require_nonempty``, ``sources``, ``groups``,
``sweep``), so every fuser that reads nothing but one item's claims at a
time — voting, AccuVote, TruthFinder — runs on it unchanged and
reproduces its in-memory output **bit for bit**. The one thing the
spilled side adds is in :meth:`SpillableClaimGroups.sweep`: per-claim
scores are re-sorted into claim order before summing, because float
addition order is part of the contract. It does not look for repeated
supporter patterns: each group is scored once as it streams, and only
item and source ids stay resident.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import EmptyInputError
from repro.fusion.accu import AccuVote
from repro.fusion.base import FusionResult, Group, ItemScorer
from repro.fusion.voting import VotingFuser
from repro.outofcore.budget import MemoryBudget
from repro.outofcore.spill import ExternalSorter, entry_nbytes

__all__ = [
    "ClaimStreamSummary",
    "SpillableClaimGroups",
    "stream_accuvote",
    "stream_voting",
]


class _Supporters(list):
    """One value's supporters as source positions in claim order, with
    their claims' arrival seqs in ``seqs``: what ``sweep`` puts the
    scores back into claim order by."""

    __slots__ = ("seqs",)

    def __init__(self) -> None:
        super().__init__()
        self.seqs: list[int] = []


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
    claims are dropped at stream time, first claim wins, as the
    in-memory pipeline asks its ClaimSet before adding.

    ``scratch`` is the ``(store, budget)`` that :meth:`sweep` spills
    its per-claim scores to — the claims' own unless rebound.
    """

    def __init__(self, store, budget: MemoryBudget) -> None:
        self._sorter = ExternalSorter(store, budget, name="claims")
        self.scratch = (store, budget)
        self._item_seq: dict[str, int] = {}
        self._source_seq: dict[str, int] = {}
        self._n_added = 0

    def __len__(self) -> int:
        """Claims added (before (source, item) deduplication)."""
        return self._n_added

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

    def groups(self) -> Iterator[Group]:
        """``(item, values, supporters, pattern)`` groups, re-iterable.

        Groups arrive in item first-seen order, values in first-seen
        order and each value's supporters in claim order, with
        ``(source, item)`` duplicates dropped (first wins). A source's
        position is its first-seen rank, as in the
        :class:`~repro.fusion.base.ClaimSet` — a source's first claim is
        never a duplicate. The stream never compares two groups, so each
        is its own pattern, numbered by its item's first-seen rank. Each
        call starts a fresh merge over the runs.
        """
        position = self._source_seq
        item = None
        for number, seq, item_id, source_id, value in (
            self._sorter.sorted_stream()
        ):
            if item_id != item:
                if item is not None:
                    yield item, list(local), supporters, pattern
                item, pattern = item_id, number
                local, supporters, seen = {}, [], set()
            if source_id in seen:
                continue
            seen.add(source_id)
            k = local.get(value)
            if k is None:
                k = local[value] = len(supporters)
                supporters.append(_Supporters())
            supporters[k].append(position[source_id])
            supporters[k].seqs.append(seq)
        if item is not None:
            yield item, list(local), supporters, pattern

    def sweep(
        self, score_item: ItemScorer, reads_values: bool = False
    ) -> tuple[dict[str, str], dict[str, float], dict[str, float]]:
        """:func:`~repro.fusion.base.sweep` over the stream.

        Each group is scored alone as it arrives, whatever
        ``reads_values`` says, and its winner taken. In memory a
        source's scores are summed in claim order, and float addition
        order changes the low bits; the stream arrives grouped by
        *item*, so the per-claim scores are spilled keyed by claim seq
        and merged back into claim order before summing.
        """
        sources = self.sources()
        store, budget = self.scratch
        contributions = ExternalSorter(store, budget, name="scores")
        chosen: dict[str, str] = {}
        confidence: dict[str, float] = {}
        for item, values, supporters, __ in self.groups():
            scores = score_item(values, supporters)
            confidence[item], chosen[item] = max(zip(scores, values))
            for who, score in zip(supporters, scores):
                for p, seq in zip(who, who.seqs):
                    contributions.add(
                        (seq, sources[p], score),
                        entry_nbytes(sources[p], 0, 0.0),
                    )
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for __, source_id, score in contributions.sorted_stream():
            sums[source_id] = sums.get(source_id, 0) + score
            counts[source_id] = counts.get(source_id, 0) + 1
        contributions.discard()
        means = {source: sums[source] / counts[source] for source in sums}
        return chosen, confidence, means

    def require_nonempty(self) -> None:
        """Raise :class:`EmptyInputError` when there are no claims."""
        if not self._n_added:
            raise EmptyInputError("claim set is empty")

    def release(self) -> None:
        """Release the resident buffer's budget tracking."""
        self._sorter.release()


def stream_voting(groups: SpillableClaimGroups) -> FusionResult:
    """Majority voting over a claim stream: ``VotingFuser`` itself."""
    return VotingFuser().fuse(groups)


def stream_accuvote(
    groups: SpillableClaimGroups, store, budget: MemoryBudget, **params
) -> FusionResult:
    """AccuVote over a claim stream: ``AccuVote(**params)`` itself, its
    per-iteration score round-trip spilling to ``store`` under
    ``budget``."""
    groups.scratch = (store, budget)
    return AccuVote(**params).fuse(groups)
