"""Bounded-memory grouped claims: the out-of-core claim source.

:class:`SpillableClaimGroups` accumulates claims out of core and
streams them back grouped by item, in item first-seen order with each
item's claims in claim order and at most one claim per
``(source, item)`` (first wins) — exactly the value-table groups a
:class:`~repro.fusion.base.ClaimSet` built by the in-memory pipeline
presents to the fusers. It answers the same questions a fuser asks
of its claims (``require_nonempty``, ``sources``, ``groups``,
``score``, ``choose``), so every fuser that reads nothing but one
item's claims at a time — voting, AccuVote, TruthFinder — runs on it
unchanged and reproduces its in-memory output **bit for bit**. Fusion's
sums are exact, so :meth:`SpillableClaimGroups.score` adds each source's
scores in stream order into one exact accumulator per source and spills
nothing of its own. It does not look for repeated supporter patterns:
each group is scored once as it streams and its winner taken there —
the stream keeps no scores to choose from later — and only item and
source ids, the winners and the per-source accumulators stay resident.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import EmptyInputError
from repro.fusion.accu import AccuVote
from repro.fusion.base import FusionResult, Group, ItemScorer, Scores
from repro.outofcore.budget import MemoryBudget
from repro.outofcore.spill import ExternalSorter, entry_nbytes

__all__ = [
    "ClaimStreamSummary",
    "SpillableClaimGroups",
    "stream_accuvote",
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
    claims are dropped at stream time, first claim wins, as the
    in-memory pipeline asks its ClaimSet before adding.
    """

    def __init__(self, store, budget: MemoryBudget) -> None:
        self._sorter = ExternalSorter(store, budget, name="claims")
        self._item_seq: dict[str, int] = {}
        self._source_seq: dict[str, int] = {}
        self._n_added = 0
        self._n_kept: int | None = None

    def __len__(self) -> int:
        """Claims kept: those :meth:`groups` streams, each source's
        first claim on an item. Known after a whole pass over the groups;
        asked before one, it makes one."""
        if self._n_kept is None:
            for __ in self.groups():
                pass
        return self._n_kept

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
        self._n_kept = None

    def sources(self) -> tuple[str, ...]:
        """Source ids in first-seen order (ClaimSet.sources semantics)."""
        return tuple(self._source_seq)

    def items(self) -> tuple[str, ...]:
        """Item ids in first-seen order (ClaimSet.items semantics)."""
        return tuple(self._item_seq)

    def summary(self) -> ClaimStreamSummary:
        """The stream's cardinalities for reports and results."""
        return ClaimStreamSummary(
            n_claims=len(self),
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
        kept = 0
        for number, __, item_id, source_id, value in (
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
            kept += 1
            k = local.get(value)
            if k is None:
                k = local[value] = len(supporters)
                supporters.append([])
            supporters[k].append(position[source_id])
        if item is not None:
            yield item, list(local), supporters, pattern
        self._n_kept = kept

    def score(
        self, score_item: ItemScorer, reads_values: bool = False
    ) -> tuple[Scores, dict[str, float]]:
        """:func:`~repro.fusion.base.score` over the stream.

        Each group is scored alone as it arrives, whatever
        ``reads_values`` says, and its winner taken: the round's
        :data:`~repro.fusion.base.Scores` are ``(chosen, confidence)``.
        A source's scores are added as they stream, each as an exact
        integer multiple of 2**-1074 (the smallest float), and the total
        is rounded once, then divided by the count: what ``math.fsum``
        and the division give in memory, bit for bit.
        """
        sources = self.sources()
        totals = [0] * len(sources)
        counts = [0] * len(sources)
        chosen: dict[str, str] = {}
        confidence: dict[str, float] = {}
        for item, values, supporters, __ in self.groups():
            scores = score_item(values, supporters)
            confidence[item], chosen[item] = max(zip(scores, values))
            for who, score in zip(supporters, scores):
                n, d = score.as_integer_ratio()
                exact = n << (1075 - d.bit_length())
                for p in who:
                    totals[p] += exact
                    counts[p] += 1
        means = {
            source: totals[p] / (1 << 1074) / counts[p]
            for p, source in enumerate(sources)
        }
        return (chosen, confidence), means

    def choose(
        self, scores: Scores
    ) -> tuple[dict[str, str], dict[str, float]]:
        """:func:`~repro.fusion.base.choose`: the winners :meth:`score`
        took as the groups streamed."""
        return scores

    def require_nonempty(self) -> None:
        """Raise :class:`EmptyInputError` when there are no claims."""
        if not self._n_added:
            raise EmptyInputError("claim set is empty")

    def release(self) -> None:
        """Release the resident buffer's budget tracking."""
        self._sorter.release()


def stream_accuvote(
    groups: SpillableClaimGroups, store, budget: MemoryBudget, **params
) -> FusionResult:
    """AccuVote over a claim stream: ``AccuVote(**params).fuse(groups)``.
    ``store`` and ``budget`` are unused: the sweep spills nothing of its
    own."""
    return AccuVote(**params).fuse(groups)
