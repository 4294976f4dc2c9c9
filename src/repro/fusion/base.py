"""Data model for data fusion: claims, claim sets, fusion results.

Fusion operates on *data items* — (entity, attribute) pairs — and the
*claims* sources make about them. A :class:`ClaimSet` is the triple
store of who-said-what, indexed both by item and by source; every
fusion algorithm consumes one and produces a :class:`FusionResult`.

The truth-discovery fusers share one pass over the claims: a fuser is
the rule scoring one item's claimed values under the current source
weights, and :func:`sweep` turns that rule into every item's winner and
every source's mean score.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.errors import DataModelError, EmptyInputError

__all__ = ["Claim", "ClaimSet", "FusionResult", "Fuser"]


@dataclass(frozen=True)
class Claim:
    """One source's claimed value for one data item."""

    source_id: str
    item_id: str
    value: str

    def __post_init__(self) -> None:
        if not self.source_id or not self.item_id:
            raise DataModelError("claims need non-empty source and item ids")


class ClaimIndex:
    """Who claims what, as sets: the half of copy detection that does
    not depend on what is believed true.

    ``items[source]`` is the set of items the source claims and
    ``keys[source]`` the set of its ``(item, value)`` claim keys, one
    tuple object per distinct key shared by every source claiming it.
    Built in one pass over a :class:`ClaimSet` and valid while that set
    holds ``n_claims`` claims (claims are only ever added).
    """

    __slots__ = ("n_claims", "items", "keys", "_overlaps")

    def __init__(self, by_source: Mapping[str, Sequence[Claim]]) -> None:
        interned: dict[tuple[str, str], tuple[str, str]] = {}
        self.n_claims = sum(map(len, by_source.values()))
        self.items = {
            source: {claim.item_id for claim in claims}
            for source, claims in by_source.items()
        }
        self.keys = {
            source: {
                interned.setdefault(key, key)
                for key in [(claim.item_id, claim.value) for claim in claims]
            }
            for source, claims in by_source.items()
        }
        self._overlaps: dict[tuple[str, str], tuple[int, int]] = {}

    def overlap(self, source_a: str, source_b: str) -> tuple[int, int]:
        """``(shared, agree)``: how many items both sources claim, and on
        how many of those they claim the same value. Memoised per pair
        as asked; a source with no claims shares nothing."""
        pair = (source_a, source_b)
        counts = self._overlaps.get(pair)
        if counts is None:
            nothing: frozenset = frozenset()
            items_a, items_b = (self.items.get(s, nothing) for s in pair)
            keys_a, keys_b = (self.keys.get(s, nothing) for s in pair)
            counts = self._overlaps[pair] = (
                len(items_a & items_b),
                len(keys_a & keys_b),
            )
        return counts


class ClaimSet:
    """An indexed collection of claims.

    Enforces that a source makes at most one claim per item (the
    single-truth assumption of the classical fusion setting).
    """

    #: The :class:`ClaimIndex` of :meth:`index`, once asked for. A class
    #: default and never pickled, so a state written without it loads.
    _index: ClaimIndex | None = None

    def __init__(self, claims: Iterable[Claim] = ()) -> None:
        self._claims: list[Claim] = []
        self._by_item: dict[str, list[Claim]] = defaultdict(list)
        self._by_source: dict[str, list[Claim]] = defaultdict(list)
        self._value: dict[tuple[str, str], str] = {}
        for claim in claims:
            self.add(claim)

    def add(self, claim: Claim) -> None:
        """Add a claim; rejects a second claim by the same source on the
        same item."""
        key = (claim.source_id, claim.item_id)
        if key in self._value:
            raise DataModelError(
                f"source {claim.source_id!r} already claims item "
                f"{claim.item_id!r}"
            )
        self._claims.append(claim)
        self._by_item[claim.item_id].append(claim)
        self._by_source[claim.source_id].append(claim)
        self._value[key] = claim.value

    @property
    def claims(self) -> tuple[Claim, ...]:
        """All claims in insertion order."""
        return tuple(self._claims)

    def items(self) -> tuple[str, ...]:
        """All item ids, in first-seen order."""
        return tuple(self._by_item)

    def sources(self) -> tuple[str, ...]:
        """All source ids, in first-seen order."""
        return tuple(self._by_source)

    def claims_for(self, item_id: str) -> tuple[Claim, ...]:
        """All claims about ``item_id``."""
        return tuple(self._by_item.get(item_id, ()))

    def claims_by(self, source_id: str) -> tuple[Claim, ...]:
        """All claims made by ``source_id``."""
        return tuple(self._by_source.get(source_id, ()))

    def value_of(self, source_id: str, item_id: str) -> str | None:
        """The value ``source_id`` claims for ``item_id``, if any."""
        return self._value.get((source_id, item_id))

    def values_for(self, item_id: str) -> tuple[str, ...]:
        """Distinct values claimed for ``item_id``, in first-seen order."""
        seen: dict[str, None] = {}
        for claim in self._by_item.get(item_id, ()):
            seen.setdefault(claim.value, None)
        return tuple(seen)

    def supporters(self, item_id: str, value: str) -> tuple[str, ...]:
        """Sources claiming ``value`` for ``item_id``."""
        return tuple(
            claim.source_id
            for claim in self._by_item.get(item_id, ())
            if claim.value == value
        )

    def shared_items(self, source_a: str, source_b: str) -> tuple[str, ...]:
        """Items both sources claim (the overlap copy detection studies)."""
        items_a = {claim.item_id for claim in self._by_source.get(source_a, ())}
        return tuple(
            claim.item_id
            for claim in self._by_source.get(source_b, ())
            if claim.item_id in items_a
        )

    def index(self) -> ClaimIndex:
        """The per-source item and claim-key sets copy detection reads,
        built on first use and rebuilt when claims were added since."""
        index = self._index
        if index is None or index.n_claims != len(self._claims):
            index = self._index = ClaimIndex(self._by_source)
        return index

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_index", None)
        return state

    def restricted_to_sources(self, source_ids: Iterable[str]) -> "ClaimSet":
        """A new claim set keeping only claims by the given sources."""
        keep = set(source_ids)
        return ClaimSet(
            claim for claim in self._claims if claim.source_id in keep
        )

    def require_nonempty(self) -> None:
        """Raise :class:`EmptyInputError` when there are no claims."""
        if not self._claims:
            raise EmptyInputError("claim set is empty")

    def groups(self) -> Iterable[tuple[str, Sequence[Claim]]]:
        """``(item_id, claims in claim order)`` in item first-seen order."""
        return self._by_item.items()

    def source_means(
        self,
        scored: Iterable[tuple[Sequence[Claim], Mapping[str, float]]],
    ) -> dict[str, float]:
        """Each source's mean score over the values it claimed.

        ``scored`` yields every group of :meth:`groups` with its
        ``{value: score}``. A source's scores are looked up and summed
        in its own claim order, which fixes the float addition order.
        """
        scores = {claims[0].item_id: by_value for claims, by_value in scored}
        return {
            source: sum(
                scores[claim.item_id][claim.value] for claim in claims
            )
            / len(claims)
            for source, claims in self._by_source.items()
        }

    def __len__(self) -> int:
        return len(self._claims)

    def __iter__(self) -> Iterator[Claim]:
        return iter(self._claims)

    def __repr__(self) -> str:
        return (
            f"ClaimSet(claims={len(self._claims)}, "
            f"items={len(self._by_item)}, sources={len(self._by_source)})"
        )


@dataclass(frozen=True)
class FusionResult:
    """Output of a fusion algorithm.

    Parameters
    ----------
    chosen:
        The value selected as true for each item.
    confidence:
        The algorithm's confidence (or posterior probability) in each
        chosen value, in ``[0, 1]`` where comparable.
    source_accuracy:
        Estimated accuracy of each source, when the algorithm estimates
        one (empty for plain voting).
    iterations:
        Number of iterations the algorithm ran (1 for non-iterative).
    copy_probability:
        Estimated probability that two sources are dependent, for
        copy-aware algorithms. Keys are unordered pairs spelled
        ``(a, b)`` with ``a < b``; which of the two copies is
        :meth:`CopyDetector.direction`'s question, not the key's.
    """

    chosen: Mapping[str, str]
    confidence: Mapping[str, float] = field(default_factory=dict)
    source_accuracy: Mapping[str, float] = field(default_factory=dict)
    iterations: int = 1
    copy_probability: Mapping[tuple[str, str], float] = field(
        default_factory=dict
    )

    def accuracy_against(self, truth: Mapping[str, str]) -> float:
        """Fraction of items (with known truth) answered correctly."""
        relevant = [item for item in truth if item in self.chosen]
        if not relevant:
            return 0.0
        correct = sum(
            1 for item in relevant if self.chosen[item] == truth[item]
        )
        return correct / len(relevant)


class Fuser:
    """Protocol-like base class for fusion algorithms.

    Subclasses implement :meth:`fuse`, taking a claim source and
    returning a :class:`FusionResult`.
    """

    name = "fuser"

    def fuse(self, claims: ClaimSet) -> FusionResult:
        """Fuse a claim source: whatever answers ``require_nonempty()``,
        ``sources()``, ``groups()`` and ``source_means(scored)`` the way
        :class:`ClaimSet` does — the set itself, or a
        :class:`repro.outofcore.SpillableClaimGroups` holding the same
        claims on disk. A fuser that reads nothing else (voting,
        AccuVote, TruthFinder) gives identical output on either; one
        that reads across items (AccuCopy's copy detector, through
        :meth:`ClaimSet.index`) needs the :class:`ClaimSet` and refuses
        anything else by name.
        """
        raise NotImplementedError


def softmax(scores: Mapping[str, float]) -> dict[str, float]:
    """Normalise log-scores into probabilities, peak subtracted first."""
    peak = max(scores.values())
    exps = [math.exp(score - peak) for score in scores.values()]
    total = sum(exps)
    return {value: weight / total for value, weight in zip(scores, exps)}


#: One item's claims, in claim order, to the score of each claimed
#: value, in first-seen order: the rule that distinguishes a fuser.
ItemScorer = Callable[[Sequence[Claim]], Mapping[str, float]]


def sweep(
    claims, score_item: ItemScorer
) -> tuple[dict[str, str], dict[str, float], dict[str, float]]:
    """One pass of ``score_item`` over every item of a claim source.

    Returns ``(chosen, confidence, means)``: each item's best-scored
    value (ties to the larger value string) and its score, and each
    source's mean score over the values it claimed.
    """
    chosen: dict[str, str] = {}
    confidence: dict[str, float] = {}

    def scored():
        for item, item_claims in claims.groups():
            scores = score_item(item_claims)
            best = max(scores, key=lambda value: (scores[value], value))
            chosen[item] = best
            confidence[item] = scores[best]
            yield item_claims, scores

    return chosen, confidence, claims.source_means(scored())


def reweigh(
    weights: Mapping[str, float],
    means: Mapping[str, float],
    floor: float,
    ceiling: float,
) -> tuple[dict[str, float], float]:
    """Source weights moved to their clamped mean scores, and the
    largest move any source made."""
    updated = {
        source: min(ceiling, max(floor, means[source])) for source in weights
    }
    return updated, max(abs(updated[s] - weights[s]) for s in weights)
