"""Data model for data fusion: claims, claim sets, fusion results.

Fusion operates on *data items* — (entity, attribute) pairs — and the
*claims* sources make about them. A :class:`ClaimSet` is the triple
store of who-said-what, indexed both by item and by source; every
fusion algorithm consumes one and produces a :class:`FusionResult`.

The truth-discovery fusers share one pass over the claims: a fuser is
the rule scoring one item's claimed values under the current source
weights, and :func:`sweep` turns that rule into every item's winner and
every source's mean score. The pass reads the claims as a value table
(:attr:`ClaimIndex.value_table`): plain lists indexed by source
position, built once per claim set, in which items claimed alike share
one numbered *supporter pattern* — scored once by a rule that reads no
values.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate, repeat
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.core.errors import DataModelError, EmptyInputError

__all__ = ["Claim", "ClaimSet", "FusionResult", "Fuser"]


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added strictly left to right, starting from ``0``: the
    one float addition order of fusion. Builtin ``sum`` compensates its
    rounding since Python 3.12, so its low bits would depend on the
    interpreter; this is what it computed before."""
    return reduce(add, values, 0)


#: One item of the value table: its id, its distinct values in
#: first-seen order, per value the positions of the sources claiming it
#: in claim order, and the number of that supporter pattern. Groups with
#: one number have equal supporters.
Group = tuple[str, list[str], Sequence[Sequence[int]], int]

#: An item's supporters as a tuple of tuples: what items claimed alike
#: share in a :class:`ClaimSet`'s value table.
Pattern = tuple[tuple[int, ...], ...]


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
    """What fusion reads of a :class:`ClaimSet` beyond its claims, each
    part built on first use and valid while that set holds ``n_claims``
    claims (claims are only ever added).

    Who claims what, as sets — the half of copy detection that does not
    depend on what is believed true: ``items[source]`` is the set of
    items the source claims and ``keys[source]`` the set of its
    ``(item, value)`` claim keys, one tuple object per distinct key
    shared by every source claiming it. What every sweep reads:
    :attr:`value_table`.
    """

    def __init__(
        self,
        by_item: Mapping[str, Sequence[Claim]],
        by_source: Mapping[str, Sequence[Claim]],
    ) -> None:
        self._by_item = by_item
        self._by_source = by_source
        self.n_claims = sum(map(len, by_source.values()))
        self._overlaps: dict[tuple[str, str], tuple[int, int]] = {}

    @cached_property
    def items(self) -> dict[str, set[str]]:
        return {
            source: {claim.item_id for claim in claims}
            for source, claims in self._by_source.items()
        }

    @cached_property
    def keys(self) -> dict[str, set[tuple[str, str]]]:
        interned: dict[tuple[str, str], tuple[str, str]] = {}
        return {
            source: {
                interned.setdefault(key, key)
                for key in [(claim.item_id, claim.value) for claim in claims]
            }
            for source, claims in self._by_source.items()
        }

    @cached_property
    def value_table(
        self,
    ) -> tuple[list[Group], list[Pattern], list[list[int]]]:
        """``(groups, patterns, slots)``, in one pass over the claims by
        item and one by source.

        ``groups`` holds every item in first-seen order as a
        :data:`Group`; a source's *position* is its first-seen rank.
        ``patterns`` holds each distinct :data:`Pattern` once, numbered
        in first-seen order, and every group of a pattern shares that
        tuple as its supporters. Numbering the values of every pattern
        one after another gives each ``(pattern, value index)`` a flat
        *slot*, and ``slots[position]`` lists the slots of that source's
        claims in its own claim order — so a sweep's scores, one list
        per pattern, concatenated, are one list each source's mean reads
        by index.
        """
        position = {source: p for p, source in enumerate(self._by_source)}
        groups: list[Group] = []
        patterns: list[Pattern] = []
        numbered: dict[Pattern, tuple[int, int]] = {}
        slot_of: dict[str, dict[str, int]] = {}
        n_slots = 0
        for item, claims in self._by_item.items():
            local: dict[str, int] = {}
            supporters: list[list[int]] = []
            for claim in claims:
                k = local.get(claim.value)
                if k is None:
                    k = local[claim.value] = len(supporters)
                    supporters.append([])
                supporters[k].append(position[claim.source_id])
            pattern = tuple(map(tuple, supporters))
            number, first = numbered.setdefault(
                pattern, (len(patterns), n_slots)
            )
            if number == len(patterns):
                patterns.append(pattern)
                n_slots += len(pattern)
            groups.append((item, list(local), patterns[number], number))
            for value in local:
                local[value] += first
            slot_of[item] = local
        slots = [
            [slot_of[claim.item_id][claim.value] for claim in claims]
            for claims in self._by_source.values()
        ]
        return groups, patterns, slots

    @cached_property
    def group_slots(self) -> list[list[int]]:
        """:attr:`value_table`'s ``slots``, numbered per group instead of
        per pattern — every group's values one after another — for a
        sweep whose rule reads values and so scores each group alone."""
        groups, patterns, slots = self.value_table
        starts = [0, *accumulate(map(len, patterns))]
        shift: dict[str, int] = {}
        n_slots = 0
        for item, values, __, number in groups:
            shift[item] = n_slots - starts[number]
            n_slots += len(values)
        return [
            [shift[claim.item_id] + slot for claim, slot in zip(claims, own)]
            for claims, own in zip(self._by_source.values(), slots)
        ]

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

    #: The :class:`ClaimIndex` of :meth:`index` — copy detection's sets
    #: and the sweep's value table — once asked for. A class default and
    #: never pickled, so a state written without it loads.
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
        """The per-source item and claim-key sets copy detection reads
        and the value table the sweep reads, each built on first use;
        all rebuilt when claims were added since."""
        index = self._index
        if index is None or index.n_claims != len(self._claims):
            index = self._index = ClaimIndex(self._by_item, self._by_source)
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

    def groups(self) -> list[Group]:
        """``(item, values, supporters, pattern)`` per item in first-seen
        order: the value table's groups (:attr:`ClaimIndex.value_table`),
        the table's own lists — read them, never change them."""
        return self.index().value_table[0]

    def sweep(
        self, score_item: ItemScorer, reads_values: bool = False
    ) -> tuple[dict[str, str], dict[str, float], dict[str, float]]:
        """:func:`sweep` over this set, from its value table.

        Each supporter pattern is scored once — each group, when the
        rule reads values — and every item takes its scores, in item
        first-seen order. Concatenated in scoring order, the scores are
        indexed by slot, and a source's are summed over its slots in its
        own claim order, which fixes the float addition order. Only the
        concatenation is kept: a list per pattern held for the whole
        sweep is enough new container objects to bring the cyclic
        collector round several times per sweep.
        """
        index = self.index()
        groups, patterns, slots = index.value_table
        if reads_values:
            units = ((values, who) for __, values, who, __ in groups)
            unit_of = range(len(groups))
            slots = index.group_slots
        else:
            units = zip(repeat(None), patterns)
            unit_of = [group[3] for group in groups]
        flat: list[float] = []
        starts = [0]
        for values, who in units:
            flat += score_item(values, who)
            starts.append(len(flat))
        chosen: dict[str, str] = {}
        confidence: dict[str, float] = {}
        for (item, values, __, __), unit in zip(groups, unit_of):
            first = starts[unit]
            if len(values) == 1:
                chosen[item], confidence[item] = values[0], flat[first]
            else:
                confidence[item], chosen[item] = max(
                    zip(flat[first : starts[unit + 1]], values)
                )
        means = {
            source: ordered_sum(map(flat.__getitem__, own)) / len(own)
            for source, own in zip(self._by_source, slots)
        }
        return chosen, confidence, means

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
        ``sources()``, ``groups()`` (one :data:`Group` per item) and
        ``sweep(score_item, reads_values)`` as :class:`ClaimSet` does — the
        set itself, or a :class:`repro.outofcore.SpillableClaimGroups`
        holding the same claims on disk. A fuser that reads nothing
        else (voting, AccuVote, TruthFinder) gives identical output on
        either; one that reads across items (AccuCopy's copy detector,
        through :meth:`ClaimSet.index`) needs the :class:`ClaimSet` and
        refuses anything else by name.
        """
        raise NotImplementedError


def softmax(scores: Sequence[float]) -> list[float]:
    """Normalise log-scores into probabilities, peak subtracted first."""
    peak = max(scores)
    exps = [math.exp(score - peak) for score in scores]
    total = ordered_sum(exps)
    return [weight / total for weight in exps]


#: One item's values and each value's supporters (a :data:`Group`'s
#: middle two fields) to one score per value: the rule that distinguishes
#: a fuser. A fuser's ``item_scorer(weights)`` builds it from weights
#: keyed by every source in first-seen order, so a weight's rank in the
#: mapping is the source position a supporter names. Unless the sweep is
#: told the rule reads values, it may be asked once per supporter
#: pattern and handed ``None`` for them.
ItemScorer = Callable[
    [Optional[Sequence[str]], Sequence[Sequence[int]]], list[float]
]


def sweep(
    claims, score_item: ItemScorer, reads_values: bool = False
) -> tuple[dict[str, str], dict[str, float], dict[str, float]]:
    """One pass of ``score_item`` over every item of a claim source.

    Returns ``(chosen, confidence, means)``: each item's best-scored
    value (ties to the larger value string) and its score, and each
    source's mean score over the values it claimed. A rule that reads
    nothing of an item but its supporters scores equal supporters
    equally, so the claim source may score each supporter pattern once;
    ``reads_values`` says the rule reads the values too (TruthFinder's
    implication), and then every item is scored alone.
    """
    return claims.sweep(score_item, reads_values)


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
