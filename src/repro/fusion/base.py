"""Data model for data fusion: claims, claim sets, fusion results.

Fusion operates on *data items* — (entity, attribute) pairs — and the
*claims* sources make about them. A :class:`ClaimSet` is the triple
store of who-said-what, indexed both by item and by source; every
fusion algorithm consumes one and produces a :class:`FusionResult`.

The truth-discovery fusers share one pass over the claims: a fuser is
the rule scoring one item's claimed values under the current source
weights, :func:`score` turns that rule into the round's scores and every
source's mean score, and :func:`choose` turns scores into every item's
winner — asked only of the round whose winners are read. The pass reads
the claims as a value table (:attr:`ClaimIndex.value_table`): plain
lists indexed by source position, built once per claim set, in which
items claimed alike share one numbered *supporter pattern* — scored
once by a rule that reads no values, and its winner picked once.

Every float sum in fusion is :func:`math.fsum`: correctly rounded, so a
sum depends on neither the order its terms arrive in nor the Python
version, and no fused number depends on claim order beyond the tie rules
that name it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, pairwise, repeat
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.core.errors import DataModelError, EmptyInputError

__all__ = ["Claim", "ClaimSet", "FusionResult", "Fuser"]

#: ``ord("1")``: a set bit in the ``"0"``/``"1"`` string a mask is read from.
_SET = 49


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

    What every sweep reads: :attr:`value_table`. Who claims what, as
    bitmasks — the half of copy detection that does not depend on what
    is believed true: :attr:`bitsets`. All of it is read from the set's
    columns: per item its ``{source: value}`` map, per source its items,
    each in claim order.
    """

    def __init__(
        self,
        by_item: Mapping[str, Mapping[str, str]],
        by_source: Mapping[str, Sequence[str]],
    ) -> None:
        self._by_item = by_item
        self._by_source = by_source
        self.n_claims = sum(map(len, by_source.values()))

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
        for item, claimed in self._by_item.items():
            local: dict[str, int] = {}
            supporters: list[list[int]] = []
            for source, value in claimed.items():
                k = local.get(value)
                if k is None:
                    k = local[value] = len(supporters)
                    supporters.append([])
                supporters[k].append(position[source])
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
        by_item = self._by_item
        slots = [
            [slot_of[item][by_item[item][source]] for item in items]
            for source, items in self._by_source.items()
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
            [shift[item] + slot for item, slot in zip(items, own)]
            for items, own in zip(self._by_source.values(), slots)
        ]

    @cached_property
    def bitsets(
        self,
    ) -> tuple[dict[str, int], dict[str, int], dict[tuple[str, str], int]]:
        """``(items, keys, key_number)``, from the value table's groups.

        Item ``i`` is the ``i``-th group and claim key ``(item, value)``
        is numbered as :attr:`group_slots` numbers slots, every group's
        values one after another (``key_number``). ``items[source]`` has
        bit ``i`` set for each item the source claims and
        ``keys[source]`` the bit of each of its claim keys, so what two
        sources share is the popcount of an ``&``. Each mask is read
        once from a ``"0"``/``"1"`` string, lowest bit last: OR-ing a
        bit in per claim copies the growing int each time (8.2 against
        4.9 ms on ``fuse_copiers``' 27k claims).
        """
        groups = self.value_table[0]
        key_number: dict[tuple[str, str], int] = {}
        for item, values, __, __ in groups:
            for value in values:
                key_number[item, value] = len(key_number)
        items = [bytearray(b"0") * len(groups) for __ in self._by_source]
        keys = [bytearray(b"0") * len(key_number) for __ in self._by_source]
        key = 0
        for i, (__, __, supporters, __) in enumerate(groups):
            for who in supporters:
                for p in who:
                    items[p][i] = keys[p][key] = _SET
                key += 1
        return (
            {s: int(bits[::-1], 2) for s, bits in zip(self._by_source, items)},
            {s: int(bits[::-1], 2) for s, bits in zip(self._by_source, keys)},
            key_number,
        )


class ClaimSet:
    """An indexed collection of claims, held as columns.

    Enforces that a source makes at most one claim per item (the
    single-truth assumption of the classical fusion setting): the first
    claim on a ``(source, item)`` wins. The claims are kept as ids and
    values, never as objects: per item an insertion-ordered
    ``{source: value}`` map, per source its items in claim order, and
    the claim order itself as two parallel id lists. A :class:`Claim`
    is built only when one is asked for (:attr:`claims`, iteration,
    :meth:`claims_for`, :meth:`claims_by`), per call and never kept.
    """

    #: The :class:`ClaimIndex` of :meth:`index` — the sweep's value table
    #: and copy detection's bitsets — once asked for. A class default and
    #: never pickled, so a state written without it loads.
    _index: ClaimIndex | None = None

    def __init__(self, claims: Iterable[Claim] = ()) -> None:
        self._by_item: dict[str, dict[str, str]] = {}
        self._by_source: dict[str, list[str]] = {}
        self._claim_sources: list[str] = []
        self._claim_items: list[str] = []
        for claim in claims:
            self.add(claim)

    def offer(self, source_id: str, item_id: str, value: str) -> bool:
        """Add a claim unless ``source_id`` already claims ``item_id``
        (the first claim wins); whether it was added."""
        if not source_id or not item_id:
            raise DataModelError("claims need non-empty source and item ids")
        claimed = self._by_item.get(item_id)
        if claimed is None:
            claimed = self._by_item[item_id] = {}
        elif source_id in claimed:
            return False
        claimed[source_id] = value
        items = self._by_source.get(source_id)
        if items is None:
            items = self._by_source[source_id] = []
        items.append(item_id)
        self._claim_sources.append(source_id)
        self._claim_items.append(item_id)
        return True

    def add(self, claim: Claim) -> None:
        """Add a claim; rejects a second claim by the same source on the
        same item."""
        if not self.offer(claim.source_id, claim.item_id, claim.value):
            raise DataModelError(
                f"source {claim.source_id!r} already claims item "
                f"{claim.item_id!r}"
            )

    @property
    def claims(self) -> tuple[Claim, ...]:
        """All claims in insertion order."""
        return tuple(self)

    def items(self) -> tuple[str, ...]:
        """All item ids, in first-seen order."""
        return tuple(self._by_item)

    def sources(self) -> tuple[str, ...]:
        """All source ids, in first-seen order."""
        return tuple(self._by_source)

    def claims_for(self, item_id: str) -> tuple[Claim, ...]:
        """All claims about ``item_id``, in claim order."""
        return tuple(
            Claim(source, item_id, value)
            for source, value in self._by_item.get(item_id, {}).items()
        )

    def claims_by(self, source_id: str) -> tuple[Claim, ...]:
        """All claims made by ``source_id``, in claim order."""
        by_item = self._by_item
        return tuple(
            Claim(source_id, item, by_item[item][source_id])
            for item in self._by_source.get(source_id, ())
        )

    def value_of(self, source_id: str, item_id: str) -> str | None:
        """The value ``source_id`` claims for ``item_id``, if any."""
        claimed = self._by_item.get(item_id)
        return None if claimed is None else claimed.get(source_id)

    def values_for(self, item_id: str) -> tuple[str, ...]:
        """Distinct values claimed for ``item_id``, in first-seen order."""
        return tuple(dict.fromkeys(self._by_item.get(item_id, {}).values()))

    def supporters(self, item_id: str, value: str) -> tuple[str, ...]:
        """Sources claiming ``value`` for ``item_id``."""
        return tuple(
            source
            for source, said in self._by_item.get(item_id, {}).items()
            if said == value
        )

    def shared_items(self, source_a: str, source_b: str) -> tuple[str, ...]:
        """Items both sources claim (the overlap copy detection studies)."""
        items_a = set(self._by_source.get(source_a, ()))
        return tuple(
            item
            for item in self._by_source.get(source_b, ())
            if item in items_a
        )

    def index(self) -> ClaimIndex:
        """The value table the sweep reads and the per-source bitsets
        copy detection reads, each built on first use; all rebuilt when
        claims were added since."""
        index = self._index
        if index is None or index.n_claims != len(self):
            index = self._index = ClaimIndex(self._by_item, self._by_source)
        return index

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_index", None)
        return state

    def __setstate__(self, state: dict) -> None:
        if "_claims" in state:
            # Written before the columns: one Claim object per claim,
            # in insertion order, beside per-item and per-source lists.
            ClaimSet.__init__(self, state["_claims"])
        else:
            self.__dict__.update(state)

    def restricted_to_sources(self, source_ids: Iterable[str]) -> "ClaimSet":
        """A new claim set keeping only claims by the given sources."""
        keep = set(source_ids)
        subset = ClaimSet()
        for source, item in zip(self._claim_sources, self._claim_items):
            if source in keep:
                subset.offer(source, item, self._by_item[item][source])
        return subset

    def require_nonempty(self) -> None:
        """Raise :class:`EmptyInputError` when there are no claims."""
        if not self._claim_sources:
            raise EmptyInputError("claim set is empty")

    def groups(self) -> list[Group]:
        """``(item, values, supporters, pattern)`` per item in first-seen
        order: the value table's groups (:attr:`ClaimIndex.value_table`),
        the table's own lists — read them, never change them."""
        return self.index().value_table[0]

    def score(
        self, score_item: ItemScorer, reads_values: bool = False
    ) -> tuple[Scores, dict[str, float]]:
        """:func:`score` over this set, from its value table.

        Each supporter pattern is scored once — each group, when the
        rule reads values. Concatenated in scoring order, the scores are
        indexed by slot, and a source's mean is the exact sum of its
        slots' scores over their count. Only the concatenation and where
        each unit starts in it are kept: a list per pattern held for the
        whole sweep is enough new container objects to bring the cyclic
        collector round several times per sweep.
        """
        index = self.index()
        groups, patterns, slots = index.value_table
        if reads_values:
            units = ((values, who) for __, values, who, __ in groups)
            slots = index.group_slots
        else:
            units = zip(repeat(None), patterns)
        flat: list[float] = []
        starts = [0]
        for values, who in units:
            flat += score_item(values, who)
            starts.append(len(flat))
        means = {
            source: math.fsum(map(flat.__getitem__, own)) / len(own)
            for source, own in zip(self._by_source, slots)
        }
        return (flat, starts, reads_values), means

    def choose(
        self, scores: Scores
    ) -> tuple[dict[str, str], dict[str, float]]:
        """:func:`choose` over this set: each item's winner, in item
        first-seen order.

        Each scored unit — a pattern, or a group when the rule read
        values — is looked at once: when one of its scores is larger
        than every other, that value's index wins in every item of the
        unit, since ``(score, value)`` pairs then order by score alone.
        Where the top score is not strictly unique (a tie, ``0.0``
        against ``-0.0``), the item's own ``max(zip(scores, values))``
        decides.
        """
        flat, starts, per_group = scores
        top: list[int] = []
        for first, end in pairwise(starts):
            unit = flat[first:end]
            best = max(unit)
            top.append(unit.index(best) if unit.count(best) == 1 else -1)
        chosen: dict[str, str] = {}
        confidence: dict[str, float] = {}
        for g, (item, values, __, number) in enumerate(self.groups()):
            unit = g if per_group else number
            k, first = top[unit], starts[unit]
            if k < 0:
                confidence[item], chosen[item] = max(
                    zip(flat[first : starts[unit + 1]], values)
                )
            else:
                chosen[item], confidence[item] = values[k], flat[first + k]
        return chosen, confidence

    def __len__(self) -> int:
        return len(self._claim_sources)

    def __iter__(self) -> Iterator[Claim]:
        by_item = self._by_item
        for source, item in zip(self._claim_sources, self._claim_items):
            yield Claim(source, item, by_item[item][source])

    def __repr__(self) -> str:
        return (
            f"ClaimSet(claims={len(self)}, "
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
        ``sources()``, ``groups()`` (one :data:`Group` per item),
        ``score(score_item, reads_values)`` and ``choose(scores)`` as
        :class:`ClaimSet` does — the set itself, or a
        :class:`repro.outofcore.SpillableClaimGroups` holding the same
        claims on disk. A fuser that reads nothing
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
    total = math.fsum(exps)
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


#: Folded into the state signature of a solver that chooses once, after
#: its last round, so its loop state is its weights and that round's
#: :data:`Scores`: a state saved in another layout (a whole
#: :class:`FusionResult`, as every solver saved before) reads as absent.
SCORED_STATE = "weights-and-scores"

#: What :func:`score` hands :func:`choose`: a claim source's own record of
#: one round's scores, to be read back only by the source that made it.
Scores = tuple


def score(
    claims: ClaimSet, score_item: ItemScorer, reads_values: bool = False
) -> tuple[Scores, dict[str, float]]:
    """One pass of ``score_item`` over every item of a claim source.

    Returns ``(scores, means)``: the round's scores, which only
    :func:`choose` on the same claims reads, and each source's mean
    score over the values it claimed. A rule that reads nothing of an
    item but its supporters scores equal supporters equally, so the
    claim source may score each supporter pattern once;
    ``reads_values`` says the rule reads the values too (TruthFinder's
    implication), and then every item is scored alone.
    """
    return claims.score(score_item, reads_values)


def choose(
    claims, scores: Scores
) -> tuple[dict[str, str], dict[str, float]]:
    """``(chosen, confidence)`` from one round's :func:`score`: each
    item's best-scored value (ties to the larger value string) and its
    score."""
    return claims.choose(scores)


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
