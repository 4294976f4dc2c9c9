"""Record-pair comparison: feature vectors and weighted scores.

A :class:`RecordComparator` holds a list of :class:`FieldComparator`
rules — which attribute to compare, with which similarity function, at
what weight. Comparing a pair yields a :class:`ComparisonVector` (one
similarity per field, ``None`` where either side lacks the field) and a
weighted aggregate score over the *present* fields.

Records from heterogeneous sources should be compared after mediated-
schema translation; pass ``translate`` to apply a
:class:`~repro.schema.mediated.MediatedSchema` on the fly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.text.normalize import normalize_value, parse_measurement
from repro.text.similarity import (
    cosine_similarity,
    dice_similarity,
    exact_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    measurement_similarity,
    model_number_factor,
    monge_elkan_similarity,
    monge_elkan_tokens,
    overlap_coefficient,
    product_name_similarity,
    product_name_similarity_tokens,
)
from repro.text.tokens import word_token_tuple

__all__ = [
    "BOUND_MARGIN",
    "MEMO_MAXSIZE",
    "FieldComparator",
    "ComparisonVector",
    "PreparedRecord",
    "BoundedComparison",
    "RecordComparator",
    "default_product_comparator",
    "similarity_spec",
]

#: Safety margin keeping early exits sound under float rounding: bounds
#: within this distance of the threshold never trigger an exit — the
#: pair is simply evaluated in full. Shared by the staged scalar scorer
#: and the columnar batch kernels so both reject identically.
BOUND_MARGIN = 1e-9

Translator = Callable[[Record], Mapping[str, str]]


def _raw_attributes(record: Record) -> Mapping[str, str]:
    """Default translator (module-level so comparators pickle)."""
    return record.attributes


# --- prepared-input fast path ---------------------------------------
#
# A similarity function is *preparable* when the per-value work it does
# (normalizing, tokenizing, parsing measurements) can be hoisted out of
# the pair loop. Each known similarity gets a spec: a relative cost
# rank (drives the staged early-exit evaluation order), a per-value
# ``prepare`` producing an immutable payload, a payload-level
# ``similarity`` that is arithmetic-identical to the string-level
# function, and optionally a payload-level ``bound``: a float no smaller
# than that similarity (``None`` when it knows nothing), cheaper than
# it. Unknown similarity callables fall back to a generic spec that
# passes the (cached-normalized) strings straight through.


class _SimilaritySpec(NamedTuple):
    cost: int
    prepare: Callable[[str], Any]
    similarity: Callable[[Any, Any], float]
    bound: Callable[[Any, Any], float | None] | None = None


#: Bound on each of a comparator's three memos (see
#: :attr:`RecordComparator.memos`); the value memo holds the product
#: name's model-number bounds beside its similarities. Redundant
#: sources re-publish the same values and tokens, so a run meets few
#: distinct keys; the ledger's largest, ``serve_mixed``, meets 6,863
#: token pairs (DESIGN.md entry 2 has every workload's counts). The
#: bound keeps what a long-lived service or a ``memory_budget`` run
#: holds constant.
MEMO_MAXSIZE = 8192

#: Cost rank from which a registered payload similarity goes through
#: the value memo: everything above the Jaro family (rank 4), whose
#: string payloads the token memo already serves, so nothing is cached
#: twice; below it a similarity costs about what the lookup would.
#: Every registered payload at these ranks is hashable (a string, or a
#: tuple of token tuple and frozenset).
_VALUE_MEMO_MIN_COST = 5


def _call(
    similarity: Callable[[Any, Any], float], left: Any, right: Any
) -> float:
    """What the value memo keeps: ``similarity(left, right)`` per
    ordered pair. Only the library's own payload similarities and
    bounds, which are pure, are ever memoized."""
    return similarity(left, right)


def _prepare_value(
    prepare: Callable[[str], Any], normalize: bool, value: str
) -> Any:
    """What the payload memo keeps: ``prepare`` of the (normalized)
    ``value``. Every record publishing the value shares the one payload
    object; no registered similarity mutates a payload (the ``Counter``
    of the cosine spec included), and an unknown callable only ever gets
    its string passed through."""
    return prepare(normalize_value(value) if normalize else value)


def _identity_payload(value: str) -> str:
    return value


def _prepare_token_set(value: str) -> frozenset[str]:
    return frozenset(word_token_tuple(value))


def _prepare_token_counts(value: str) -> Counter[str]:
    return Counter(word_token_tuple(value))


def _prepare_measurement(value: str) -> tuple[Any, str]:
    measurement = parse_measurement(value)
    base = measurement.in_base_unit() if measurement is not None else None
    return (base, value)


def _measurement_payload_similarity(
    text_similarity: Callable[[str, str], float],
    a: tuple[Any, str],
    b: tuple[Any, str],
) -> float:
    base_a, text_a = a
    base_b, text_b = b
    if base_a is None or base_b is None:
        # A side does not parse: normalized Levenshtein over the texts.
        return text_similarity(text_a.lower().strip(), text_b.lower().strip())
    if base_a.unit != base_b.unit:
        return 0.0
    # numeric_similarity(value_a, value_b, tolerance=0.05), operation
    # for operation (max() keeps its first argument unless the second
    # is greater); the columnar measurement kernel mirrors the same.
    value_a = base_a.value
    value_b = base_b.value
    if value_a == value_b:
        return 1.0
    scale_a = abs(value_a)
    scale_b = abs(value_b)
    scale = scale_b if scale_b > scale_a else scale_a
    if scale == 0.0:
        return 1.0
    similarity = 1.0 - abs(value_a - value_b) / scale / 0.05
    return similarity if similarity > 0.0 else 0.0


def _prepare_product_name(value: str) -> tuple[tuple[str, ...], frozenset[str]]:
    tokens = word_token_tuple(value)
    numbers = frozenset(
        token for token in tokens
        if any(character.isdigit() for character in token)
    )
    return (tokens, numbers)


def _product_name_payload_similarity(
    inner: Callable[[str, str], float],
    a: tuple[tuple[str, ...], frozenset[str]],
    b: tuple[tuple[str, ...], frozenset[str]],
) -> float:
    return product_name_similarity_tokens(a[0], a[1], b[0], b[1], inner)


def _product_name_payload_bound(
    inner: Callable[[str, str], float],
    a: tuple[tuple[str, ...], frozenset[str]],
    b: tuple[tuple[str, ...], frozenset[str]],
) -> float | None:
    """The name score's model-number factor: its Monge-Elkan base is at
    most 1, so the score is at most this, for no token grid."""
    return model_number_factor(a[1], b[1], inner)


def _monge_elkan_payload_similarity(
    inner: Callable[[str, str], float],
    a: tuple[tuple[str, ...], frozenset[str]],
    b: tuple[tuple[str, ...], frozenset[str]],
) -> float:
    return monge_elkan_tokens(a[0], b[0], inner)


#: Specs for the similarity functions the library ships. Costs are
#: relative ranks, cheap → expensive; they drive evaluation order and
#: decide (:data:`_VALUE_MEMO_MIN_COST`) which payload similarities a
#: comparator serves from its value memo. A payload similarity that
#: scores texts or tokens takes that scorer first, so a comparator can
#: bind its memoized one positionally (cheaper to call than a keyword).
_SIMILARITY_SPECS: dict[Callable[..., float], _SimilaritySpec] = {
    exact_similarity: _SimilaritySpec(0, _identity_payload, exact_similarity),
    measurement_similarity: _SimilaritySpec(
        1,
        _prepare_measurement,
        partial(_measurement_payload_similarity, levenshtein_similarity),
    ),
    jaccard_similarity: _SimilaritySpec(
        2, _prepare_token_set, jaccard_similarity
    ),
    dice_similarity: _SimilaritySpec(2, _prepare_token_set, dice_similarity),
    overlap_coefficient: _SimilaritySpec(
        2, _prepare_token_set, overlap_coefficient
    ),
    cosine_similarity: _SimilaritySpec(
        3, _prepare_token_counts, cosine_similarity
    ),
    jaro_similarity: _SimilaritySpec(4, _identity_payload, jaro_similarity),
    jaro_winkler_similarity: _SimilaritySpec(
        4, _identity_payload, jaro_winkler_similarity
    ),
    levenshtein_similarity: _SimilaritySpec(
        5, _identity_payload, levenshtein_similarity
    ),
    monge_elkan_similarity: _SimilaritySpec(
        9,
        _prepare_product_name,
        partial(_monge_elkan_payload_similarity, jaro_winkler_similarity),
    ),
    product_name_similarity: _SimilaritySpec(
        10,
        _prepare_product_name,
        partial(_product_name_payload_similarity, jaro_winkler_similarity),
        partial(_product_name_payload_bound, jaro_winkler_similarity),
    ),
}

#: Cost rank assumed for similarity callables not in the registry. They
#: are never memoized, whatever this rank: their purity is unknown.
_UNKNOWN_COST = 8


def similarity_spec(similarity: Callable[..., float]) -> _SimilaritySpec:
    """The ``(cost, prepare, similarity)`` spec for a similarity callable.

    Its ``similarity`` is the plain payload similarity; a comparator's
    own, through its memos, are :attr:`RecordComparator.similarities`.
    """
    spec = _SIMILARITY_SPECS.get(similarity)
    if spec is not None:
        return spec
    return _SimilaritySpec(_UNKNOWN_COST, _identity_payload, similarity)


@dataclass(frozen=True)
class PreparedRecord:
    """A record with all per-value comparison work done once.

    ``payloads`` holds one entry per :class:`FieldComparator` of the
    comparator that prepared it (``None`` where the field is missing):
    the normalized value, token tuple, parsed measurement, … whatever
    that field's similarity consumes. Prepared records are immutable
    and are only meaningful to the comparator that produced them —
    records must not change after preparation (library records are
    immutable by construction).
    """

    record_id: str
    payloads: tuple[Any, ...]
    #: Bit ``i`` is set iff ``payloads[i]`` is not ``None``; a pair's
    #: ``left.mask & right.mask`` selects its compiled decision plan.
    mask: int


@dataclass(frozen=True)
class FieldComparator:
    """One comparison rule: attribute, similarity function, weight.

    ``aliases`` are fallback attribute names tried (in order) when the
    primary name is absent — the pragmatic answer to heterogeneous
    schemas when records are compared without prior schema translation.
    """

    attribute: str
    similarity: Callable[[str, str], float]
    weight: float = 1.0
    normalize: bool = True
    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError("field weight must be positive")

    def _lookup(self, attributes: Mapping[str, str]) -> str | None:
        value = attributes.get(self.attribute)
        if value is not None:
            return value
        for alias in self.aliases:
            value = attributes.get(alias)
            if value is not None:
                return value
        return None

    def compare(
        self, left: Mapping[str, str], right: Mapping[str, str]
    ) -> float | None:
        """Similarity of this field, or ``None`` when either is missing."""
        value_left = self._lookup(left)
        value_right = self._lookup(right)
        if value_left is None or value_right is None:
            return None
        if self.normalize:
            value_left = normalize_value(value_left)
            value_right = normalize_value(value_right)
        return self.similarity(value_left, value_right)

    @property
    def cost(self) -> int:
        """Relative cost rank of this field's similarity (cheap → expensive)."""
        return similarity_spec(self.similarity).cost

    def prepare(self, attributes: Mapping[str, str]) -> Any | None:
        """Hoist this field's per-value work out of the pair loop.

        Returns the payload this field's similarity reads, or ``None``
        when the field is missing from ``attributes``.
        """
        value = self._lookup(attributes)
        if value is None:
            return None
        return _prepare_value(
            similarity_spec(self.similarity).prepare, self.normalize, value
        )


@dataclass(frozen=True)
class ComparisonVector:
    """Per-field similarities plus the aggregate score of one pair."""

    left_id: str
    right_id: str
    similarities: tuple[float | None, ...]
    score: float

    def agreement_pattern(self, threshold: float = 0.85) -> tuple[bool, ...]:
        """Binary agreement vector (missing counts as disagreement).

        This is the representation Fellegi-Sunter's EM consumes.
        """
        return tuple(
            s is not None and s >= threshold for s in self.similarities
        )


@dataclass(frozen=True)
class BoundedComparison:
    """Outcome of a threshold-bounded (early-exit) pair comparison.

    When the staged evaluation proved the decision before computing
    every field, ``exact`` is ``False`` and ``score`` is the bound that
    proved it (see :meth:`RecordComparator.decide` for which bound);
    ``vector`` is then ``None``. When every present
    field was evaluated, ``score`` and ``vector`` are byte-identical to
    :meth:`RecordComparator.compare` output.
    """

    left_id: str
    right_id: str
    is_match: bool
    score: float
    exact: bool
    n_evaluated: int
    vector: ComparisonVector | None = None


class _DecisionPlan(NamedTuple):
    """What :meth:`RecordComparator.decide` needs of one field-presence
    mask. Each sum accumulates in declaration order, as
    :meth:`RecordComparator.compare` does, so every float is the same."""

    #: The missing fields' contribution (``weight * missing_penalty``).
    missing: float
    #: The exact denominator: present weights, plus missing ones under
    #: a ``missing_penalty``.
    total: float
    #: The present fields' weight, all still to evaluate.
    present: float
    #: ``(index, weight, similarity, bound)`` per present field, cheap
    #: first; ``bound`` is the field's memoized payload bound, or ``None``.
    staged: tuple[
        tuple[
            int,
            float,
            Callable[[Any, Any], float],
            Callable[[Any, Any], float | None] | None,
        ],
        ...,
    ]
    #: ``(position, weight)`` per counted field in declaration order;
    #: ``position`` indexes the staged similarities, and one past them
    #: stands for ``missing_penalty``.
    declared: tuple[tuple[int, float], ...]
    #: ``(index, upper)`` when the first staged field is an exact
    #: comparison, else ``None``: ``upper`` is the bound the staged loop
    #: computes after that field scores 0.0, with the same float
    #: operations, so a pair whose payloads differ there is rejected
    #: (when ``upper`` is below the threshold) without entering the loop.
    veto: tuple[int, float] | None


class RecordComparator:
    """Compares record pairs field by field.

    Parameters
    ----------
    fields:
        The comparison rules.
    translate:
        Optional record → attribute-mapping translator applied before
        field lookup (e.g. ``schema.translate``). Defaults to the raw
        attribute mapping. :meth:`compare` looks each field's names up
        with ``get``; :meth:`prepare` reads the mapping's ``items()``
        once, so the two must agree.
    missing_penalty:
        Score contribution assumed for fields missing on either side,
        in ``[0, 1]``; the default ``None`` simply excludes missing
        fields from the weighted average.

    A comparator scores equal values once through bounded memos of its
    own (:attr:`memos`), which live exactly as long as it does.
    """

    def __init__(
        self,
        fields: Sequence[FieldComparator],
        translate: Translator | None = None,
        missing_penalty: float | None = None,
    ) -> None:
        if not fields:
            raise ConfigurationError("at least one field comparator needed")
        if missing_penalty is not None and not 0 <= missing_penalty <= 1:
            raise ConfigurationError("missing_penalty must be in [0, 1]")
        self._fields = tuple(fields)
        self._translate = translate or _raw_attributes
        self._missing_penalty = missing_penalty
        self._specs = tuple(
            similarity_spec(field.similarity) for field in self._fields
        )
        # Field indices cheap-to-expensive: the staged evaluation order
        # of decide (ties broken by declaration order).
        self._staged_order = tuple(
            sorted(
                range(len(self._fields)),
                key=lambda index: (self._specs[index].cost, index),
            )
        )
        # Attribute name -> ((field index, rank), ...), where rank 0 is
        # the field's own name and its aliases follow in order. One name
        # may serve several fields (``"model"`` names a product and is
        # an identifier alias of the default comparator).
        by_name: dict[str, list[tuple[int, int]]] = {}
        for index, field in enumerate(self._fields):
            names = dict.fromkeys((field.attribute, *field.aliases))
            for rank, name in enumerate(names):
                by_name.setdefault(name, []).append((index, rank))
        self._fields_by_name = {
            name: tuple(found) for name, found in by_name.items()
        }
        self._preparers = tuple(
            (spec.prepare, field.normalize)
            for spec, field in zip(self._specs, self._fields)
        )
        # One decision plan per field-presence mask, compiled on first
        # use (at most 2 ** len(fields) entries; two threads missing at
        # once compile equal plans, and either one serves).
        self._plans: dict[int, _DecisionPlan] = {}
        self._bind_memos()

    def _bind_memos(self) -> None:
        """Build this comparator's three memos and bind its fields'
        payload similarities and bounds and :meth:`prepare` to them.

        The payload memo keeps a raw value's prepared payload; the value
        memo, an expensive registered similarity or bound of two
        payloads (one ordered pair each); the token memo, Jaro-Winkler
        of one *unordered* token pair — it is symmetric to the last bit
        (DESIGN.md entry 25), so both argument orders read one entry.
        Unknown similarity callables are never memoized: their purity
        is unknown.
        """
        memo = lru_cache(maxsize=MEMO_MAXSIZE)
        tokens = memo(jaro_winkler_similarity)
        value = memo(_call)
        self._memos = {
            "jaro_winkler": tokens,
            "value_similarity": value,
            "value_payload": memo(_prepare_value),
        }

        def jaro_winkler(a: str, b: str) -> float:
            return tokens(a, b) if a <= b else tokens(b, a)

        bound = {
            jaro_winkler_similarity: jaro_winkler,
            measurement_similarity: partial(
                _measurement_payload_similarity,
                partial(value, levenshtein_similarity),
            ),
            monge_elkan_similarity: partial(
                _monge_elkan_payload_similarity, jaro_winkler
            ),
            product_name_similarity: partial(
                _product_name_payload_similarity, jaro_winkler
            ),
        }
        bounds = {
            product_name_similarity: partial(
                _product_name_payload_bound, jaro_winkler
            ),
        }
        similarities = []
        field_bounds = []
        for field, spec in zip(self._fields, self._specs):
            similarity = spec.similarity
            field_bound = spec.bound
            if field.similarity in _SIMILARITY_SPECS:
                similarity = bound.get(field.similarity, similarity)
                if spec.cost >= _VALUE_MEMO_MIN_COST:
                    similarity = partial(value, similarity)
                if field_bound is not None:
                    field_bound = partial(
                        value, bounds.get(field.similarity, field_bound)
                    )
            similarities.append(similarity)
            field_bounds.append(field_bound)
        self._similarities = tuple(similarities)
        self._bounds = tuple(field_bounds)

    def __getstate__(self) -> dict[str, Any]:
        # The memos and what is bound to them stay behind; the plan
        # table travels as its masks and is recompiled on arrival.
        state = self.__dict__.copy()
        del state["_memos"], state["_similarities"], state["_bounds"]
        state["_plans"] = list(self._plans)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        masks = state.pop("_plans")
        self.__dict__.update(state)
        self._plans = {}
        self._bind_memos()
        for mask in masks:
            self._plan(mask)

    @property
    def fields(self) -> tuple[FieldComparator, ...]:
        """The comparison rules."""
        return self._fields

    @property
    def missing_penalty(self) -> float | None:
        """Score contribution assumed for missing fields (None = excluded)."""
        return self._missing_penalty

    @property
    def translate(self) -> Translator:
        """The record → attribute-mapping translator."""
        return self._translate

    @property
    def memos(self) -> dict[str, Any]:
        """This comparator's memos by report name, each an ``lru_cache``
        wrapper (``cache_info()`` gives its hits, misses and size)."""
        return dict(self._memos)

    @property
    def similarities(self) -> tuple[Callable[[Any, Any], float], ...]:
        """Each field's payload similarity, through this comparator's
        memos: what :meth:`decide` calls."""
        return self._similarities

    @property
    def staged_order(self) -> tuple[int, ...]:
        """Field indices cheap-to-expensive (the early-exit evaluation order)."""
        return self._staged_order

    def compare(self, left: Record, right: Record) -> ComparisonVector:
        """Compare one pair, returning its vector and aggregate score."""
        left_attributes = self._translate(left)
        right_attributes = self._translate(right)
        similarities: list[float | None] = []
        weighted = 0.0
        total_weight = 0.0
        for field in self._fields:
            similarity = field.compare(left_attributes, right_attributes)
            similarities.append(similarity)
            if similarity is None:
                if self._missing_penalty is not None:
                    weighted += field.weight * self._missing_penalty
                    total_weight += field.weight
                continue
            weighted += field.weight * similarity
            total_weight += field.weight
        score = weighted / total_weight if total_weight else 0.0
        return ComparisonVector(
            left_id=left.record_id,
            right_id=right.record_id,
            similarities=tuple(similarities),
            score=score,
        )

    def score(self, left: Record, right: Record) -> float:
        """Aggregate score only (convenience)."""
        return self.compare(left, right).score

    # --- prepared fast path ------------------------------------------

    def prepare(self, record: Record) -> PreparedRecord:
        """Normalize/tokenize/parse a record once, for many comparisons.

        The returned :class:`PreparedRecord` is only valid with *this*
        comparator (payloads line up with its fields) and assumes the
        record does not change afterwards.

        Each field takes what :meth:`FieldComparator.prepare` would:
        the value of its first present name, own name before aliases.
        All fields are resolved in one pass over the translated
        attributes, each attribute read once.
        """
        by_name = self._fields_by_name
        payload_memo = self._memos["value_payload"]
        values: list[str | None] = [None] * len(self._fields)
        ranks = [len(by_name)] * len(self._fields)  # past any real rank
        mask = 0  # a present value never prepares to None
        for name, value in self._translate(record).items():
            found = by_name.get(name)
            if found is None or value is None:
                continue
            for index, rank in found:
                if rank < ranks[index]:
                    ranks[index] = rank
                    values[index] = value
                    mask |= 1 << index
        payloads = tuple(
            [
                None if value is None
                else payload_memo(prepare, normalize, value)
                for value, (prepare, normalize) in zip(values, self._preparers)
            ]
        )
        return PreparedRecord(record.record_id, payloads, mask)

    def compare_prepared(
        self, left: PreparedRecord, right: PreparedRecord
    ) -> ComparisonVector:
        """:meth:`compare` over prepared records — identical output,
        pure similarity arithmetic per pair."""
        similarities: list[float | None] = []
        weighted = 0.0
        total_weight = 0.0
        for field, similarity_of, payload_left, payload_right in zip(
            self._fields, self._similarities, left.payloads, right.payloads
        ):
            if payload_left is None or payload_right is None:
                similarities.append(None)
                if self._missing_penalty is not None:
                    weighted += field.weight * self._missing_penalty
                    total_weight += field.weight
                continue
            similarity = similarity_of(payload_left, payload_right)
            similarities.append(similarity)
            weighted += field.weight * similarity
            total_weight += field.weight
        score = weighted / total_weight if total_weight else 0.0
        return ComparisonVector(
            left_id=left.record_id,
            right_id=right.record_id,
            similarities=tuple(similarities),
            score=score,
        )

    def _plan(self, mask: int) -> _DecisionPlan:
        """The decision plan of one field-presence mask, compiled once."""
        plan = self._plans.get(mask)
        if plan is not None:
            return plan
        penalty = self._missing_penalty
        missing = total = present = 0.0
        for index, field in enumerate(self._fields):
            if mask >> index & 1:
                total += field.weight
                present += field.weight
            elif penalty is not None:
                missing += field.weight * penalty
                total += field.weight
        staged = tuple(
            (
                index,
                self._fields[index].weight,
                self._similarities[index],
                self._bounds[index],
            )
            for index in self._staged_order
            if mask >> index & 1
        )
        positions = {index: k for k, (index, *__) in enumerate(staged)}
        declared = tuple(
            (positions.get(index, len(staged)), field.weight)
            for index, field in enumerate(self._fields)
            if mask >> index & 1 or penalty is not None
        )
        veto = None
        first = staged[0] if staged else None
        if first and self._fields[first[0]].similarity is exact_similarity:
            index, weight, *__ = first
            # The loop's first step, operation for operation, at 0.0.
            upper = (missing + weight * 0.0 + (present - weight)) / total
            veto = (index, upper)
        plan = _DecisionPlan(missing, total, present, staged, declared, veto)
        self._plans[mask] = plan
        return plan

    def decide(
        self,
        left: PreparedRecord,
        right: PreparedRecord,
        threshold: float,
        exact_scores: bool = True,
    ) -> tuple[bool, float, bool, list[float]]:
        """The one staged match decision: ``(is_match, score, exact,
        similarities)`` for two prepared records.

        Present fields are evaluated cheap-to-expensive (the plan of
        ``left.mask & right.mask``) while tracking the best and worst
        achievable final score; as soon as the pair provably cannot
        reach ``threshold``, the expensive remaining fields are skipped
        and ``score`` is that upper bound. A plan whose first staged
        field is exact (:attr:`_DecisionPlan.veto`) settles a pair that
        differs there by one string comparison, returning exactly what
        the loop would after that field. ``is_match`` always equals
        ``compare(left, right).score >= threshold`` (for similarities in
        ``[0, 1]``, which the bound assumes).

        A rejected pair's ``score`` is the upper bound that rejected it,
        and ``similarities`` holds the fields evaluated before it. A
        field with a payload bound (the product name's model-number
        factor, :func:`~repro.text.similarity.model_number_factor`) is
        bounded before it is scored, while no match is decided: the
        pair is rejected when ``(weighted + weight * cap + (remaining -
        weight)) / total`` is below ``threshold - BOUND_MARGIN``, and
        that is its score. The cap is at least the field's similarity
        and float products and sums are monotone, so the loop would
        have rejected the pair at that field too: decisions, exact
        scores and which pairs exit early are the same as without the
        bound; only a rejected pair's bound and evaluated count differ.

        With ``exact_scores=True`` (the default) a pair that cannot
        lose is still evaluated fully, so every match carries its exact
        score (what clustering-by-score consumers need); only
        rejections exit early. With ``exact_scores=False`` an accept
        exits early too, with the lower bound that proved it. ``exact``
        says whether every present field was evaluated — then ``score``
        is bit-identical to :meth:`compare`'s. ``similarities`` holds
        the values evaluated, in staged order.
        """
        mask = left.mask & right.mask
        plan = self._plans.get(mask) or self._plan(mask)
        weighted, total, remaining, staged, declared, veto = plan
        payloads_left = left.payloads
        payloads_right = right.payloads
        reject_below = threshold - BOUND_MARGIN
        if veto is not None:
            index, upper = veto
            if (
                upper < reject_below
                and payloads_left[index] != payloads_right[index]
            ):
                return False, upper, False, [0.0]
        accept_from = threshold + BOUND_MARGIN
        similarities: list[float] = []
        decided_match = False
        for index, weight, similarity, bound in staged:
            payload_left = payloads_left[index]
            payload_right = payloads_right[index]
            if bound is not None and not decided_match:
                cap = bound(payload_left, payload_right)
                if cap is not None:
                    upper = (
                        weighted + weight * cap + (remaining - weight)
                    ) / total
                    if upper < reject_below:
                        return False, upper, False, similarities
            value = similarity(payload_left, payload_right)
            similarities.append(value)
            weighted += weight * value
            remaining -= weight
            if decided_match:
                continue  # completing the evaluation for exact scores
            upper = (weighted + remaining) / total
            if upper < reject_below:
                return False, upper, False, similarities
            lower = weighted / total
            if lower >= accept_from:
                if not exact_scores:
                    return True, lower, False, similarities
                decided_match = True
        # Fully evaluated: re-sum in declaration order so the float is
        # byte-identical to compare()'s.
        values = (*similarities, self._missing_penalty)
        weighted = 0.0
        for position, weight in declared:
            weighted += weight * values[position]
        score = weighted / total if total else 0.0
        return score >= threshold, score, True, similarities

    def score_bounded(
        self,
        left: Record | PreparedRecord,
        right: Record | PreparedRecord,
        threshold: float,
        exact_scores: bool = True,
    ) -> BoundedComparison:
        """:meth:`decide`, reported: the same decision and score, plus
        how many fields it evaluated and — when it evaluated them all —
        the exact :class:`ComparisonVector` (``None`` after an early
        exit). Accepts raw records too; they are prepared first.
        """
        if not isinstance(left, PreparedRecord):
            left = self.prepare(left)
        if not isinstance(right, PreparedRecord):
            right = self.prepare(right)
        is_match, score, exact, similarities = self.decide(
            left, right, threshold, exact_scores
        )
        vector = None
        if exact:
            values: list[float | None] = [None] * len(self._fields)
            staged = self._plan(left.mask & right.mask).staged
            for (index, *__), value in zip(staged, similarities):
                values[index] = value
            vector = ComparisonVector(
                left_id=left.record_id,
                right_id=right.record_id,
                similarities=tuple(values),
                score=score,
            )
        return BoundedComparison(
            left_id=left.record_id,
            right_id=right.record_id,
            is_match=is_match,
            score=score,
            exact=exact,
            n_evaluated=len(similarities),
            vector=vector,
        )


def default_product_comparator(
    translate: Translator | None = None,
) -> RecordComparator:
    """A comparator tuned for the synthetic product corpus.

    The name comparison is model-number aware (see
    :func:`repro.text.similarity.product_name_similarity`), identifier
    agreement is decisive when present, measurements compare after unit
    conversion, and brand/color are cheap corroboration. Aliases cover
    the built-in vocabulary dialects, so the comparator also works on
    raw, untranslated records.
    """
    identifier_aliases = (
        "sku", "mpn", "model number", "item code", "part number",
        "model code", "model", "isbn", "isbn 13", "isbn13", "ean",
        "flight number", "flight", "flight no", "flt",
    )
    name_aliases = ("title", "product name", "model", "item name")
    return RecordComparator(
        fields=[
            FieldComparator(
                "name",
                product_name_similarity,
                weight=3.0,
                aliases=name_aliases,
            ),
            FieldComparator(
                "product id",
                exact_similarity,
                weight=4.0,
                aliases=identifier_aliases,
            ),
            FieldComparator(
                "brand",
                jaro_winkler_similarity,
                weight=1.0,
                aliases=("manufacturer", "make", "vendor", "producer"),
            ),
            FieldComparator(
                "color", exact_similarity, weight=0.5,
                aliases=("colour", "body color", "finish", "shade"),
            ),
            FieldComparator(
                "screen size",
                measurement_similarity,
                weight=1.0,
                aliases=(
                    "display size", "lcd size", "monitor size", "display",
                    "screen diagonal",
                ),
            ),
            FieldComparator(
                "weight", measurement_similarity, weight=1.0,
                aliases=("item weight", "body weight", "mass", "net weight",
                         "travel weight"),
            ),
        ],
        translate=translate,
    )
