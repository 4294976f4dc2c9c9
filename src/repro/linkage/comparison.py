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
from repro.text import MEMO_CACHES
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
    monge_elkan_similarity,
    monge_elkan_tokens,
    numeric_similarity,
    overlap_coefficient,
    product_name_similarity,
    product_name_similarity_tokens,
)
from repro.text.tokens import word_token_tuple

__all__ = [
    "BOUND_MARGIN",
    "VALUE_SIMILARITY_CACHE_MAXSIZE",
    "VALUE_PAYLOAD_CACHE_MAXSIZE",
    "FieldComparator",
    "ComparisonVector",
    "PreparedRecord",
    "BoundedComparison",
    "RecordComparator",
    "default_product_comparator",
    "similarity_spec",
    "measurement_text_similarity",
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
# ``prepare`` producing an immutable payload, and a payload-level
# ``similarity`` that is arithmetic-identical to the string-level
# function. Unknown similarity callables fall back to a generic spec
# that passes the (cached-normalized) strings straight through.


class _SimilaritySpec(NamedTuple):
    cost: int
    prepare: Callable[[str], Any]
    similarity: Callable[[Any, Any], float]


#: Bound on the value tier — one memo of ``similarity(left, right)``
#: over whole prepared payloads, shared by every expensive registered
#: similarity (see :data:`_VALUE_MEMO_MIN_COST`). Redundant sources
#: re-publish the same values, so a pair loop meets few distinct value
#: pairs: the ledger's workloads see 25 (``stream_steady``, over 706
#: comparisons), 815 (``batch_wide``), 2,481 (``batch_link``) and 5,394
#: (``serve_mixed``) distinct ordered pairs. All fit, with headroom; on
#: ``serve_mixed``, the largest, the tier costs +0.7 MB (+0.9 %) peak
#: RSS. Observable via :func:`repro.obs.observe_text_caches` as
#: ``text.value_similarity.*``.
VALUE_SIMILARITY_CACHE_MAXSIZE = 8192

#: Cost rank from which a registered payload similarity is memoized:
#: everything above the Jaro family (rank 4). String-payload
#: Jaro-Winkler is already memoized one layer down, per token pair
#: (:data:`repro.text.similarity.TOKEN_SIMILARITY_CACHE_MAXSIZE`), so
#: nothing is cached twice; below it a similarity costs about what the
#: lookup would. Every registered payload at these ranks is hashable (a
#: string, or a tuple of token tuple and frozenset).
_VALUE_MEMO_MIN_COST = 5


@lru_cache(maxsize=VALUE_SIMILARITY_CACHE_MAXSIZE)
def _value_memo(
    similarity: Callable[[Any, Any], float], left: Any, right: Any
) -> float:
    """The value tier: ``similarity(left, right)``, once per ordered pair.

    Only ever reached with the library's own payload similarities, which
    are pure. Like the token tier underneath, the key keeps the argument
    order.
    """
    return similarity(left, right)


MEMO_CACHES["value_similarity"] = _value_memo

#: Bound on the payload tier — one memo of a raw value's prepared
#: payload, beside the value tier. A record is prepared at ingest, on
#: every ``match``, at a rebuild and at a restart, and redundant
#: sources re-publish values: the ledger's calls meet 126
#: (``stream_steady``), 493 (``batch_wide``), 1,931 (``batch_link``)
#: and 2,491 (``serve_mixed``) distinct keys and find 91, 44, 73 and
#: 93 % of their lookups here. Observable as ``text.value_payload.*``.
VALUE_PAYLOAD_CACHE_MAXSIZE = 8192


@lru_cache(maxsize=VALUE_PAYLOAD_CACHE_MAXSIZE)
def _payload_memo(
    prepare: Callable[[str], Any], normalize: bool, value: str
) -> Any:
    """The payload tier: ``prepare`` of the (normalized) ``value``, once.

    Every record publishing the value shares the one payload object. No
    registered similarity mutates a payload (the ``Counter`` of the
    cosine spec included), and an unknown callable only ever gets its
    string passed through.
    """
    return prepare(normalize_value(value) if normalize else value)


MEMO_CACHES["value_payload"] = _payload_memo


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


def measurement_text_similarity(text_a: str, text_b: str) -> float:
    """Measurement similarity when a side does not parse: normalized
    Levenshtein over the two raw texts, through the value tier."""
    return _value_memo(
        levenshtein_similarity, text_a.lower().strip(), text_b.lower().strip()
    )


def _measurement_payload_similarity(
    a: tuple[Any, str], b: tuple[Any, str]
) -> float:
    base_a, text_a = a
    base_b, text_b = b
    if base_a is None or base_b is None:
        return measurement_text_similarity(text_a, text_b)
    if base_a.unit != base_b.unit:
        return 0.0
    return numeric_similarity(base_a.value, base_b.value, tolerance=0.05)


def _prepare_product_name(value: str) -> tuple[tuple[str, ...], frozenset[str]]:
    tokens = word_token_tuple(value)
    numbers = frozenset(
        token for token in tokens
        if any(character.isdigit() for character in token)
    )
    return (tokens, numbers)


def _product_name_payload_similarity(
    a: tuple[tuple[str, ...], frozenset[str]],
    b: tuple[tuple[str, ...], frozenset[str]],
) -> float:
    return product_name_similarity_tokens(a[0], a[1], b[0], b[1])


def _monge_elkan_payload_similarity(
    a: tuple[tuple[str, ...], frozenset[str]],
    b: tuple[tuple[str, ...], frozenset[str]],
) -> float:
    return monge_elkan_tokens(a[0], b[0])


#: Specs for the similarity functions the library ships. Costs are
#: relative ranks, cheap → expensive; they drive evaluation order and
#: decide, by the one rule below the table, which payload similarities
#: go through the value tier.
_SIMILARITY_SPECS: dict[Callable[..., float], _SimilaritySpec] = {
    exact_similarity: _SimilaritySpec(0, _identity_payload, exact_similarity),
    measurement_similarity: _SimilaritySpec(
        1, _prepare_measurement, _measurement_payload_similarity
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
        9, _prepare_product_name, _monge_elkan_payload_similarity
    ),
    product_name_similarity: _SimilaritySpec(
        10, _prepare_product_name, _product_name_payload_similarity
    ),
}
_SIMILARITY_SPECS.update(
    {
        function: spec._replace(
            similarity=partial(_value_memo, spec.similarity)
        )
        for function, spec in _SIMILARITY_SPECS.items()
        if spec.cost >= _VALUE_MEMO_MIN_COST
    }
)

#: Cost rank assumed for similarity callables not in the registry. They
#: are never memoized, whatever this rank: their purity is unknown.
_UNKNOWN_COST = 8


def _spec_for(similarity: Callable[..., float]) -> _SimilaritySpec:
    spec = _SIMILARITY_SPECS.get(similarity)
    if spec is not None:
        return spec
    return _SimilaritySpec(_UNKNOWN_COST, _identity_payload, similarity)


def similarity_spec(similarity: Callable[..., float]) -> _SimilaritySpec:
    """The ``(cost, prepare, similarity)`` spec for a similarity callable.

    Public accessor for consumers outside the pair loop (the columnar
    block builder keys its column kinds off the same registry the
    prepared fast path uses, so the two representations can never
    disagree about what a field's payload is).
    """
    return _spec_for(similarity)


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
        return _spec_for(self.similarity).cost

    def prepare(self, attributes: Mapping[str, str]) -> Any | None:
        """Hoist this field's per-value work out of the pair loop.

        Returns the payload :meth:`compare_payloads` consumes, or
        ``None`` when the field is missing from ``attributes``.
        """
        value = self._lookup(attributes)
        if value is None:
            return None
        return _payload_memo(
            _spec_for(self.similarity).prepare, self.normalize, value
        )

    def compare_payloads(self, left: Any | None, right: Any | None) -> float | None:
        """Similarity from prepared payloads; ``None`` when either is missing.

        Arithmetic-identical to :meth:`compare` on the values the
        payloads were prepared from.
        """
        if left is None or right is None:
            return None
        return _spec_for(self.similarity).similarity(left, right)


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
    proved it (an upper bound for rejections, a lower bound for
    early accepts); ``vector`` is then ``None``. When every present
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
    #: ``(index, weight, similarity)`` per present field, cheap first.
    staged: tuple[tuple[int, float, Callable[[Any, Any], float]], ...]
    #: ``(position, weight)`` per counted field in declaration order;
    #: ``position`` indexes the staged similarities, and one past them
    #: stands for ``missing_penalty``.
    declared: tuple[tuple[int, float], ...]


class RecordComparator:
    """Compares record pairs field by field.

    Parameters
    ----------
    fields:
        The comparison rules.
    translate:
        Optional record → attribute-mapping translator applied before
        field lookup (e.g. ``schema.translate``). Defaults to the raw
        attribute mapping.
    missing_penalty:
        Score contribution assumed for fields missing on either side,
        in ``[0, 1]``; the default ``None`` simply excludes missing
        fields from the weighted average.
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
        self._specs = tuple(_spec_for(field.similarity) for field in self._fields)
        # Field indices cheap-to-expensive: the staged evaluation order
        # of decide (ties broken by declaration order).
        self._staged_order = tuple(
            sorted(
                range(len(self._fields)),
                key=lambda index: (self._specs[index].cost, index),
            )
        )
        # One decision plan per field-presence mask, compiled on first
        # use (at most 2 ** len(fields) entries; two threads missing at
        # once compile equal plans, and either one serves).
        self._plans: dict[int, _DecisionPlan] = {}

    @property
    def fields(self) -> tuple[FieldComparator, ...]:
        """The comparison rules."""
        return self._fields

    @property
    def missing_penalty(self) -> float | None:
        """Score contribution assumed for missing fields (None = excluded)."""
        return self._missing_penalty

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
        """
        attributes = self._translate(record)
        payloads = tuple(field.prepare(attributes) for field in self._fields)
        mask = 0
        for index, payload in enumerate(payloads):
            if payload is not None:
                mask |= 1 << index
        return PreparedRecord(record.record_id, payloads, mask)

    def compare_prepared(
        self, left: PreparedRecord, right: PreparedRecord
    ) -> ComparisonVector:
        """:meth:`compare` over prepared records — identical output,
        pure similarity arithmetic per pair."""
        similarities: list[float | None] = []
        weighted = 0.0
        total_weight = 0.0
        for field, spec, payload_left, payload_right in zip(
            self._fields, self._specs, left.payloads, right.payloads
        ):
            if payload_left is None or payload_right is None:
                similarities.append(None)
                if self._missing_penalty is not None:
                    weighted += field.weight * self._missing_penalty
                    total_weight += field.weight
                continue
            similarity = spec.similarity(payload_left, payload_right)
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
            (index, self._fields[index].weight, self._specs[index].similarity)
            for index in self._staged_order
            if mask >> index & 1
        )
        positions = {index: k for k, (index, __, __) in enumerate(staged)}
        declared = tuple(
            (positions.get(index, len(staged)), field.weight)
            for index, field in enumerate(self._fields)
            if mask >> index & 1 or penalty is not None
        )
        plan = _DecisionPlan(missing, total, present, staged, declared)
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
        and ``score`` is that upper bound. ``is_match`` always equals
        ``compare(left, right).score >= threshold`` (for similarities in
        ``[0, 1]``, which the bound assumes).

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
        weighted, total, remaining, staged, declared = plan
        payloads_left = left.payloads
        payloads_right = right.payloads
        reject_below = threshold - BOUND_MARGIN
        accept_from = threshold + BOUND_MARGIN
        similarities: list[float] = []
        decided_match = False
        for index, weight, similarity in staged:
            value = similarity(payloads_left[index], payloads_right[index])
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
            for (index, __, __), value in zip(staged, similarities):
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
