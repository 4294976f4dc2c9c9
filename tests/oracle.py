"""The naive references the fast paths are checked against: the
simplest code that states each rule, kept here and nowhere else.

Fusion — the claim walk every fuser ran before the value table. A sweep
visits each item's ``Claim`` objects, scores its values into a
``{value: score}`` dict, and looks each source's claims up in an
``{item: {value: score}}`` table for its mean (:func:`naive_score`);
each item's winner is picked from its own dict (:func:`naive_choose`);
voting counts values in a dict. :func:`naive_fusion` puts that sweep,
the three item rules and voting in place of the library's, so any
fuser's own ``fuse`` runs on the reference. Every float sum here is ``math.fsum`` over a list of the
terms, as in the library: exact, so no order of adding is promised.

Copy detection — the walk over every shared item of a source pair, and
the independence discount as the model states it.

The claim store — the claim index as it was read from one ``Claim``
object per claim, grouped by item and by source, before claims were
columns (:func:`reference_claim_index`).

Text — the textbook window scan Jaro used before it was rewritten over
``str.find``, and Jaro-Winkler on top of it, uncached and taking its
arguments in the order given; the row-by-row dynamic program Levenshtein
distance was before it went bit-parallel.

The live entity table — the deep re-sort ``EntityProjection.canonical``
made of every entry before entries were canonical when tabled.

Linkage — ``prepare`` as each field looked its own names up before the
attribute table, the staged scorer as it was before decisions were
planned per field-presence mask, the incremental linker that gathers
every key's bucket and compares every candidate, and the per-pair
``resolve`` every way of running it is held to
(``tests/test_lattice.py``); the identifier merge as the closure of
every within-cluster pair of both clusterings; identifier detection as
every profile shaping each of its values.

Schema — profiling as one normalize, tokenize and parse per value
occurrence, and record translation as one mediated-attribute lookup per
record attribute.
"""

import contextlib
import math
import re
from functools import cached_property
from itertools import accumulate
from typing import Mapping, Sequence
from unittest import mock

from repro.fusion import (
    AccuCopy,
    AccuVote,
    TruthFinder,
    VotingFuser,
    accu,
    accucopy,
    copydetect,
    truthfinder,
)
from repro.fusion.base import _SET, Claim, FusionResult, Group, Pattern
from repro.fusion.online import vote_count
from repro.linkage import BatchStats, IncrementalLinker, ProbeResult
from repro.linkage import IdentifierDetection, LinkageResult
from repro.linkage import normalize_identifier
from repro.linkage.clustering import center_clustering, connected_components
from repro.linkage.clustering import merge_center_clustering
from repro.linkage.comparison import (
    BOUND_MARGIN,
    BoundedComparison,
    ComparisonVector,
    PreparedRecord,
    similarity_spec,
)
from repro.quality import clusters_to_pairs
from repro.schema import AttributeProfile
from repro.text import (
    normalize_attribute_name,
    normalize_value,
    parse_measurement,
    word_tokens,
)

# --- fusion: the claim walk -------------------------------------------


def naive_softmax(scores):
    peak = max(scores.values())
    exps = {value: math.exp(score - peak) for value, score in scores.items()}
    total = math.fsum(exps.values())
    return {value: weight / total for value, weight in exps.items()}


def naive_score(claims, score_item, reads_values=False):
    """Each item's ``{value: score}`` and each source's mean score looked
    up claim by claim in its claim order. Every item is walked alone,
    whether or not its rule reads values."""
    table = {
        item: score_item(claims.claims_for(item)) for item in claims.items()
    }
    means = {}
    for source in claims.sources():
        own = claims.claims_by(source)
        means[source] = math.fsum(
            table[claim.item_id][claim.value] for claim in own
        ) / len(own)
    return table, means


def naive_choose(claims, table):
    """Each item's winner by ``(score, value)`` and its score."""
    chosen, confidence = {}, {}
    for item, scores in table.items():
        best = max(scores, key=lambda value: (scores[value], value))
        chosen[item] = best
        confidence[item] = scores[best]
    return chosen, confidence


def naive_accuvote_scorer(fuser, accuracy):
    votes = {s: vote_count(a, fuser._n) for s, a in accuracy.items()}

    def score_item(item_claims):
        tally = {}
        for claim in item_claims:
            tally.setdefault(claim.value, []).append(votes[claim.source_id])
        return naive_softmax(
            {value: math.fsum(own) for value, own in tally.items()}
        )

    return score_item


def naive_truthfinder_scorer(fuser, trust):
    tau = {s: -math.log(max(1e-9, 1.0 - t)) for s, t in trust.items()}

    def score_item(item_claims):
        tally = {}
        for claim in item_claims:
            tally.setdefault(claim.value, []).append(tau[claim.source_id])
        raw = {value: math.fsum(own) for value, own in tally.items()}
        if fuser._implication_weight > 0 and fuser._similarity is not None:
            raw = {
                value: score
                + fuser._implication_weight
                * math.fsum(
                    fuser._similarity(value, other) * raw[other]
                    for other in raw
                    if other != value
                )
                for value, score in raw.items()
            }
        return {
            value: 1.0 / (1.0 + math.exp(-truthfinder.DAMPENING * score))
            for value, score in raw.items()
        }

    return score_item


def naive_item_scorer(accuracy, copy_probability, copy_rate, n_false_values):
    """The discount as the model states it: every vote scaled by
    ``1 - c * P`` for every supporter counted before it."""
    votes = {s: vote_count(a, n_false_values) for s, a in accuracy.items()}

    def score_item(item_claims):
        supporters = {}
        for claim in item_claims:
            supporters.setdefault(claim.value, []).append(claim.source_id)
        scores = {}
        for value, sources in supporters.items():
            sources.sort(key=lambda s: (-accuracy[s], s))
            discounted = []
            for place, source in enumerate(sources):
                independence = 1.0
                for earlier in sources[:place]:
                    key = (min(source, earlier), max(source, earlier))
                    independence *= 1.0 - copy_rate * copy_probability.get(
                        key, 0.0
                    )
                discounted.append(independence * votes[source])
            scores[value] = math.fsum(discounted)
        return naive_softmax(scores)

    return score_item


def naive_accucopy_scorer(fuser, accuracy, copy_probability):
    return naive_item_scorer(
        accuracy, copy_probability, fuser._detector.copy_rate, fuser._n
    )


def naive_vote(fuser, claims):
    """Each item's most-claimed value, the first claimed on a tie."""
    claims.require_nonempty()
    chosen, confidence = {}, {}
    for item in claims.items():
        item_claims = claims.claims_for(item)
        counts = {}
        for claim in item_claims:
            counts[claim.value] = counts.get(claim.value, 0) + 1
        best = max(
            counts,
            key=lambda value: (counts[value], -list(counts).index(value)),
        )
        chosen[item] = best
        confidence[item] = counts[best] / len(item_claims)
    return FusionResult(chosen=chosen, confidence=confidence)


@contextlib.contextmanager
def naive_fusion():
    """Every fuser on the claim walk: the library's ``score`` and
    ``choose``, item rules and vote replaced by the ones above (reads a
    ``ClaimSet``)."""
    modules = (accu, truthfinder, accucopy)
    with contextlib.ExitStack() as stack:
        for owner, attribute, naive in (
            *((module, "score", naive_score) for module in modules),
            *((module, "choose", naive_choose) for module in modules),
            (AccuVote, "item_scorer", naive_accuvote_scorer),
            (TruthFinder, "item_scorer", naive_truthfinder_scorer),
            (AccuCopy, "item_scorer", naive_accucopy_scorer),
            (VotingFuser, "fuse", naive_vote),
        ):
            stack.enter_context(mock.patch.object(owner, attribute, naive))
        yield


# --- copy detection: the per-pair walk ----------------------------------


def naive_outcome_counts(claims, source_a, source_b, truths):
    """(agree-true, agree-false, disagree) by walking the shared items."""
    agree_true = agree_false = disagree = 0
    for item in claims.shared_items(source_a, source_b):
        value_a = claims.value_of(source_a, item)
        value_b = claims.value_of(source_b, item)
        if value_a != value_b:
            disagree += 1
        elif truths.get(item) == value_a:
            agree_true += 1
        else:
            agree_false += 1
    return agree_true, agree_false, disagree


def naive_outcome_counter(claims, truths, sources):
    return lambda a, b: naive_outcome_counts(claims, a, b, truths)


def naive_detector():
    """The detector's likelihood code over the walked counts."""
    return mock.patch.object(
        copydetect, "_outcome_counter", naive_outcome_counter
    )


def naive_detect(detector, claims, truths, accuracies):
    """Every source pair in first-seen order, one walk each (call it
    under :func:`naive_detector`)."""
    sources = claims.sources()
    probabilities = {}
    for i, source_a in enumerate(sources):
        for source_b in sources[i + 1 :]:
            key = (min(source_a, source_b), max(source_a, source_b))
            probability = detector.pair_probability(
                claims, source_a, source_b, truths, accuracies
            )
            if probability > 0.0:
                probabilities[key] = probability
    return probabilities


# --- the claim store: one Claim object per claim ------------------------


def reference_claim_index(claims):
    """The claim index as it was built over ``Claim`` objects — ``claims``
    in claim order, one per (source, item) — grouped by item and by
    source."""
    by_item, by_source = {}, {}
    for claim in claims:
        by_item.setdefault(claim.item_id, []).append(claim)
        by_source.setdefault(claim.source_id, []).append(claim)
    return ClaimObjectIndex(by_item, by_source)


class ClaimObjectIndex:
    """What fusion reads of a :class:`ClaimSet` beyond its claims, each
    part built on first use and valid while that set holds ``n_claims``
    claims (claims are only ever added).

    What every sweep reads: :attr:`value_table`. Who claims what, as
    bitmasks — the half of copy detection that does not depend on what
    is believed true: :attr:`bitsets`.
    """

    def __init__(
        self,
        by_item: Mapping[str, Sequence[Claim]],
        by_source: Mapping[str, Sequence[Claim]],
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


# --- text: the window scan ---------------------------------------------


def reference_jaro(a: str, b: str) -> float:
    """The textbook window scan ``jaro_similarity`` used before it was
    rewritten over ``str.find`` — kept verbatim as the oracle."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_flags = [False] * len(a)
    b_flags = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        low = max(0, i - window)
        high = min(len(b), i + window + 1)
        for j in range(low, high):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = True
                b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    a_matched = [c for c, flag in zip(a, a_flags) if flag]
    b_matched = [c for c, flag in zip(b, b_flags) if flag]
    transpositions = (
        sum(ca != cb for ca, cb in zip(a_matched, b_matched)) // 2
    )
    return (
        matches / len(a)
        + matches / len(b)
        + (matches - transpositions) / matches
    ) / 3.0


def reference_jaro_winkler(a: str, b: str, prefix_weight: float = 0.1) -> float:
    jaro = reference_jaro(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def reference_levenshtein(a: str, b: str) -> int:
    """The textbook dynamic program ``levenshtein_distance`` ran before
    it went bit-parallel — kept verbatim as the oracle."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[i] + 1,      # deletion
                    current[i - 1] + 1,   # insertion
                    previous[i - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


# --- the live entity table: the deep re-sort ----------------------------


def reference_canonical(entities):
    """An entity table in canonical order, every entry rebuilt sorted:
    members, attributes, confidence and provenance keys, and each
    provenance list."""
    return {
        entity_id: {
            "members": sorted(entity["members"]),
            "attributes": {
                attr: entity["attributes"][attr]
                for attr in sorted(entity["attributes"])
            },
            "confidence": {
                attr: entity["confidence"][attr]
                for attr in sorted(entity["confidence"])
            },
            "provenance": {
                attr: sorted(entity["provenance"][attr])
                for attr in sorted(entity["provenance"])
            },
        }
        for entity_id, entity in sorted(entities.items())
    }


# --- linkage: the staged scorer and the compare-all linker --------------


def reference_score_bounded(comparator, left, right, threshold, exact_scores):
    """The staged scorer as it was before decisions were planned per
    field-presence mask: a presence pass per pair, the staged loop over
    the fields, a rebuild in declaration order. Kept as the reference
    :meth:`RecordComparator.decide` and ``score_bounded`` must equal.

    A field whose spec has a payload bound is bounded before it is
    scored, as ``decide`` does, with the same float operations the loop
    uses after a field scores ``cap``. A rejection there changes only
    the rejected pair's reported bound and evaluated count, not what
    is decided; checking it here keeps the equality tests asserting
    every float ``decide`` returns, the rejected scores included."""
    fields = comparator.fields
    penalty = comparator.missing_penalty
    specs = [similarity_spec(field.similarity) for field in fields]
    payloads_left, payloads_right = left.payloads, right.payloads
    missing_weighted = total_weight = remaining = 0.0
    for index, field in enumerate(fields):
        if payloads_left[index] is None or payloads_right[index] is None:
            if penalty is not None:
                missing_weighted += field.weight * penalty
                total_weight += field.weight
        else:
            total_weight += field.weight
            remaining += field.weight
    similarities = {}

    def bounded(is_match, score):
        return BoundedComparison(
            left_id=left.record_id,
            right_id=right.record_id,
            is_match=is_match,
            score=score,
            exact=False,
            n_evaluated=len(similarities),
        )

    if total_weight:
        weighted = missing_weighted
        decided_match = False
        for index in comparator.staged_order:
            if payloads_left[index] is None or payloads_right[index] is None:
                continue
            bound = specs[index].bound
            if bound is not None and not decided_match:
                cap = bound(payloads_left[index], payloads_right[index])
                if cap is not None:
                    upper = (
                        weighted
                        + fields[index].weight * cap
                        + (remaining - fields[index].weight)
                    ) / total_weight
                    if upper < threshold - BOUND_MARGIN:
                        return bounded(False, upper)
            similarity = specs[index].similarity(
                payloads_left[index], payloads_right[index]
            )
            similarities[index] = similarity
            weighted += fields[index].weight * similarity
            remaining -= fields[index].weight
            if decided_match:
                continue
            upper = (weighted + remaining) / total_weight
            if upper < threshold - BOUND_MARGIN:
                return bounded(False, upper)
            lower = weighted / total_weight
            if lower >= threshold + BOUND_MARGIN:
                if not exact_scores:
                    return bounded(True, lower)
                decided_match = True
    vector_similarities = []
    weighted = exact_total = 0.0
    for index, field in enumerate(fields):
        similarity = similarities.get(index)
        vector_similarities.append(similarity)
        if similarity is None:
            if penalty is not None:
                weighted += field.weight * penalty
                exact_total += field.weight
            continue
        weighted += field.weight * similarity
        exact_total += field.weight
    score = weighted / exact_total if exact_total else 0.0
    return BoundedComparison(
        left_id=left.record_id,
        right_id=right.record_id,
        is_match=score >= threshold,
        score=score,
        exact=True,
        n_evaluated=len(similarities),
        vector=ComparisonVector(
            left.record_id, right.record_id, tuple(vector_similarities), score
        ),
    )


def reference_prepare(comparator, record):
    """``RecordComparator.prepare`` field by field: each field looks up
    its own name, then its aliases, with ``get``
    (``FieldComparator.prepare``)."""
    attributes = comparator.translate(record)
    payloads = tuple(field.prepare(attributes) for field in comparator.fields)
    mask = 0
    for index, payload in enumerate(payloads):
        if payload is not None:
            mask |= 1 << index
    return PreparedRecord(record.record_id, payloads, mask)


class CompareAllLinker(IncrementalLinker):
    """The reference the write path is held to: every key's bucket is
    gathered, every candidate is compared (plain ``compare`` over the
    raw records — no prepared payloads, no early exit, nothing skipped),
    every accepted pair is reported and unioned. Quadratic in entity
    size; kept for tests."""

    def _candidates_under(self, keys):
        candidate_ids = {}
        for key in keys:
            candidate_ids.update(dict.fromkeys(self._index.get(key, ())))
        return list(candidate_ids)[: self._max_candidates]

    def _matches(self, record):
        candidate_ids = self.candidates(record)
        scored = []
        for other_id in candidate_ids:
            vector = self._comparator.compare(record, self.record(other_id))
            if self._classifier.is_match(vector):
                scored.append((other_id, vector.score))
        return candidate_ids, scored

    def probe(self, record):
        candidate_ids, scored = self._matches(record)
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return ProbeResult(
            tuple(scored), len(candidate_ids), len(candidate_ids)
        )

    def add_batch(self, batch):
        candidates, match_pairs = 0, []
        for record in batch:
            candidate_ids, scored = self._matches(record)
            candidates += len(candidate_ids)
            self.resurrect(record)  # index it; refuses a repeated id
            for other_id, _ in scored:
                match_pairs.append((record.record_id, other_id))
                self.merge(record.record_id, other_id)
        return BatchStats(
            len(batch), candidates, candidates, len(match_pairs),
            tuple(match_pairs),
        )


def reference_resolve(
    records, blocker, comparator, classifier, clustering,
    candidate_pairs=None, excluded=(),
):
    """``resolve`` as one loop: the blocker's sorted unique pairs, or
    the caller's as ``resolve`` documents them (oriented, sorted, no
    self-pairs); ``compare`` on each raw pair — no engine, no prepared
    records, no early exit; and the library's clustering over the pairs
    ``classifier`` accepts. ``excluded`` pairs (quarantined by a fault)
    count as candidates but are never compared."""
    by_id = {record.record_id: record for record in records}
    if candidate_pairs is None:
        pairs = blocker.block(records).ordered_pairs()
    else:
        pairs = sorted(
            tuple(sorted(pair))
            for pair in candidate_pairs
            if len(set(pair)) == 2
        )
    edges = []
    for left, right in (pair for pair in pairs if pair not in excluded):
        vector = comparator.compare(by_id[left], by_id[right])
        if classifier.is_match(vector):
            edges.append((left, right, vector.score))
    matches = {frozenset(edge[:2]) for edge in edges}
    ids = sorted(by_id)
    clusters = {
        "components": lambda: connected_components(matches, ids),
        "center": lambda: center_clustering(edges, ids),
        "merge-center": lambda: merge_center_clustering(edges, ids),
    }[clustering]()
    return LinkageResult(clusters, matches, len(pairs), edges)


def reference_merge_partitions(partitions, ids):
    """Identifier linkage's merge as the pipeline first ran it: every
    within-cluster pair of every partition, closed transitively."""
    pairs = set()
    for partition in partitions:
        pairs |= clusters_to_pairs(partition)
    return connected_components(pairs, ids)


def reference_identifier_score(profile):
    """An attribute's identifier score, every value shaped afresh."""
    if profile.n_records < 3:
        return 0.0
    values = list(profile.values)
    if not values:
        return 0.0
    with_digits = sum(1 for v in values if re.search(r"\d", v))
    digit_fraction = with_digits / len(values)
    lengths = [len(normalize_identifier(v)) for v in values]
    plausible = sum(1 for n in lengths if 4 <= n <= 32)
    length_fraction = plausible / len(lengths)
    single_token = sum(1 for v in values if len(v.split()) == 1)
    single_token_fraction = single_token / len(values)
    shape = (
        0.3 * digit_fraction
        + 0.2 * length_fraction
        + 0.5 * single_token_fraction
    )
    return profile.uniqueness * shape


def reference_detect_identifier_attributes(
    profiles, min_score=0.8, per_source=1
):
    """``detect_identifier_attributes`` scoring every profile in full."""
    by_source = {}
    for (source_id, attribute), profile in profiles.items():
        score = reference_identifier_score(profile)
        if score >= min_score:
            by_source.setdefault(source_id, []).append(
                IdentifierDetection(source_id, attribute, score)
            )
    detections = []
    for source_id in sorted(by_source):
        ranked = sorted(
            by_source[source_id], key=lambda d: (-d.score, d.attribute)
        )
        detections.extend(ranked[:per_source])
    return detections


# --- schema -------------------------------------------------------------


def reference_observe(profile, raw_value):
    """``AttributeProfile.observe`` as one pass over one occurrence."""
    profile.n_records += 1
    normalized = normalize_value(raw_value)
    profile.values[normalized] += 1
    profile.value_tokens.update(word_tokens(normalized))
    measurement = parse_measurement(normalized.replace(",", "."))
    if measurement is not None:
        profile.numeric_values.append(measurement.in_base_unit().value)
        profile.raw_numeric_values.append(measurement.value)


def reference_profile_attributes(dataset):
    """``profile_attributes``: one observation per value occurrence, in
    source, record and attribute order."""
    profiles = {}
    for source in dataset.sources:
        for record in source:
            for attribute, value in record.attributes.items():
                key = (source.source_id, attribute)
                if key not in profiles:
                    normalized = normalize_attribute_name(attribute)
                    profiles[key] = AttributeProfile(
                        source_id=source.source_id,
                        attribute=attribute,
                        normalized_name=normalized,
                        name_tokens=tuple(word_tokens(normalized)),
                    )
                reference_observe(profiles[key], value)
    return profiles


def reference_translate(schema, record):
    """``MediatedSchema.translate`` with one lookup per attribute: the
    mediated name, else the normalized source name; first one wins."""
    translated = {}
    for attribute, value in record.attributes.items():
        mediated = schema.mediated_for(record.source_id, attribute)
        if mediated is not None:
            key = mediated.name
        else:
            key = normalize_attribute_name(attribute)
        translated.setdefault(key, value)
    return translated
