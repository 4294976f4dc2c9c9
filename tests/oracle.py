"""The naive references the fast paths are checked against: the
simplest code that states each rule, kept here and nowhere else.

Fusion — the claim walk every fuser ran before the value table. A sweep
visits each item's ``Claim`` objects, scores its values into a
``{value: score}`` dict, and looks each source's claims up in an
``{item: {value: score}}`` table for its mean; voting counts values in a
dict. :func:`naive_fusion` puts that sweep, the three item rules and
voting in place of the library's, so any fuser's own ``fuse`` runs on
the reference. Every float sum here is ``math.fsum`` over a list of the
terms, as in the library: exact, so no order of adding is promised.

Copy detection — the walk over every shared item of a source pair, and
the independence discount as the model states it.

Text — the textbook window scan Jaro used before it was rewritten over
``str.find``, and Jaro-Winkler on top of it, uncached and taking its
arguments in the order given.

The live entity table — the deep re-sort ``EntityProjection.canonical``
made of every entry before entries were canonical when tabled.

Linkage — the staged scorer as it was before decisions were planned per
field-presence mask, and the incremental linker that compares every
candidate.
"""

import contextlib
import math
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
from repro.fusion.base import FusionResult
from repro.fusion.online import vote_count
from repro.linkage import BatchStats, IncrementalLinker, ProbeResult
from repro.linkage.comparison import (
    BOUND_MARGIN,
    BoundedComparison,
    ComparisonVector,
    similarity_spec,
)

# --- fusion: the claim walk -------------------------------------------


def naive_softmax(scores):
    peak = max(scores.values())
    exps = {value: math.exp(score - peak) for value, score in scores.items()}
    total = math.fsum(exps.values())
    return {value: weight / total for value, weight in exps.items()}


def naive_sweep(claims, score_item, reads_values=False):
    """Each item's winner by ``(score, value)`` and its score, and each
    source's mean score looked up claim by claim in its claim order.
    Every item is walked alone, whether or not its rule reads values."""
    chosen, confidence, table = {}, {}, {}
    for item in claims.items():
        scores = table[item] = score_item(claims.claims_for(item))
        best = max(scores, key=lambda value: (scores[value], value))
        chosen[item] = best
        confidence[item] = scores[best]
    means = {}
    for source in claims.sources():
        own = claims.claims_by(source)
        means[source] = math.fsum(
            table[claim.item_id][claim.value] for claim in own
        ) / len(own)
    return chosen, confidence, means


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
            value: 1.0 / (1.0 + math.exp(-fuser._dampening * score))
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
    """Every fuser on the claim walk: the library's ``sweep``, item
    rules and vote replaced by the ones above (reads a ``ClaimSet``)."""
    with contextlib.ExitStack() as stack:
        for owner, attribute, naive in (
            (accu, "sweep", naive_sweep),
            (truthfinder, "sweep", naive_sweep),
            (accucopy, "sweep", naive_sweep),
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
    :meth:`RecordComparator.decide` and ``score_bounded`` must equal."""
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


class CompareAllLinker(IncrementalLinker):
    """The reference the write path is held to: every candidate is
    compared (plain ``compare`` over the raw records — no prepared
    payloads, no early exit, nothing skipped), every accepted pair is
    reported and unioned. Quadratic in entity size; kept for tests."""

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
