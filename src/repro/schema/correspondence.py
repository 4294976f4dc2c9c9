"""Attribute correspondences: scoring, thresholding, 1:1 selection.

Given attribute profiles and a matcher, :func:`score_all_pairs`
produces the similarity of every cross-source attribute pair that
reaches a floor. It scores only the pairs the matcher says *can* reach
it (hybrid matcher: shared values, shared value tokens or close numeric
scales — an eighth of a wide corpus), most of which the matcher proves
below the floor before paying for a name score. Every skipped pair is
provably below the floor, so the result is the all-pairs loop's.
:func:`select_correspondences` thresholds the scores, optionally
enforcing a 1:1 constraint per source pair (each attribute of source A
maps to at most one attribute of source B — greedy best-first, the
standard stable-marriage-style cleanup).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.errors import ConfigurationError
from repro.obs import NULL_TRACER
from repro.schema.attribute_stats import AttributeProfile, SourceAttribute
from repro.schema.matchers import AttributeMatcher, NameScores

__all__ = ["Correspondence", "score_all_pairs", "select_correspondences"]


@dataclass(frozen=True)
class Correspondence:
    """A scored pair of source attributes believed to correspond."""

    left: SourceAttribute
    right: SourceAttribute
    score: float

    def as_pair(self) -> frozenset[SourceAttribute]:
        """Unordered view for set-based comparison."""
        return frozenset((self.left, self.right))


def report_counts(tracer, counts: Mapping[str, int]) -> None:
    """Count into ``tracer`` and annotate the caller's open span, if any."""
    tracer = tracer if tracer is not None else NULL_TRACER
    span = tracer.current()
    for name, value in counts.items():
        tracer.counter(name).inc(value)
        if span is not None:
            span.set(name, value)


def score_all_pairs(
    profiles: Mapping[SourceAttribute, AttributeProfile],
    matcher: AttributeMatcher,
    min_score: float = 0.0,
    cross_source_only: bool = True,
    tracer=None,
) -> list[Correspondence]:
    """Every attribute pair ``matcher`` scores at or above ``min_score``.

    The result is what scoring all pairs and dropping those below
    ``min_score`` (or at zero) gives, sorted by ``(left, right)``; the
    work is only the matcher's candidates, each scored or proven below
    ``min_score`` — so pass the floor the caller will apply. With
    ``cross_source_only`` (default) attributes of the same source are
    never paired: sources rarely publish true duplicates. ``tracer``
    receives the ``schema.*`` pair counts.
    """
    keys = sorted(profiles)
    ordered = [profiles[key] for key in keys]
    names = NameScores()
    correspondences: list[Correspondence] = []
    n_candidates = n_scored = 0
    for i, j in matcher.candidate_pairs(ordered, min_score, names):
        left_key, right_key = keys[i], keys[j]
        if cross_source_only and right_key[0] == left_key[0]:
            continue
        n_candidates += 1
        score = matcher.score_bounded(ordered[i], ordered[j], min_score, names)
        if score is None:
            continue
        n_scored += 1
        if score >= min_score and score > 0.0:
            correspondences.append(Correspondence(left_key, right_key, score))
    correspondences.sort(key=lambda c: (c.left, c.right))
    per_source = Counter(key[0] for key in keys) if cross_source_only else {}
    report_counts(
        tracer,
        {
            "schema.attributes": len(keys),
            "schema.pairs_possible": math.comb(len(keys), 2)
            - sum(math.comb(n, 2) for n in per_source.values()),
            "schema.candidate_pairs": n_candidates,
            "schema.pairs_name_scored": n_scored,
            "schema.name_pairs_distinct": len(names),
        },
    )
    return correspondences


def select_correspondences(
    scored: Iterable[Correspondence],
    threshold: float = 0.6,
    one_to_one: bool = True,
) -> list[Correspondence]:
    """Keep correspondences above ``threshold``.

    With ``one_to_one`` (default) a greedy best-first pass enforces
    that, per source pair, each attribute participates in at most one
    correspondence: pairs are taken in descending score order and a
    pair is kept only when both endpoints are still free with respect
    to the other's source.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigurationError("threshold must be in [0, 1]")
    surviving = [c for c in scored if c.score >= threshold]
    if not one_to_one:
        return sorted(
            surviving, key=lambda c: (-c.score, c.left, c.right)
        )
    surviving.sort(key=lambda c: (-c.score, c.left, c.right))
    taken: set[tuple[SourceAttribute, str]] = set()
    selected: list[Correspondence] = []
    for correspondence in surviving:
        left, right = correspondence.left, correspondence.right
        # An endpoint is "busy" once matched to *some* attribute of the
        # other endpoint's source.
        left_slot = (left, right[0])
        right_slot = (right, left[0])
        if left_slot in taken or right_slot in taken:
            continue
        taken.add(left_slot)
        taken.add(right_slot)
        selected.append(correspondence)
    return selected
