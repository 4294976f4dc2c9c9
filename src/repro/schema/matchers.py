"""Attribute matchers: name-based, instance-based, and hybrid.

A matcher scores the similarity of two attribute profiles in
``[0, 1]``. The three families reflect the classical taxonomy:

* :class:`NameMatcher` compares the attribute *names* (string and token
  similarity) — cheap, blind to synonyms;
* :class:`InstanceMatcher` compares the attribute *values* (value
  overlap, token overlap, numeric-scale fingerprints) — finds synonyms,
  confused by attributes with shared vocabularies;
* :class:`HybridMatcher` combines both, which is the standard remedy.

A matcher also tells ``score_all_pairs`` which pairs can reach a floor
(``candidate_pairs``: blocking, one level up) and scores a pair or proves
it below the floor (``score_bounded``); neither changes the result, see
DESIGN.md entry 25.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet

from repro.core.errors import ConfigurationError
from repro.schema.attribute_stats import AttributeProfile
from repro.text.similarity import (
    jaro_winkler_similarity,
    monge_elkan_similarity,
)

__all__ = ["AttributeMatcher", "NameMatcher", "InstanceMatcher", "HybridMatcher"]

#: Slack on derived bounds: candidates need only be a superset, so the
#: bounds lean inclusive by far more than rounding can move a score.
_MARGIN = 1e-9

#: The numeric share above which an attribute counts as numeric; the
#: instance score is zero across the gate.
NUMERIC_GATE = 0.5


class NameScores(dict):
    """``names[a, b]``: the max of character-level (Jaro-Winkler) and
    token-level (Monge-Elkan) similarity of two normalized names. Both
    are symmetric to the last bit (DESIGN.md entry 25), so each
    unordered pair is computed once and kept under ``(min, max)``, which
    the other order reads. One instance lives for one
    ``score_all_pairs`` call; its size is the pairs evaluated."""

    def __missing__(self, key: tuple[str, str]) -> float:
        a, b = key
        if b < a:
            return self[b, a]
        self[key] = score = (
            max(jaro_winkler_similarity(a, b), monge_elkan_similarity(a, b))
            if a and b
            else 0.0
        )
        return score


class AttributeMatcher:
    """Base class: scores two attribute profiles in [0, 1].

    Subclasses override ``score``. The two hooks describe one particular
    ``score``: a subclass that replaces ``score`` and not them gets
    these defaults back, whatever it inherits from.
    """

    name = "matcher"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "score" in vars(cls):
            for hook in {"candidate_pairs", "score_bounded"} - set(vars(cls)):
                setattr(cls, hook, getattr(AttributeMatcher, hook))

    def score(self, a: AttributeProfile, b: AttributeProfile) -> float:
        raise NotImplementedError

    def candidate_pairs(self, profiles, min_score: float, names: NameScores):
        """Index pairs ``i < j`` into the sequence ``profiles``, each
        once: at least every pair with ``score > 0`` and ``score >=
        min_score``. Default: all pairs."""
        return combinations(range(len(profiles)), 2)

    def score_bounded(self, a, b, min_score: float, names: NameScores):
        """``score(a, b)``, or ``None`` if provably below ``min_score``."""
        return self.score(a, b)


@dataclass
class NameMatcher(AttributeMatcher):
    """Similarity of the attribute *names*.

    The score is the max of character-level (Jaro-Winkler on the
    normalized name) and token-level (Monge-Elkan over name tokens)
    similarity, so both ``"colour"``/``"color"`` and
    ``"display size"``/``"size of display"`` score high.
    """

    name = "name"

    def score(self, a: AttributeProfile, b: AttributeProfile) -> float:
        return NameScores()[a.normalized_name, b.normalized_name]

    def score_bounded(self, a, b, min_score, names):
        return names[a.normalized_name, b.normalized_name]

    def candidate_pairs(self, profiles, min_score, names, weight=1.0):
        """Pairs with ``weight * name score >= min_score``, decided once
        per distinct pair of names, not per pair of attributes."""
        holders: dict[str, list[int]] = defaultdict(list)
        for index, profile in enumerate(profiles):
            holders[profile.normalized_name].append(index)
        pairs: set[tuple[int, int]] = set()
        for left, lefts in holders.items():
            for right, rights in holders.items():
                if weight * names[left, right] >= min_score:
                    pairs.update(
                        (i, j) for i in lefts for j in rights if i < j
                    )
        return pairs


def _overlap(a: AbstractSet[str], b: AbstractSet[str]) -> float:
    """Jaccard, except that nothing on both sides is no evidence (0.0)."""
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared) if shared else 0.0


@dataclass
class InstanceMatcher(AttributeMatcher):
    """Similarity of the attribute *values*.

    Combines three signals:

    * Jaccard overlap of distinct value strings (dominant for
      categorical attributes);
    * Jaccard overlap of value tokens (robust to small format noise);
    * agreement of numeric-scale fingerprints for numeric attributes
      (mean log-magnitude in base units), which separates numeric
      attributes measured on different scales.

    :data:`NUMERIC_GATE` further suppresses matches between an
    essentially numeric attribute and an essentially textual one.
    """

    name = "instance"

    def score(self, a: AttributeProfile, b: AttributeProfile) -> float:
        if a.n_records == 0 or b.n_records == 0:
            return 0.0
        values_a, tokens_a, fraction_a, log_a = a.features
        values_b, tokens_b, fraction_b, log_b = b.features
        numeric = fraction_a > NUMERIC_GATE
        if numeric != (fraction_b > NUMERIC_GATE):
            return 0.0
        value_overlap = _overlap(values_a, values_b)
        token_overlap = _overlap(tokens_a, tokens_b)
        if not numeric:
            return max(value_overlap, token_overlap)
        scale = 0.0
        if log_a is not None and log_b is not None:
            scale = max(0.0, 1.0 - abs(log_a - log_b) / 1.5)
        return max(value_overlap, 0.5 * token_overlap + 0.5 * scale)

    def candidate_pairs(self, profiles, min_score, names=None):
        """Pairs on one side of :data:`NUMERIC_GATE` that share a value
        or value token (postings), or are numeric columns carried by
        scale alone: ``0.5 * scale >= min_score`` when the mean logs are
        within ``1.5 * (1 - 2 * min_score)`` of each other (a band
        join)."""
        postings: dict[tuple[bool, str], list[int]] = defaultdict(list)
        scales: list[tuple[float, int]] = []
        for index, profile in enumerate(profiles):
            if profile.n_records == 0:
                continue
            values, tokens, fraction, mean_log = profile.features
            numeric = fraction > NUMERIC_GATE
            for key in values | tokens:
                postings[numeric, key].append(index)
            if numeric and mean_log is not None:
                scales.append((mean_log, index))
        pairs: set[tuple[int, int]] = set()
        for holders in postings.values():
            pairs.update(combinations(holders, 2))
        band = 1.5 * (1.0 - 2.0 * min_score) + _MARGIN
        scales.sort()
        for position, (low, i) in enumerate(scales):
            for high, j in scales[position + 1 :]:
                if high - low > band:
                    break
                pairs.add((i, j) if i < j else (j, i))
        return pairs


@dataclass
class HybridMatcher(AttributeMatcher):
    """Weighted blend of name and instance evidence.

    With ``name_weight`` w, the score is ``w * name + (1 - w) *
    instance``, plus a *corroboration bonus*: when both signals agree
    above their own soft thresholds the score is lifted toward their
    max, which keeps truly corresponding attributes above one global
    threshold even when each individual signal is middling.
    """

    name = "hybrid"
    name_weight: float = 0.45

    def __post_init__(self) -> None:
        if not 0.0 <= self.name_weight <= 1.0:
            raise ConfigurationError("name_weight must be in [0, 1]")
        self._instance_matcher = InstanceMatcher()

    def score(self, a: AttributeProfile, b: AttributeProfile) -> float:
        return self._blend(
            NameScores()[a.normalized_name, b.normalized_name],
            self._instance_matcher.score(a, b),
        )

    def _blend(self, name_score: float, instance_score: float) -> float:
        blended = (
            self.name_weight * name_score
            + (1.0 - self.name_weight) * instance_score
        )
        if name_score > 0.75 and instance_score > 0.4:
            blended = max(blended, max(name_score, instance_score))
        return min(1.0, blended)

    def candidate_pairs(self, profiles, min_score, names):
        """At best (a perfect name) a pair scores ``w + (1 - w) *
        instance``, or the bonus past ``instance > 0.4``: that is a floor
        under the instance score. Where the floor is zero a pair with no
        instance evidence scores ``w * name`` and may survive on that."""
        weight = self.name_weight
        floor = (min_score - weight - _MARGIN) / max(1.0 - weight, _MARGIN)
        pairs = self._instance_matcher.candidate_pairs(
            profiles, max(0.0, min(0.4, floor))
        )
        if weight >= min_score:
            pairs |= NameMatcher().candidate_pairs(
                profiles, min_score, names, weight
            )
        return pairs

    def score_bounded(self, a, b, min_score, names):
        instance_score = self._instance_matcher.score(a, b)
        if self._blend(1.0, instance_score) < min_score:
            return None  # not even a perfect name reaches min_score
        return self._blend(
            names[a.normalized_name, b.normalized_name], instance_score
        )
