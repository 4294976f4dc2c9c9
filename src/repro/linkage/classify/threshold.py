"""Threshold match classifier: the simplest decision rule."""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.linkage.comparison import ComparisonVector

__all__ = ["MatchDecision", "ThresholdClassifier", "plain_threshold"]


class MatchDecision:
    """Tri-state decision constants shared by all classifiers."""

    MATCH = "match"
    NON_MATCH = "non-match"
    POSSIBLE = "possible"


class ThresholdClassifier:
    """Match iff the aggregate score reaches ``match_threshold``.

    With ``review_threshold`` set below it, scores in between yield
    :data:`MatchDecision.POSSIBLE` — the clerical-review band of the
    classical linkage model.
    """

    name = "threshold"

    def __init__(
        self,
        match_threshold: float = 0.85,
        review_threshold: float | None = None,
    ) -> None:
        if not 0.0 <= match_threshold <= 1.0:
            raise ConfigurationError("match_threshold must be in [0, 1]")
        if review_threshold is not None and not (
            0.0 <= review_threshold <= match_threshold
        ):
            raise ConfigurationError(
                "review_threshold must be in [0, match_threshold]"
            )
        self._match_threshold = match_threshold
        self._review_threshold = review_threshold

    @property
    def match_threshold(self) -> float:
        """The score at or above which a pair is a match."""
        return self._match_threshold

    def classify(self, vector: ComparisonVector) -> str:
        """Decide one pair."""
        if vector.score >= self._match_threshold:
            return MatchDecision.MATCH
        if (
            self._review_threshold is not None
            and vector.score >= self._review_threshold
        ):
            return MatchDecision.POSSIBLE
        return MatchDecision.NON_MATCH

    def is_match(self, vector: ComparisonVector) -> bool:
        """True iff the pair is classified a match."""
        return self.classify(vector) == MatchDecision.MATCH


def plain_threshold(classifier) -> float | None:
    """``match_threshold`` when ``classifier`` is exactly a
    :class:`ThresholdClassifier`, else ``None``.

    The threshold-bounded early-exit scorers decide a pair by
    ``score >= match_threshold`` without building its vector. That is
    the classifier's own decision only for the plain rule: a subclass
    may override ``is_match``, so the type check is exact and every
    linkage path (batch engine, incremental linker, progressive
    resolution) asks this one function, once per run.
    """
    if type(classifier) is ThresholdClassifier:
        return classifier.match_threshold
    return None
