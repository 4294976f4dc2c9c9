"""Match classifiers: threshold, rule-based, Fellegi-Sunter (EM)."""

from repro.linkage.classify.fellegi_sunter import (
    FellegiSunterModel,
    fit_fellegi_sunter,
)
from repro.linkage.classify.rules import (
    MatchRule,
    RuleBasedClassifier,
    rule_for,
)
from repro.linkage.classify.threshold import (
    MatchDecision,
    ThresholdClassifier,
    plain_threshold,
)

__all__ = [
    "FellegiSunterModel",
    "MatchDecision",
    "MatchRule",
    "RuleBasedClassifier",
    "ThresholdClassifier",
    "fit_fellegi_sunter",
    "plain_threshold",
    "rule_for",
]
