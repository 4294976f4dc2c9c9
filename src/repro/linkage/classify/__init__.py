"""Match classifiers: threshold, rule-based, Fellegi-Sunter (EM)."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "fellegi_sunter": "FellegiSunterModel fit_fellegi_sunter",
        "rules": "MatchRule RuleBasedClassifier rule_for",
        "threshold": "MatchDecision ThresholdClassifier plain_threshold",
    },
)
