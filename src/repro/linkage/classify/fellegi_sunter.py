"""Fellegi-Sunter probabilistic linkage with EM parameter estimation.

The classical model: each compared pair yields a binary agreement
pattern γ over the comparison fields; matches produce agreement on
field *i* with probability ``m_i``, non-matches with probability
``u_i``. The match weight of a pattern is the log-likelihood ratio

    w(γ) = Σ_i  γ_i · log(m_i / u_i)  +  (1 - γ_i) · log((1-m_i)/(1-u_i))

and pairs are classified by thresholding w. When labeled pairs are
unavailable, ``m``, ``u`` and the match prevalence ``p`` are estimated
by expectation-maximization over the observed patterns (Winkler's
standard unsupervised recipe), assuming conditional independence of
fields.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ConfigurationError, EmptyInputError
from repro.core.fixedpoint import fixed_point
from repro.linkage.classify.threshold import MatchDecision
from repro.linkage.comparison import ComparisonVector
from repro.recovery import config_fingerprint

__all__ = ["FellegiSunterModel", "fit_fellegi_sunter"]

_EPSILON = 1e-6

#: How far the parameters may still move, summed, in the step that
#: converges.
TOLERANCE = 1e-6

#: The match prevalence EM starts from.
INITIAL_PREVALENCE = 0.1


def _clamp(value: float) -> float:
    return min(1.0 - _EPSILON, max(_EPSILON, value))


@dataclass
class FellegiSunterModel:
    """A fitted Fellegi-Sunter model.

    Attributes
    ----------
    m, u:
        Per-field agreement probabilities among matches / non-matches.
    prevalence:
        Estimated fraction of compared pairs that are matches.
    agreement_threshold:
        Similarity level at which a field counts as agreeing.
    upper_weight, lower_weight:
        Decision thresholds on the match weight: ≥ upper → match,
        < lower → non-match, in between → possible.
    """

    m: tuple[float, ...]
    u: tuple[float, ...]
    prevalence: float
    agreement_threshold: float = 0.85
    upper_weight: float = 0.0
    lower_weight: float = 0.0

    name = "fellegi-sunter"

    def __post_init__(self) -> None:
        if len(self.m) != len(self.u):
            raise ConfigurationError("m and u must have equal length")
        if self.lower_weight > self.upper_weight:
            raise ConfigurationError(
                "lower_weight must not exceed upper_weight"
            )

    def pattern_weight(self, pattern: Sequence[bool]) -> float:
        """Log-likelihood-ratio weight of an agreement pattern."""
        if len(pattern) != len(self.m):
            raise ConfigurationError(
                f"pattern has {len(pattern)} fields, model has {len(self.m)}"
            )
        weight = 0.0
        for agrees, m_i, u_i in zip(pattern, self.m, self.u):
            m_i, u_i = _clamp(m_i), _clamp(u_i)
            if agrees:
                weight += math.log(m_i / u_i)
            else:
                weight += math.log((1.0 - m_i) / (1.0 - u_i))
        return weight

    def weight(self, vector: ComparisonVector) -> float:
        """Match weight of a comparison vector."""
        return self.pattern_weight(
            vector.agreement_pattern(self.agreement_threshold)
        )

    def match_probability(self, vector: ComparisonVector) -> float:
        """Posterior P(match | pattern) under the fitted model."""
        weight = self.weight(vector)
        prior_odds = _clamp(self.prevalence) / (1.0 - _clamp(self.prevalence))
        odds = prior_odds * math.exp(weight)
        return odds / (1.0 + odds)

    def classify(self, vector: ComparisonVector) -> str:
        """Three-way Fellegi-Sunter decision."""
        weight = self.weight(vector)
        if weight >= self.upper_weight:
            return MatchDecision.MATCH
        if weight < self.lower_weight:
            return MatchDecision.NON_MATCH
        return MatchDecision.POSSIBLE

    def is_match(self, vector: ComparisonVector) -> bool:
        """True iff the decision is MATCH."""
        return self.classify(vector) == MatchDecision.MATCH


def fit_fellegi_sunter(
    vectors: Sequence[ComparisonVector],
    agreement_threshold: float = 0.85,
    max_iterations: int = 100,
    tracer=None,
    checkpoint=None,
) -> FellegiSunterModel:
    """Fit m/u/prevalence by EM over unlabeled comparison vectors.

    Patterns are aggregated (EM runs over distinct patterns weighted by
    count), so fitting is fast even on large candidate sets. Decision
    thresholds are initialized to the weight at posterior 0.5
    (``upper = lower``); callers wanting a review band can widen them.

    ``tracer`` (an :class:`repro.obs.Tracer`, default no-op) records an
    EM span carrying the per-iteration parameter-change deltas.

    ``checkpoint`` (a :class:`repro.recovery.RunStore` or a view of
    one, default off) durably saves the EM state after every iteration;
    a rerun over the same patterns with the same parameters resumes
    mid-convergence with a fit identical to an uninterrupted run.
    """
    if not vectors:
        raise EmptyInputError("cannot fit Fellegi-Sunter on no vectors")
    n_fields = len(vectors[0].similarities)
    patterns: Counter[tuple[bool, ...]] = Counter(
        v.agreement_pattern(agreement_threshold) for v in vectors
    )
    if any(len(p) != n_fields for p in patterns):
        raise ConfigurationError("inconsistent vector lengths")

    total_pairs = sum(patterns.values())

    def step(state):
        m, u, prevalence = state
        # E-step: responsibility of the match class for each pattern.
        responsibilities: dict[tuple[bool, ...], float] = {}
        for pattern in patterns:
            likelihood_match = prevalence
            likelihood_non = 1.0 - prevalence
            for agrees, m_i, u_i in zip(pattern, m, u):
                likelihood_match *= m_i if agrees else (1.0 - m_i)
                likelihood_non *= u_i if agrees else (1.0 - u_i)
            total = likelihood_match + likelihood_non
            responsibilities[pattern] = (
                likelihood_match / total if total > 0 else 0.5
            )
        # M-step.
        expected_matches = math.fsum(
            responsibilities[p] * count for p, count in patterns.items()
        )
        expected_non = total_pairs - expected_matches
        new_prevalence = _clamp(expected_matches / total_pairs)
        new_m: list[float] = []
        new_u: list[float] = []
        for index in range(n_fields):
            agree_match = math.fsum(
                responsibilities[p] * count
                for p, count in patterns.items()
                if p[index]
            )
            agree_non = math.fsum(
                (1.0 - responsibilities[p]) * count
                for p, count in patterns.items()
                if p[index]
            )
            new_m.append(
                _clamp(agree_match / expected_matches)
                if expected_matches > 0
                else 0.5
            )
            new_u.append(
                _clamp(agree_non / expected_non)
                if expected_non > 0
                else 0.5
            )
        delta = math.fsum(
            [
                abs(new_prevalence - prevalence),
                *(abs(a - b) for a, b in zip(new_m, m)),
                *(abs(a - b) for a, b in zip(new_u, u)),
            ]
        )
        return (new_m, new_u, new_prevalence), delta, delta < TOLERANCE

    def signature() -> str:
        return config_fingerprint(
            sorted(patterns.items()),
            agreement_threshold,
            max_iterations,
            TOLERANCE,
            INITIAL_PREVALENCE,
        )

    # Initialization: matches agree often, non-matches rarely.
    (m, u, prevalence), __ = fixed_point(
        step,
        ([0.9] * n_fields, [0.1] * n_fields, INITIAL_PREVALENCE),
        max_iterations=max_iterations,
        span="classify.fellegi_sunter_em",
        counter="classify.em_iterations",
        tracer=tracer,
        checkpoint=checkpoint,
        signature=signature,
        digits=10,
        n_vectors=len(vectors),
        n_patterns=len(patterns),
    )

    # EM's two components are label-symmetric; orient so the "match"
    # component is the one agreeing more (standard identifiability fix).
    if math.fsum(m) < math.fsum(u):
        m, u = u, m
        prevalence = 1.0 - prevalence

    # Threshold at posterior 0.5: w >= -log(prior odds).
    prior_odds = _clamp(prevalence) / (1.0 - _clamp(prevalence))
    decision_weight = -math.log(prior_odds)
    return FellegiSunterModel(
        m=tuple(m),
        u=tuple(u),
        prevalence=prevalence,
        agreement_threshold=agreement_threshold,
        upper_weight=decision_weight,
        lower_weight=decision_weight,
    )
