"""Greedy source selection and the ordering baselines.

:class:`GreedySourceSelector` adds, at each step, the source with the
best marginal expected-accuracy gain (optionally per unit cost), and
can stop when gain no longer justifies cost — the "less is more"
decision. Random / coverage / accuracy orderings provide the
comparison curves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import ConfigurationError
from repro.fusion.base import ClaimSet, Fuser
from repro.selection.gain import expected_accuracy, marginal_gain
from repro.selection.profiles import profile_sources

__all__ = ["SelectionStep", "SelectionResult", "GreedySourceSelector", "baseline_order"]


@dataclass(frozen=True)
class SelectionStep:
    """One step of the selection process."""

    source_id: str
    gain: float
    cost: float
    expected_accuracy: float

    @property
    def profit(self) -> float:
        """Gain minus cost (with the caller's cost scaling pre-applied)."""
        return self.gain - self.cost


@dataclass(frozen=True)
class SelectionResult:
    """Full selection trajectory."""

    steps: tuple[SelectionStep, ...]
    stopped_early: bool

    @property
    def order(self) -> tuple[str, ...]:
        """Sources in selection order."""
        return tuple(step.source_id for step in self.steps)

    def cumulative_profit(self) -> list[float]:
        """Running Σ(gain − cost) after each step."""
        running = 0.0
        profits: list[float] = []
        for step in self.steps:
            running += step.profit
            profits.append(running)
        return profits


class GreedySourceSelector:
    """Greedy marginal-gain source selection.

    Parameters
    ----------
    fuser:
        Fusion model used both to integrate and to compute expected
        accuracy.
    cost_weight:
        The cost of adding a source (every source costs one unit), in
        expected-accuracy units; 0 ignores cost (pure accuracy-greedy).
    stop_when_unprofitable:
        Stop at the first step whose best gain − scaled cost < 0 (the
        less-is-more stopping rule). Otherwise rank all sources.
    max_sources:
        Hard cap on selected sources.
    """

    def __init__(
        self,
        fuser: Fuser,
        cost_weight: float = 0.0,
        stop_when_unprofitable: bool = False,
        max_sources: int | None = None,
    ) -> None:
        if cost_weight < 0:
            raise ConfigurationError("cost_weight must be >= 0")
        self._fuser = fuser
        self._cost_weight = cost_weight
        self._stop = stop_when_unprofitable
        self._max_sources = max_sources

    def select(self, claims: ClaimSet) -> SelectionResult:
        """Run the greedy selection over all sources in ``claims``."""
        claims.require_nonempty()
        remaining = list(claims.sources())
        selected: list[str] = []
        steps: list[SelectionStep] = []
        current_expected = 0.0
        budget = self._max_sources or len(remaining)
        stopped_early = False
        while remaining and len(selected) < budget:
            best_source: str | None = None
            best_score = float("-inf")
            best_gain = 0.0
            for candidate in remaining:
                gain = marginal_gain(
                    claims, selected, candidate, self._fuser
                )
                score = gain - self._cost_weight
                if score > best_score or (
                    score == best_score
                    and (best_source is None or candidate < best_source)
                ):
                    best_source = candidate
                    best_score = score
                    best_gain = gain
            assert best_source is not None
            scaled_cost = self._cost_weight
            if self._stop and best_gain - scaled_cost < 0:
                stopped_early = True
                break
            selected.append(best_source)
            remaining.remove(best_source)
            current_expected = expected_accuracy(
                claims, selected, self._fuser
            )
            steps.append(
                SelectionStep(
                    source_id=best_source,
                    gain=best_gain,
                    cost=scaled_cost,
                    expected_accuracy=current_expected,
                )
            )
        return SelectionResult(steps=tuple(steps), stopped_early=stopped_early)


def baseline_order(
    claims: ClaimSet,
    strategy: str,
    seed: int = 0,
    reference_truth: Mapping[str, str] | None = None,
) -> list[str]:
    """Source orderings the greedy curve is compared against.

    ``"random"`` shuffles; ``"coverage"`` sorts by claim count;
    ``"accuracy"`` sorts by estimated accuracy (vs the majority vote
    unless a reference truth is supplied).
    """
    sources = list(claims.sources())
    if strategy == "random":
        rng = random.Random(seed)
        rng.shuffle(sources)
        return sources
    stats = profile_sources(claims, reference_truth=reference_truth)
    if strategy == "coverage":
        return sorted(sources, key=lambda s: (-stats[s].coverage, s))
    if strategy == "accuracy":
        return sorted(
            sources, key=lambda s: (-stats[s].accuracy_estimate, s)
        )
    raise ConfigurationError(f"unknown baseline strategy {strategy!r}")
