"""Fusion and copy-detection quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.fusion.base import FusionResult

__all__ = [
    "fusion_accuracy",
    "estimation_rmse",
    "CopyDetectionQuality",
    "copy_detection_quality",
]


def fusion_accuracy(result: FusionResult, truth: Mapping[str, str]) -> float:
    """Fraction of items with known truth that fusion answered correctly."""
    return result.accuracy_against(truth)


def estimation_rmse(
    estimates: Mapping[str, float], planted: Mapping[str, float]
) -> float:
    """RMSE between estimated and planted per-source accuracies.

    Only sources with both an estimate and a planted accuracy count;
    returns ``nan`` when there is no overlap. Works on any estimate
    mapping — a batch :class:`FusionResult`'s ``source_accuracy``, a
    streaming tracker's :meth:`~repro.streaming.DecayedAccuracyTracker.
    estimates` — which is what the drift benchmark's accuracy-vs-drift
    curves are scored with.
    """
    shared = [source for source in planted if source in estimates]
    if not shared:
        return math.nan
    squared = sum(
        (estimates[source] - planted[source]) ** 2 for source in shared
    )
    return math.sqrt(squared / len(shared))


@dataclass(frozen=True)
class CopyDetectionQuality:
    """Precision/recall of detected copying relations vs planted edges."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        predicted = self.true_positives + self.false_positives
        return self.true_positives / predicted if predicted else 1.0

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def __str__(self) -> str:
        return (
            f"copy-P={self.precision:.3f} copy-R={self.recall:.3f} "
            f"copy-F1={self.f1:.3f}"
        )


def copy_detection_quality(
    detected: Mapping[tuple[str, str], float],
    planted_copier_of: Mapping[str, str],
    include_siblings: bool = False,
) -> CopyDetectionQuality:
    """Score detected copy probabilities against planted copier edges.

    A detected pair ``(a, b)`` with probability ≥ 0.5 counts
    as a predicted copying relation between ``a`` and ``b`` in either
    direction (direction is notoriously hard; the canonical evaluation
    scores the undirected relation). Planted edges are
    ``copier → parent``. With ``include_siblings``, two copiers of the
    same parent also count as truly dependent — they are correlated
    through the parent, and detectors legitimately flag them.
    """
    predicted: set[frozenset[str]] = {
        frozenset(pair)
        for pair, probability in detected.items()
        if probability >= 0.5 and pair[0] != pair[1]
    }
    actual: set[frozenset[str]] = {
        frozenset((copier, parent))
        for copier, parent in planted_copier_of.items()
    }
    if include_siblings:
        by_parent: dict[str, list[str]] = {}
        for copier, parent in planted_copier_of.items():
            by_parent.setdefault(parent, []).append(copier)
        for siblings in by_parent.values():
            for i, left in enumerate(siblings):
                for right in siblings[i + 1 :]:
                    actual.add(frozenset((left, right)))
    true_positives = len(predicted & actual)
    return CopyDetectionQuality(
        true_positives=true_positives,
        false_positives=len(predicted) - true_positives,
        false_negatives=len(actual) - true_positives,
    )
