"""Numeric truth discovery: CRH-style conflict resolution.

Categorical fusion picks among claimed values; *numeric* conflicts
(prices, weights, delay minutes) need a different loss — being off by
1% is not the same as being off by 10×. The CRH framework (Li et al.,
SIGMOD'14) alternates two steps:

* **truth update** — each item's truth estimate is the source-weighted
  aggregate of its claims (weighted median for absolute loss, weighted
  mean for squared loss);
* **weight update** — each source's weight is ``-log`` of its share of
  the total loss, so sources that deviate more weigh less.

Item losses are normalized by the item's claim spread so items on
different scales contribute comparably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping

from repro.core.errors import ConfigurationError, EmptyInputError
from repro.fusion.base import ClaimSet, FusionResult
from repro.text.normalize import parse_measurement

__all__ = ["CRHNumericFuser", "parse_numeric_claims"]

LossName = Literal["absolute", "squared"]
_MIN_WEIGHT = 1e-6


def parse_numeric_claims(
    claims: ClaimSet,
) -> dict[tuple[str, str], float]:
    """Extract (source, item) → float from a claim set.

    Values go through measurement parsing (units converted to base
    units) with a plain-float fallback; unparseable claims are skipped.
    """
    numeric: dict[tuple[str, str], float] = {}
    for claim in claims:
        value = claim.value.strip().replace(",", ".")
        measurement = parse_measurement(value)
        if measurement is not None:
            numeric[(claim.source_id, claim.item_id)] = (
                measurement.in_base_unit().value
            )
            continue
        try:
            numeric[(claim.source_id, claim.item_id)] = float(value)
        except ValueError:
            continue
    return numeric


def _weighted_median(
    values: list[float], weights: list[float]
) -> float:
    order = sorted(range(len(values)), key=values.__getitem__)
    total = math.fsum(weights)
    if total <= 0:
        return values[order[len(order) // 2]]
    running = 0.0
    for index in order:
        running += weights[index]
        if running >= total / 2.0:
            return values[index]
    return values[order[-1]]


@dataclass
class CRHNumericFuser:
    """Conflict resolution on heterogeneous numeric data.

    Parameters
    ----------
    loss:
        ``"absolute"`` (robust; weighted-median truths) or
        ``"squared"`` (weighted-mean truths).
    max_iterations, tolerance:
        Convergence control on the source-weight vector.
    """

    loss: LossName = "absolute"
    max_iterations: int = 50
    tolerance: float = 1e-6

    name = "crh"

    def __post_init__(self) -> None:
        if self.loss not in ("absolute", "squared"):
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")

    def fuse_values(
        self, claims: Mapping[tuple[str, str], float]
    ) -> tuple[dict[str, float], dict[str, float], int]:
        """Fuse (source, item) → value claims.

        Returns ``(truths, source_weights, iterations)`` with weights
        normalized to mean 1. Sources are taken in first-seen claim order
        and every sum is exact, so the result depends on neither the
        hash seed nor the order of ``claims``' entries per item.
        """
        if not claims:
            raise EmptyInputError("no numeric claims to fuse")
        by_item: dict[str, list[tuple[str, float]]] = {}
        sources: dict[str, None] = {}
        for (source, item), value in claims.items():
            by_item.setdefault(item, []).append((source, value))
            sources.setdefault(source)

        # Per-item scale for loss normalization: the claim spread (std),
        # floored to keep perfectly agreeing items well-defined.
        scale: dict[str, float] = {}
        for item, entries in by_item.items():
            values = [v for __, v in entries]
            mean = math.fsum(values) / len(values)
            variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
            scale[item] = max(math.sqrt(variance), 1e-9)

        weights = {source: 1.0 for source in sources}
        truths: dict[str, float] = {}
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            for item, entries in by_item.items():
                values = [v for __, v in entries]
                entry_weights = [weights[s] for s, __ in entries]
                if self.loss == "absolute":
                    truths[item] = _weighted_median(values, entry_weights)
                else:
                    total = math.fsum(entry_weights)
                    truths[item] = (
                        math.fsum(w * v for w, v in zip(entry_weights, values))
                        / total
                        if total > 0
                        else math.fsum(values) / len(values)
                    )
            losses = {source: 0.0 for source in sources}
            for item, entries in by_item.items():
                for source, value in entries:
                    deviation = abs(value - truths[item]) / scale[item]
                    if self.loss == "squared":
                        deviation = deviation**2
                    losses[source] += deviation
            total_loss = math.fsum(losses.values())
            if total_loss <= 0:
                new_weights = {source: 1.0 for source in sources}
            else:
                new_weights = {
                    source: -math.log(
                        max(_MIN_WEIGHT, losses[source] / total_loss)
                    )
                    for source in sources
                }
                mean_weight = math.fsum(new_weights.values()) / len(sources)
                if mean_weight > 0:
                    new_weights = {
                        s: w / mean_weight for s, w in new_weights.items()
                    }
            change = max(
                abs(new_weights[s] - weights[s]) for s in sources
            )
            weights = new_weights
            if change < self.tolerance:
                break
        return truths, weights, iterations

    def fuse(self, claims: ClaimSet) -> FusionResult:
        """ClaimSet adapter: parse numeric values, fuse, format truths.

        Chosen values are rendered with 6 significant digits; source
        weights are exposed through ``source_accuracy`` rescaled to
        ``(0, 1)`` by ``w / (1 + w)`` for comparability.
        """
        claims.require_nonempty()
        numeric = parse_numeric_claims(claims)
        truths, weights, iterations = self.fuse_values(numeric)
        chosen = {item: f"{value:.6g}" for item, value in truths.items()}
        accuracy = {
            source: weight / (1.0 + weight) if weight > 0 else 0.0
            for source, weight in weights.items()
        }
        return FusionResult(
            chosen=chosen,
            source_accuracy=accuracy,
            iterations=iterations,
        )
