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
different scales contribute comparably. Every sum is exact, so neither
a truth nor a weight depends on the order of an item's claims.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Hashable, Iterable, Literal, Mapping, Sequence

from repro.core.errors import ConfigurationError, EmptyInputError
from repro.fusion.base import ClaimSet, FusionResult
from repro.text.normalize import parse_measurement

__all__ = ["CRHNumericFuser"]

LossName = Literal["absolute", "squared"]
_MIN_WEIGHT = 1e-6

#: How far a source weight may still move in the round that converges.
TOLERANCE = 1e-6

#: One item's claims as CRH reads them: each distinct number and the
#: positions of the sources claiming it.
Entries = Sequence[tuple[float, Sequence[int]]]


def _exact(x: float) -> int:
    """``x`` as an exact integer multiple of 2**-1074 (the smallest
    float): such integers add without rounding."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _parse(value: str) -> tuple[float, str | None] | None:
    """A claimed value as its number in its dimension's base unit and
    that unit (``None`` for a bare number), or ``None`` when it is not a
    finite number. Decimal commas are accepted."""
    text = value.replace(",", ".")
    measurement = parse_measurement(text)
    if measurement is not None:
        base = measurement.in_base_unit()
        number, unit = base.value, base.unit
    else:
        try:
            number, unit = float(text), None
        except ValueError:
            return None
    return (number, unit) if math.isfinite(number) else None


def _measured(
    values: Sequence[str], supporters: Sequence[Sequence[int]]
) -> tuple[str, Entries] | None:
    """One item's majority base unit and its numeric claims, or ``None``
    unless ≥ 2/3 of its claims are measurements with a unit. A tie
    between units goes to the larger unit name."""
    n_claims = with_unit = 0
    units: Counter[str] = Counter()
    entries = []
    for value, who in zip(values, supporters):
        n_claims += len(who)
        parsed = _parse(value)
        if parsed is None:
            continue
        number, unit = parsed
        entries.append((number, who))
        if unit:
            with_unit += len(who)
            units[unit] += len(who)
    if not units or with_unit / n_claims < 2 / 3:
        return None
    return max(units, key=lambda unit: (units[unit], unit)), entries


def _weighted_median(entries: Entries, weights: Sequence[float]) -> float:
    """The smallest claimed value whose claims up to it carry half the
    weight, every running total exact; the middle claim when no claim
    weighs anything."""
    ranked = sorted((value, p) for value, who in entries for p in who)
    running = list(accumulate(_exact(weights[p]) for __, p in ranked))
    if running[-1] <= 0:
        return ranked[len(ranked) // 2][0]
    return next(
        value
        for (value, __), total in zip(ranked, running)
        if 2 * total >= running[-1]
    )


@dataclass
class CRHNumericFuser:
    """Conflict resolution on heterogeneous numeric data.

    Parameters
    ----------
    loss:
        ``"absolute"`` (robust; weighted-median truths) or
        ``"squared"`` (weighted-mean truths).
    max_iterations:
        Convergence control on the source-weight vector, which has
        converged once no weight moves by :data:`TOLERANCE`.
    """

    loss: LossName = "absolute"
    max_iterations: int = 50

    name = "crh"

    def __post_init__(self) -> None:
        if self.loss not in ("absolute", "squared"):
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")

    def _truth(self, entries: Entries, weights: Sequence[float]) -> float:
        if self.loss == "absolute":
            return _weighted_median(entries, weights)
        total = math.fsum(weights[p] for __, who in entries for p in who)
        if total > 0:
            return (
                math.fsum(weights[p] * v for v, who in entries for p in who)
                / total
            )
        values = [v for v, who in entries for __ in who]
        return math.fsum(values) / len(values)

    def _solve(
        self,
        items: Callable[[], Iterable[tuple[Hashable, Entries]]],
        n_sources: int,
    ) -> tuple[dict[Hashable, float], dict[int, float], int]:
        """The CRH loop over ``items()``, one pass per iteration: every
        item's ``(key, entries)``, sources named by position.

        Returns ``(truths, weights, iterations)``: truths by key and
        weights, normalized to mean 1, by position, in position order,
        for the sources with a numeric claim.
        """
        weights = [1.0] * n_sources
        truths: dict[Hashable, float] = {}
        claimed: list[int] = []
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            truths = {}
            losses: dict[int, int] = {}
            for key, entries in items():
                truth = truths[key] = self._truth(entries, weights)
                # The loss is normalized by the claim spread (std),
                # floored to keep perfectly agreeing items well-defined.
                values = [v for v, who in entries for __ in who]
                mean = math.fsum(values) / len(values)
                variance = math.fsum((v - mean) ** 2 for v in values)
                scale = max(math.sqrt(variance / len(values)), 1e-9)
                for value, who in entries:
                    deviation = abs(value - truth) / scale
                    if self.loss == "squared":
                        deviation = deviation**2
                    exact = _exact(deviation)
                    for p in who:
                        losses[p] = losses.get(p, 0) + exact
            claimed = sorted(losses)
            if not claimed:
                break
            loss = {p: losses[p] / (1 << 1074) for p in claimed}
            total_loss = math.fsum(loss.values())
            new_weights = {p: 1.0 for p in claimed}
            if total_loss > 0:
                new_weights = {
                    p: -math.log(max(_MIN_WEIGHT, loss[p] / total_loss))
                    for p in claimed
                }
                mean_weight = math.fsum(new_weights.values()) / len(claimed)
                if mean_weight > 0:
                    new_weights = {
                        p: w / mean_weight for p, w in new_weights.items()
                    }
            change = max(abs(new_weights[p] - weights[p]) for p in claimed)
            for p, weight in new_weights.items():
                weights[p] = weight
            if change < TOLERANCE:
                break
        return truths, {p: weights[p] for p in claimed}, iterations

    def fuse_values(
        self, claims: Mapping[tuple[str, str], float]
    ) -> tuple[dict[str, float], dict[str, float], int]:
        """Fuse (source, item) → value claims.

        Returns ``(truths, source_weights, iterations)`` with weights
        normalized to mean 1 and sources in first-seen claim order. Every
        sum is exact, so the result depends on neither the hash seed nor
        the order of ``claims``' entries per item.
        """
        if not claims:
            raise EmptyInputError("no numeric claims to fuse")
        position: dict[str, int] = {}
        by_item: dict[str, list[tuple[float, tuple[int]]]] = {}
        for (source, item), value in claims.items():
            p = position.setdefault(source, len(position))
            by_item.setdefault(item, []).append((value, (p,)))
        truths, weights, iterations = self._solve(
            by_item.items, len(position)
        )
        names = list(position)
        return truths, {names[p]: w for p, w in weights.items()}, iterations

    def fuse(self, claims: ClaimSet) -> FusionResult:
        """The numeric items of a claim source, fused by CRH in one pass
        over ``claims.groups()`` per iteration — a :class:`ClaimSet` or
        its spilled groups alike, nothing kept per claim between passes.

        An item is numeric when ≥ 2/3 of its claims are measurements
        with a unit; its claims that parse as numbers (units converted
        to base units, bare numbers as they are) are fused, and its
        truth is rendered ``f"{value:.4g} {unit}"`` in its majority base
        unit. Other items are not chosen. Source weights are exposed
        through ``source_accuracy`` rescaled to ``(0, 1)`` by
        ``w / (1 + w)``.
        """
        claims.require_nonempty()
        sources = claims.sources()

        def items():
            for item, values, supporters, __ in claims.groups():
                measured = _measured(values, supporters)
                if measured is not None:
                    unit, entries = measured
                    yield (item, unit), entries

        truths, weights, iterations = self._solve(items, len(sources))
        return FusionResult(
            chosen={
                item: f"{value:.4g} {unit}"
                for (item, unit), value in truths.items()
            },
            source_accuracy={
                sources[p]: w / (1.0 + w) if w > 0 else 0.0
                for p, w in weights.items()
            },
            iterations=iterations,
        )
