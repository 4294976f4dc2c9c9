"""Value-transformation discovery between corresponding attributes.

Knowing that two attributes *correspond* is half the job — aligning
their *values* needs the transformation between representations
("weight in pounds" ↔ "weight in grams", "GHz" ↔ "MHz"). For numeric
attributes the transformation is (almost always) a scale factor, and
scale factors are discoverable from data alone: the ratio of the two
columns' central values. This module estimates that factor robustly
and snaps it to the known unit-conversion table when one fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import EmptyInputError
from repro.schema.attribute_stats import AttributeProfile
from repro.text.normalize import UNIT_CONVERSIONS

__all__ = ["ScaleTransform", "discover_scale_transform", "known_unit_ratios"]


@dataclass(frozen=True)
class ScaleTransform:
    """A multiplicative transformation ``left ≈ factor · right``.

    ``unit_pair`` names the known conversion the factor snapped to
    (e.g. ``("lb", "g")``), or ``None`` for an unrecognized factor.
    ``confidence`` is 1 minus the relative snap error (0 when no known
    conversion is nearby).
    """

    factor: float
    unit_pair: tuple[str, str] | None
    confidence: float

    def apply(self, right_value: float) -> float:
        """Map a value of the right attribute into the left's scale."""
        return self.factor * right_value


def known_unit_ratios() -> dict[float, tuple[str, str]]:
    """All pairwise ratios between same-dimension known units.

    Returns ratio → (from_unit, to_unit), meaning one ``from_unit``
    equals ``ratio`` of the base, relative to ``to_unit``: a column in
    ``from_unit`` is ``ratio`` × the same column in ``to_unit``.

    Several conversions can share a ratio (kg→g and GHz→MHz are both
    1000×); the lexicographically first pair wins, so the mapping is
    deterministic but the named pair is one *representative* of the
    ratio, not a unique identification.
    """
    by_dimension: dict[str, list[tuple[str, float]]] = {}
    for unit, (dimension, factor) in sorted(UNIT_CONVERSIONS.items()):
        by_dimension.setdefault(dimension, []).append((unit, factor))
    ratios: dict[float, tuple[str, str]] = {}
    for dimension in sorted(by_dimension):
        units = by_dimension[dimension]
        for unit_a, factor_a in units:
            for unit_b, factor_b in units:
                if unit_a == unit_b:
                    continue
                ratios.setdefault(factor_a / factor_b, (unit_a, unit_b))
    return ratios


def _trimmed_mean(values: list[float], trim: float = 0.1) -> float:
    """Mean of the middle ``1 - 2·trim`` of the values."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut : len(ordered) - cut] or ordered
    return math.fsum(kept) / len(kept)


def discover_scale_transform(
    left: AttributeProfile,
    right: AttributeProfile,
    snap_tolerance: float = 0.1,
) -> ScaleTransform:
    """Estimate the scale factor between two numeric attribute profiles.

    Uses the ratio of the two columns' trimmed means (robust to a few
    outliers, and independent of which entities each source covers as
    long as both draw from the same underlying distribution). The
    factor snaps to the nearest known unit conversion within
    ``snap_tolerance`` relative error.

    Raises :class:`EmptyInputError` when either profile has no numeric
    values.
    """
    if not left.raw_numeric_values or not right.raw_numeric_values:
        raise EmptyInputError(
            "both profiles need numeric values to discover a transform"
        )
    # Raw (as-published) magnitudes, so the discovered factor reflects
    # the representations the sources actually use.
    left_center = _trimmed_mean(left.raw_numeric_values)
    right_center = _trimmed_mean(right.raw_numeric_values)
    if right_center == 0:
        raise EmptyInputError("right profile's central value is zero")
    factor = left_center / right_center
    best_pair: tuple[str, str] | None = None
    best_error = snap_tolerance
    for ratio, pair in known_unit_ratios().items():
        if ratio == 0:
            continue
        error = abs(factor - ratio) / abs(ratio)
        if error < best_error:
            best_error = error
            best_pair = pair
    if abs(factor - 1.0) <= snap_tolerance and (
        best_pair is None or abs(factor - 1.0) <= best_error
    ):
        return ScaleTransform(1.0, None, 1.0 - abs(factor - 1.0))
    if best_pair is not None:
        return ScaleTransform(factor, best_pair, 1.0 - best_error)
    return ScaleTransform(factor, None, 0.0)
