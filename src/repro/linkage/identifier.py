"""Identifier-based linkage: redundancy as a friend.

Product pages publish product identifiers (SKU, MPN, ISBN …) because
marketplaces and shopping agents demand it. That turns web-scale
linkage on its head: instead of fuzzy-matching everything, *detect*
each source's identifier attribute and hard-join on normalized
identifier values. Detection needs no schema knowledge — identifier
columns are near-unique, alphanumeric-with-digits, and consistently
shaped within a source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.record import Record
from repro.linkage.clustering import connected_components
from repro.schema.attribute_stats import AttributeProfile

__all__ = [
    "IdentifierDetection",
    "detect_identifier_attributes",
    "link_by_identifier",
    "normalize_identifier",
]

_NON_ALNUM = re.compile(r"[^a-z0-9]+")
_HAS_DIGIT = re.compile(r"\d")


def normalize_identifier(value: str) -> str:
    """Canonical identifier form: lowercase, alphanumerics only."""
    return _NON_ALNUM.sub("", value.lower())


@dataclass(frozen=True)
class IdentifierDetection:
    """One source attribute judged to be an identifier, with its score."""

    source_id: str
    attribute: str
    score: float


def _value_shape(value: str) -> tuple[int, int, int]:
    """One value's identifier shape facts, each 0 or 1: it carries a
    digit; its normalized form has a plausible length (4–32); it is a
    single token."""
    return (
        1 if _HAS_DIGIT.search(value) else 0,
        1 if 4 <= len(normalize_identifier(value)) <= 32 else 0,
        1 if len(value.split()) == 1 else 0,
    )


def _identifier_score(
    profile: AttributeProfile, shapes: dict[str, tuple[int, int, int]]
) -> float:
    """Heuristic identifier-ness of an attribute profile in [0, 1].

    Identifiers are near-unique within a source, carry digits, are
    compact single tokens (no internal whitespace — which separates
    them from product *names*, whose model numbers also contain
    digits), and have plausible lengths (4–32 characters). The signals
    multiply through uniqueness so a non-unique attribute can never
    score high. Attributes seen on very few records are not trusted.
    ``shapes`` keeps each distinct value's :func:`_value_shape` across
    the profiles of one detection.
    """
    if profile.n_records < 3:
        return 0.0
    values = profile.values
    if not values:
        return 0.0
    with_digits = plausible = single_token = 0
    for value in values:
        shape = shapes.get(value)
        if shape is None:
            shape = shapes[value] = _value_shape(value)
        with_digits += shape[0]
        plausible += shape[1]
        single_token += shape[2]
    n_values = len(values)
    shape = (
        0.3 * (with_digits / n_values)
        + 0.2 * (plausible / n_values)
        + 0.5 * (single_token / n_values)
    )
    return profile.uniqueness * shape


def detect_identifier_attributes(
    profiles: Mapping[tuple[str, str], AttributeProfile],
    min_score: float = 0.8,
    per_source: int = 1,
) -> list[IdentifierDetection]:
    """Detect each source's most identifier-like attributes.

    Returns up to ``per_source`` attributes per source scoring at least
    ``min_score``, best first. Each distinct value is shaped once per
    call, however many profiles publish it.
    """
    shapes: dict[str, tuple[int, int, int]] = {}
    by_source: dict[str, list[IdentifierDetection]] = {}
    for (source_id, attribute), profile in profiles.items():
        # The shape is at most 1, so no score exceeds the uniqueness.
        if profile.uniqueness < min_score:
            continue
        score = _identifier_score(profile, shapes)
        if score >= min_score:
            by_source.setdefault(source_id, []).append(
                IdentifierDetection(source_id, attribute, score)
            )
    detections: list[IdentifierDetection] = []
    for source_id in sorted(by_source):
        ranked = sorted(
            by_source[source_id],
            key=lambda d: (-d.score, d.attribute),
        )
        detections.extend(ranked[:per_source])
    return detections


def link_by_identifier(
    records: Sequence[Record],
    detections: Sequence[IdentifierDetection],
) -> list[list[str]]:
    """Cluster records sharing a normalized identifier value.

    Only values of detected identifier attributes participate. Values
    shared within a single source are honored too (duplicate listings
    exist).
    """
    identifier_attributes = {
        (detection.source_id, detection.attribute)
        for detection in detections
    }
    by_value: dict[str, list[Record]] = {}
    for record in records:
        for attribute, value in record.attributes.items():
            if (record.source_id, attribute) not in identifier_attributes:
                continue
            normalized = normalize_identifier(value)
            if len(normalized) < 4:
                continue
            by_value.setdefault(normalized, []).append(record)
    pairs: list[tuple[str, str]] = []
    for value in sorted(by_value):
        group = by_value[value]
        if len(group) < 2:
            continue
        anchor = group[0].record_id
        for other in group[1:]:
            pairs.append((anchor, other.record_id))
    all_ids = [record.record_id for record in records]
    return connected_components(pairs, all_ids)
