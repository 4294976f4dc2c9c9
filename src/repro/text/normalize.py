"""Value and attribute-name normalization.

Sources publish the same information in wildly different surface forms:
``"Screen Size"`` vs ``"screen-size"``, ``"5.5 in"`` vs ``"13.97 cm"``,
``"black"`` vs ``"Black "``. The functions here perform the cheap,
lossless part of reconciliation — canonical casing, punctuation and
whitespace cleanup, numeric and unit parsing — leaving genuinely
semantic reconciliation to the schema-alignment stage.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "NORMALIZE_CACHE_MAXSIZE",
    "canonical_value",
    "normalize_attribute_name",
    "normalize_value",
    "normalize_whitespace",
    "parse_measurement",
    "Measurement",
    "to_base_unit",
    "UNIT_CONVERSIONS",
]

#: Hard bound on the value-normalization memo cache. Long-running
#: corpora stream unboundedly many distinct values; an unbounded cache
#: would grow with them, so the memo is explicitly capped (LRU). It is
#: process-wide and so in no run's report. Schema profiling and the
#: pipeline's claims normalize each distinct value once per call by
#: themselves; the repeat callers it still serves are the blockers' keys
#: and the comparator's value preparation.
NORMALIZE_CACHE_MAXSIZE = 16384

_NON_ALNUM = re.compile(r"[^a-z0-9]+")
_WHITESPACE = re.compile(r"\s+")
_NUMBER = re.compile(r"[-+]?\d+(?:[.,]\d+)?")
_MEASUREMENT = re.compile(
    r"^\s*(?P<number>[-+]?\d+(?:[.,]\d+)?)\s*(?P<unit>[a-zA-Z\"']*)\s*$"
)

#: Conversion factors from a unit's symbol to its dimension's base unit.
#: Lengths normalize to centimeters, weights to grams, frequency to hertz,
#: storage to gigabytes.
UNIT_CONVERSIONS: dict[str, tuple[str, float]] = {
    # length → cm
    "mm": ("cm", 0.1),
    "cm": ("cm", 1.0),
    "m": ("cm", 100.0),
    "in": ("cm", 2.54),
    "inch": ("cm", 2.54),
    "inches": ("cm", 2.54),
    '"': ("cm", 2.54),
    "ft": ("cm", 30.48),
    # weight → g
    "mg": ("g", 0.001),
    "g": ("g", 1.0),
    "kg": ("g", 1000.0),
    "oz": ("g", 28.3495),
    "lb": ("g", 453.592),
    "lbs": ("g", 453.592),
    # frequency → hz
    "hz": ("hz", 1.0),
    "khz": ("hz", 1e3),
    "mhz": ("hz", 1e6),
    "ghz": ("hz", 1e9),
    # storage → gb
    "mb": ("gb", 1.0 / 1024.0),
    "gb": ("gb", 1.0),
    "tb": ("gb", 1024.0),
}


def normalize_whitespace(text: str) -> str:
    """Collapse runs of whitespace to single spaces and strip the ends."""
    return _WHITESPACE.sub(" ", text).strip()


def normalize_attribute_name(name: str) -> str:
    """Canonicalize an attribute name for comparison.

    Lowercases, strips accents, and collapses every non-alphanumeric run
    to a single space: ``"Screen-Size (in.)"`` → ``"screen size in"``.
    This mirrors the normalization used in web-extraction studies when
    counting distinct attribute names.
    """
    decomposed = unicodedata.normalize("NFKD", name)
    ascii_only = decomposed.encode("ascii", "ignore").decode("ascii")
    return _NON_ALNUM.sub(" ", ascii_only.lower()).strip()


@lru_cache(maxsize=NORMALIZE_CACHE_MAXSIZE)
def normalize_value(value: str) -> str:
    """Canonicalize an attribute value for *string* comparison.

    Lowercases, strips accents, and collapses whitespace. Numbers and
    units are preserved textually; use :func:`parse_measurement` when a
    numeric interpretation is wanted.

    Results are memoized (the comparison hot path re-normalizes the
    same record values once per candidate pair otherwise); the cache is
    a safety net for callers that bypass the prepared-record fast path
    of :mod:`repro.linkage.engine`.
    """
    decomposed = unicodedata.normalize("NFKD", value)
    ascii_only = decomposed.encode("ascii", "ignore").decode("ascii")
    return normalize_whitespace(ascii_only.lower())


@dataclass(frozen=True)
class Measurement:
    """A parsed numeric value with an optional unit symbol."""

    value: float
    unit: str | None

    def in_base_unit(self) -> "Measurement":
        """Convert to the dimension's base unit if the unit is known."""
        if self.unit is None:
            return self
        converted = to_base_unit(self.value, self.unit)
        if converted is None:
            return self
        base_unit, base_value = converted
        return Measurement(base_value, base_unit)


def parse_measurement(value: str) -> Measurement | None:
    """Parse ``"5.5 in"`` / ``"2,5kg"`` / ``"42"`` into a measurement.

    Returns ``None`` when the value is not a single number with an
    optional trailing unit. Decimal commas are accepted.
    """
    match = _MEASUREMENT.match(value)
    if match is None:
        return None
    number = float(match.group("number").replace(",", "."))
    unit = match.group("unit").lower() or None
    return Measurement(number, unit)


def to_base_unit(value: float, unit: str) -> tuple[str, float] | None:
    """Convert ``value unit`` to its dimension's base unit.

    Returns ``(base_unit, converted_value)`` or ``None`` for unknown
    units.
    """
    entry = UNIT_CONVERSIONS.get(unit.lower())
    if entry is None:
        return None
    base_unit, factor = entry
    return base_unit, value * factor


def extract_numbers(value: str) -> list[float]:
    """All numbers appearing in ``value``, in order of appearance."""
    return [float(m.group().replace(",", ".")) for m in _NUMBER.finditer(value)]


def canonical_value(value: str) -> str:
    """Fully canonical value form for cross-source equality.

    Normalizes case/whitespace/accents, repairs decimal commas, and
    converts single measurements to their dimension's base unit with 4
    significant digits — so ``"5.5 in"``, ``"13,97 CM"``, and
    ``"13.97 cm"`` all canonicalize identically. Non-measurement
    values fall back to :func:`normalize_value`.
    """
    normalized = normalize_value(value)
    measurement = parse_measurement(normalized.replace(",", "."))
    if measurement is None:
        return normalized
    base = measurement.in_base_unit()
    magnitude = f"{base.value:.4g}"
    return f"{magnitude} {base.unit}" if base.unit else magnitude
