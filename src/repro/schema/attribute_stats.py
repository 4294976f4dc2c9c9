"""Attribute profiling: the statistics schema matchers consume.

For every ``(source, attribute)`` pair in a dataset we collect a
profile of its name and its values — token sets, value distributions,
and numeric summaries — so matchers can score attribute similarity
without re-scanning the corpus.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from repro.core.dataset import Dataset
from repro.text.normalize import (
    normalize_attribute_name,
    normalize_value,
    parse_measurement,
)
from repro.text.tokens import word_tokens

__all__ = ["AttributeProfile", "profile_attributes", "SourceAttribute"]

SourceAttribute = tuple[str, str]  # (source_id, attribute_name)


@dataclass
class AttributeProfile:
    """Profile of one source attribute.

    Attributes
    ----------
    source_id, attribute:
        Identity of the profiled attribute.
    normalized_name:
        The attribute name after normalization.
    name_tokens:
        Word tokens of the normalized name.
    values:
        Multiset of normalized values observed.
    value_tokens:
        Set of word tokens across all values.
    n_records:
        How many records of the source carry this attribute.
    numeric_values:
        Parsed numeric magnitudes (converted to each dimension's base
        unit) for values that look like measurements.
    raw_numeric_values:
        The same magnitudes *before* unit conversion — i.e. as
        published. Transformation discovery compares these.
    """

    source_id: str
    attribute: str
    normalized_name: str
    name_tokens: tuple[str, ...]
    values: Counter[str] = field(default_factory=Counter)
    value_tokens: set[str] = field(default_factory=set)
    n_records: int = 0
    numeric_values: list[float] = field(default_factory=list)
    raw_numeric_values: list[float] = field(default_factory=list)

    @property
    def key(self) -> SourceAttribute:
        """The (source, attribute) identity of this profile."""
        return (self.source_id, self.attribute)

    @property
    def distinct_values(self) -> int:
        """Number of distinct normalized values."""
        return len(self.values)

    @property
    def uniqueness(self) -> float:
        """Distinct values over records; ~1 for identifier-like attributes."""
        if self.n_records == 0:
            return 0.0
        return self.distinct_values / self.n_records

    @property
    def numeric_fraction(self) -> float:
        """Fraction of observed values parseable as measurements."""
        if self.n_records == 0:
            return 0.0
        return len(self.numeric_values) / self.n_records

    def numeric_mean_log(self) -> float | None:
        """Mean log10 magnitude of numeric values (scale fingerprint).

        Comparing log-scale means distinguishes ``weight in grams``
        from ``screen size in inches`` even when both are numeric.
        """
        magnitudes = [abs(v) for v in self.numeric_values if v != 0]
        if not magnitudes:
            return None
        return sum(math.log10(m) for m in magnitudes) / len(magnitudes)

    @cached_property
    def features(self) -> tuple[frozenset, set, float, float | None]:
        """``(distinct values, value_tokens, numeric_fraction,
        numeric_mean_log())``, derived once: instance matching reads
        them for every pair the profile is in. :meth:`observe` drops
        the cached tuple; mutating the fields directly does not."""
        return (
            frozenset(self.values),
            self.value_tokens,
            self.numeric_fraction,
            self.numeric_mean_log(),
        )

    def observe(self, raw_value: str) -> None:
        """Fold one raw value into the profile."""
        self.__dict__.pop("features", None)
        self.n_records += 1
        normalized = normalize_value(raw_value)
        self.values[normalized] += 1
        self.value_tokens.update(word_tokens(normalized))
        measurement = parse_measurement(normalized.replace(",", "."))
        if measurement is not None:
            base = measurement.in_base_unit()
            self.numeric_values.append(base.value)
            self.raw_numeric_values.append(measurement.value)


def profile_attributes(
    dataset: Dataset, sources: Iterable[str] | None = None
) -> dict[SourceAttribute, AttributeProfile]:
    """Build profiles for every (source, attribute) in ``dataset``.

    ``sources`` optionally restricts profiling to a subset of sources.
    """
    keep = set(sources) if sources is not None else None
    profiles: dict[SourceAttribute, AttributeProfile] = {}
    for source in dataset.sources:
        if keep is not None and source.source_id not in keep:
            continue
        for record in source:
            for attribute, value in record.attributes.items():
                key = (source.source_id, attribute)
                profile = profiles.get(key)
                if profile is None:
                    normalized = normalize_attribute_name(attribute)
                    profile = AttributeProfile(
                        source_id=source.source_id,
                        attribute=attribute,
                        normalized_name=normalized,
                        name_tokens=tuple(word_tokens(normalized)),
                    )
                    profiles[key] = profile
                profile.observe(value)
    return profiles
