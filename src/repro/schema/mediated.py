"""Deterministic mediated schema construction and record translation.

A :class:`MediatedSchema` is a set of *mediated attributes*, each
backed by a cluster of source attributes. It answers the two questions
the rest of the pipeline asks: "what mediated attribute does this
source attribute render?" (for record translation) and "which source
attributes render this mediated attribute?" (for query answering).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.dataset import Dataset
from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.schema.attribute_stats import (
    AttributeProfile,
    SourceAttribute,
    profile_attributes,
)
from repro.schema.clustering import cluster_attributes_robust
from repro.schema.correspondence import (
    report_counts,
    score_all_pairs,
    select_correspondences,
)
from repro.schema.matchers import HybridMatcher
from repro.text.normalize import normalize_attribute_name

__all__ = ["MediatedAttribute", "MediatedSchema", "build_mediated_schema"]


@dataclass(frozen=True)
class MediatedAttribute:
    """One mediated attribute: a canonical name over a source cluster."""

    name: str
    members: tuple[SourceAttribute, ...]

    def __len__(self) -> int:
        return len(self.members)


class MediatedSchema:
    """The mediated schema: mediated attributes plus lookup maps."""

    def __init__(self, attributes: Sequence[MediatedAttribute]) -> None:
        self._attributes = tuple(attributes)
        self._of_source_attribute: dict[SourceAttribute, MediatedAttribute] = {}
        self._by_name = {mediated.name: mediated for mediated in attributes}
        for mediated in self._attributes:
            for member in mediated.members:
                if member in self._of_source_attribute:
                    raise ConfigurationError(
                        f"source attribute {member!r} assigned to two "
                        "mediated attributes"
                    )
                self._of_source_attribute[member] = mediated

    @property
    def attributes(self) -> tuple[MediatedAttribute, ...]:
        """All mediated attributes."""
        return self._attributes

    def mediated_for(
        self, source_id: str, attribute: str
    ) -> MediatedAttribute | None:
        """The mediated attribute a source attribute renders, if any."""
        return self._of_source_attribute.get((source_id, attribute))

    def by_name(self, name: str) -> MediatedAttribute | None:
        """Look up a mediated attribute by its canonical name."""
        return self._by_name.get(name)

    def find(self, keyword: str) -> list[MediatedAttribute]:
        """Mediated attributes whose canonical name or members mention
        ``keyword`` (normalized substring match) — the entry point for
        keyword queries."""
        needle = normalize_attribute_name(keyword)
        found: list[MediatedAttribute] = []
        for mediated in self._attributes:
            if needle in mediated.name:
                found.append(mediated)
                continue
            member_names = {
                normalize_attribute_name(attribute)
                for __, attribute in mediated.members
            }
            if any(needle in name for name in member_names):
                found.append(mediated)
        return found

    def translate(self, record: Record) -> dict[str, str]:
        """Project a record onto the mediated schema.

        Attributes without a mediated assignment are kept under their
        normalized source name (pay-as-you-go: nothing is dropped).
        When several source attributes map to one mediated attribute,
        the first (in attribute order) wins.
        """
        of_source_attribute = self._of_source_attribute
        translated: dict[str, str] = {}
        for attribute, value in record.attributes.items():
            mediated = of_source_attribute.get((record.source_id, attribute))
            key = (
                mediated.name
                if mediated is not None
                else normalize_attribute_name(attribute)
            )
            translated.setdefault(key, value)
        return translated

    def clusters(self) -> list[list[SourceAttribute]]:
        """The underlying attribute clusters (for evaluation)."""
        return [sorted(m.members) for m in self._attributes]

    def __len__(self) -> int:
        return len(self._attributes)

    def __repr__(self) -> str:
        return f"MediatedSchema(attributes={len(self._attributes)})"


def canonical_name(members: Iterable[SourceAttribute]) -> str:
    """Most frequent normalized member name (ties break alphabetically)."""
    counts = Counter(
        normalize_attribute_name(attribute) for __, attribute in members
    )
    best = max(counts.values())
    # Prefer the most common; among equals prefer shorter, then earlier.
    candidates = [name for name, count in counts.items() if count == best]
    return sorted(candidates, key=lambda name: (len(name), name))[0]


def build_mediated_schema(
    dataset: Dataset,
    threshold: float = 0.6,
    profiles: Mapping[SourceAttribute, AttributeProfile] | None = None,
    tracer=None,
) -> MediatedSchema:
    """End-to-end deterministic mediated-schema construction.

    Profiles attributes (unless given the dataset's ``profiles``), scores
    the cross-source pairs that reach ``threshold`` with a
    :class:`HybridMatcher`, selects correspondences among them one to
    one, clusters those (with cohesion-based splitting), and names each cluster
    by its most common member name — with clusters sharing a name told
    apart by a numeric suffix. ``tracer`` receives the ``schema.*`` counts.
    """
    if profiles is None:
        profiles = profile_attributes(dataset)
    scored = score_all_pairs(
        profiles, HybridMatcher(), threshold, tracer=tracer
    )
    selected = select_correspondences(scored, threshold=threshold)
    report_counts(tracer, {"schema.correspondences_selected": len(selected)})
    clusters = cluster_attributes_robust(
        selected, all_attributes=profiles.keys()
    )
    used_names: Counter[str] = Counter()
    mediated: list[MediatedAttribute] = []
    for cluster in clusters:
        name = canonical_name(cluster)
        used_names[name] += 1
        if used_names[name] > 1:
            name = f"{name} ({used_names[name]})"
        mediated.append(MediatedAttribute(name, tuple(sorted(cluster))))
    return MediatedSchema(mediated)
