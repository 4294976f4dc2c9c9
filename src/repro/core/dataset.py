"""The :class:`Dataset` — the multi-source corpus the pipeline integrates.

A dataset bundles the sources under integration with (optionally) the
ground truth that evaluates them. It provides the cross-source record
index every pipeline stage needs: iterate all records, resolve a record
id, enumerate attribute usage, and slice by source.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from repro.core.errors import (
    DataModelError,
    UnknownRecordError,
    UnknownSourceError,
)
from repro.core.ground_truth import GroundTruth
from repro.core.record import Record
from repro.core.source import Source

__all__ = ["Dataset"]


class Dataset:
    """A corpus of sources, optionally with ground truth attached.

    Parameters
    ----------
    sources:
        The sources under integration. Source ids must be unique.
    ground_truth:
        Exact answers for evaluation, or ``None`` for unlabeled corpora.
    name:
        Human-readable corpus name used in reports.
    """

    def __init__(
        self,
        sources: Iterable[Source],
        ground_truth: GroundTruth | None = None,
        name: str = "dataset",
    ) -> None:
        self._name = name
        self._sources: dict[str, Source] = {}
        self._records: dict[str, Record] = {}
        for source in sources:
            if source.source_id in self._sources:
                raise DataModelError(
                    f"duplicate source id {source.source_id!r}"
                )
            self._sources[source.source_id] = source
            for record in source:
                if record.record_id in self._records:
                    raise DataModelError(
                        f"record id {record.record_id!r} appears in more "
                        "than one source"
                    )
                self._records[record.record_id] = record
        self._ground_truth = ground_truth

    @property
    def name(self) -> str:
        """Human-readable corpus name."""
        return self._name

    @property
    def sources(self) -> tuple[Source, ...]:
        """All sources, in a stable (insertion) order."""
        return tuple(self._sources.values())

    @property
    def source_ids(self) -> tuple[str, ...]:
        """Ids of all sources, in a stable order."""
        return tuple(self._sources)

    @property
    def ground_truth(self) -> GroundTruth | None:
        """Attached ground truth, or ``None``."""
        return self._ground_truth

    def source(self, source_id: str) -> Source:
        """Return the source with ``source_id``."""
        try:
            return self._sources[source_id]
        except KeyError:
            raise UnknownSourceError(source_id) from None

    def record(self, record_id: str) -> Record:
        """Return the record with ``record_id``."""
        try:
            return self._records[record_id]
        except KeyError:
            raise UnknownRecordError(record_id) from None

    def records(self) -> Iterator[Record]:
        """Iterate over every record in every source."""
        return iter(self._records.values())

    def record_ids(self) -> tuple[str, ...]:
        """Ids of all records, in a stable order."""
        return tuple(self._records)

    def attribute_usage(self) -> Counter[str]:
        """How many *sources* use each attribute name.

        This is the statistic behind the long-tail-of-attributes
        observation: most attribute names appear in very few sources.
        """
        usage: Counter[str] = Counter()
        for source in self._sources.values():
            for attribute in source.attribute_names():
                usage[attribute] += 1
        return usage

    def with_sources(self, source_ids: Iterable[str]) -> "Dataset":
        """A new dataset restricted to the given sources.

        Ground truth is projected onto the surviving records.
        """
        keep = list(dict.fromkeys(source_ids))
        sources = [self.source(source_id) for source_id in keep]
        truth = self._ground_truth
        if truth is not None:
            surviving = [r.record_id for s in sources for r in s]
            truth = truth.restricted_to(surviving)
        return Dataset(sources, truth, name=self._name)

    def merged_with(self, other: "Dataset") -> "Dataset":
        """Union of two datasets with disjoint sources (velocity updates),
        named ``"<name>+<other name>"``."""
        overlap = set(self._sources) & set(other._sources)
        if overlap:
            raise DataModelError(
                f"cannot merge datasets sharing sources: {sorted(overlap)[:3]}"
            )
        truth: GroundTruth | None = None
        if self._ground_truth is not None and other._ground_truth is not None:
            mapping = self._ground_truth.record_to_entity
            mapping.update(other._ground_truth.record_to_entity)
            values = self._ground_truth.true_values
            values.update(other._ground_truth.true_values)
            attrs = self._ground_truth.attribute_to_mediated
            attrs.update(other._ground_truth.attribute_to_mediated)
            truth = GroundTruth(mapping, values, attrs)
        return Dataset(
            list(self.sources) + list(other.sources),
            truth,
            name=f"{self._name}+{other._name}",
        )

    @property
    def n_records(self) -> int:
        """Total number of records across all sources."""
        return len(self._records)

    def __len__(self) -> int:
        return len(self._sources)

    def __contains__(self, source_id: str) -> bool:
        return source_id in self._sources

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self._name!r}, sources={len(self._sources)}, "
            f"records={len(self._records)})"
        )
