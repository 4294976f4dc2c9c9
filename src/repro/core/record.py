"""The :class:`Record` — the atomic unit of integration.

A record is one source's description of one real-world entity: an
immutable mapping from attribute names to string values, tagged with the
source that published it and a record id unique within the dataset.

Records are deliberately *schema-free*: different sources describe the
same kind of entity with different attribute names, granularities, and
formats, and reconciling that heterogeneity is the job of the schema
alignment stage, not of the data model.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping

from repro.core.errors import DataModelError

__all__ = ["Record"]


class Record:
    """One source's description of one entity.

    Parameters
    ----------
    record_id:
        Identifier unique across the dataset (conventionally
        ``"<source_id>/<local id>"``).
    source_id:
        Identifier of the publishing source.
    attributes:
        Mapping of attribute name to raw string value. Values are kept as
        published — normalization belongs to later pipeline stages.
    timestamp:
        Optional observation time (arbitrary monotone float, e.g. epoch
        days). Used by temporal linkage and the velocity substrate.

    Records compare equal by content (id, source, attributes, timestamp)
    and are hashable, so they can be used in sets and as dict keys.
    """

    __slots__ = ("_record_id", "_source_id", "_attributes", "_timestamp", "_hash")

    def __init__(
        self,
        record_id: str,
        source_id: str,
        attributes: Mapping[str, str],
        timestamp: float | None = None,
    ) -> None:
        if not record_id:
            raise DataModelError("record_id must be a non-empty string")
        if not source_id:
            raise DataModelError("source_id must be a non-empty string")
        for name, value in attributes.items():
            if not isinstance(name, str) or not name:
                raise DataModelError(
                    f"attribute names must be non-empty strings, got {name!r}"
                )
            if not isinstance(value, str):
                raise DataModelError(
                    f"attribute values must be strings, got {value!r} for {name!r}"
                )
        self._record_id = record_id
        self._source_id = source_id
        self._attributes = MappingProxyType(dict(attributes))
        self._timestamp = timestamp
        self._hash: int | None = None

    @property
    def record_id(self) -> str:
        """Dataset-wide unique identifier of this record."""
        return self._record_id

    @property
    def source_id(self) -> str:
        """Identifier of the source that published this record."""
        return self._source_id

    @property
    def attributes(self) -> Mapping[str, str]:
        """Read-only view of the attribute → value mapping."""
        return self._attributes

    @property
    def timestamp(self) -> float | None:
        """Observation time, or ``None`` for untimestamped records."""
        return self._timestamp

    def get(self, attribute: str, default: str | None = None) -> str | None:
        """Return the value of ``attribute``, or ``default`` if absent."""
        return self._attributes.get(attribute, default)

    def __getitem__(self, attribute: str) -> str:
        return self._attributes[attribute]

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._attributes

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def with_attributes(self, attributes: Mapping[str, str]) -> "Record":
        """Return a copy of this record with ``attributes`` replacing its own."""
        return Record(
            self._record_id, self._source_id, attributes, self._timestamp
        )

    def text(self) -> str:
        """All attribute values joined by spaces (for token blocking)."""
        return " ".join(self._attributes.values())

    def __reduce__(self):
        # MappingProxyType (and slots) defeat default pickling; rebuild
        # through __init__ so records can cross process boundaries for
        # the multiprocess comparison engine.
        return (
            Record,
            (
                self._record_id,
                self._source_id,
                dict(self._attributes),
                self._timestamp,
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (
            self._record_id == other._record_id
            and self._source_id == other._source_id
            and self._timestamp == other._timestamp
            and dict(self._attributes) == dict(other._attributes)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self._record_id,
                    self._source_id,
                    self._timestamp,
                    frozenset(self._attributes.items()),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        keys = ", ".join(sorted(self._attributes))
        return (
            f"Record(id={self._record_id!r}, source={self._source_id!r}, "
            f"attrs=[{keys}])"
        )
