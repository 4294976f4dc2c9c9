"""Record streams: records without materializing a corpus.

* :class:`RecordStream` — the protocol the out-of-core layer consumes:
  anything that can be iterated over for :class:`~repro.core.record.Record`
  objects, repeatedly (each ``__iter__`` starts a fresh pass).
* :class:`GeneratorRecordStream` — that protocol over a generator
  factory.
* :func:`record_from_row` — one row of a ``<stem>.records.jsonl`` file
  (:mod:`repro.io.jsonl`) as a record; the format is line-oriented, so
  :class:`repro.outofcore.IndexedRecordStore` (random access by record
  id) and the serve layer's entity store read it one line at a time.
"""

from __future__ import annotations

from typing import Callable, Iterator, Protocol, runtime_checkable

from repro.core.errors import DataModelError
from repro.core.record import Record

__all__ = [
    "GeneratorRecordStream",
    "RecordStream",
    "record_from_row",
]


def record_from_row(row: dict) -> Record:
    """Build a :class:`Record` from one parsed ``records.jsonl`` row."""
    return Record(
        record_id=row["record_id"],
        source_id=row["source_id"],
        attributes=row["attributes"],
        timestamp=row.get("timestamp"),
    )


@runtime_checkable
class RecordStream(Protocol):
    """A re-iterable source of records.

    Implementations must start a fresh pass on every ``__iter__`` call
    (the out-of-core pipeline reads the corpus more than once: one pass
    for blocking, one for claim extraction).
    """

    def __iter__(self) -> Iterator[Record]: ...


class GeneratorRecordStream:
    """A re-iterable :class:`RecordStream` over a generator factory.

    Wraps a zero-argument callable returning a fresh record iterator —
    the shape of the unbounded synthetic generators
    (:func:`repro.synth.stream_temporal_records`,
    ``DriftWorld.stream()``) — so generator-backed sources satisfy the
    re-iterable stream protocol: every ``__iter__`` calls the factory
    again and replays the stream from the start. That replayability is
    what lets a streaming consumer resume from a checkpoint by
    fast-forwarding a fresh pass, with no durable copy of the stream.

    The stream may be unbounded; consumers are expected to stop on
    their own terms (a record budget, a watermark, a wall clock).
    """

    def __init__(self, factory: Callable[[], Iterator[Record]]) -> None:
        if not callable(factory):
            raise DataModelError(
                "GeneratorRecordStream needs a zero-argument callable "
                "returning a record iterator"
            )
        self._factory = factory

    def __iter__(self) -> Iterator[Record]:
        return iter(self._factory())

    def __repr__(self) -> str:
        name = getattr(self._factory, "__name__", repr(self._factory))
        return f"GeneratorRecordStream({name})"

