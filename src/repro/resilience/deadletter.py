"""The dead-letter log: quarantined work, preserved not lost.

Under ``failure="skip"`` a unit of work that keeps failing after
retries and bisection is *quarantined*: pulled out of the run and
appended here with everything needed to triage it later — which chunk,
what kind of failure, how many attempts, the offending items, and when.
A run that quarantined work still completes and still produces a
well-formed :class:`~repro.obs.report.RunReport`; the log rides on the
run result (:class:`~repro.linkage.engine.EngineRun`,
:class:`~repro.linkage.resolver.LinkageResult` — a sharded run merges
its shards' logs in shard order) and round-trips through JSON so CI can
ship it as an artifact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["DeadLetterEntry", "DeadLetterLog"]


def _jsonable(value):
    """Best-effort JSON form: tuples become lists, opaque values repr."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _tupled(value):
    """Inverse of :func:`_jsonable` for the list/tuple case."""
    if isinstance(value, list):
        return tuple(_tupled(item) for item in value)
    return value


@dataclass(frozen=True)
class DeadLetterEntry:
    """One quarantined unit of work.

    ``scope`` names the execution layer (``"engine.chunk"``,
    ``"serve.ingest"``); ``chunk_id`` is the bisection path of the
    failing chunk (``"3"``, ``"3.1.0"``); ``kind`` is the failure class
    (``"crash"``, ``"timeout"``, ``"garbage"``, ``"deadline"``);
    ``items`` holds the quarantined work itself (id pairs for the
    engine, record ids for the service); ``quarantined_at`` is the
    clock reading when the entry was written.
    """

    scope: str
    chunk_id: str
    kind: str
    error_type: str
    error: str
    attempts: int
    items: tuple
    quarantined_at: float

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "chunk_id": self.chunk_id,
            "kind": self.kind,
            "error_type": self.error_type,
            "error": self.error,
            "attempts": self.attempts,
            "items": _jsonable(list(self.items)),
            "quarantined_at": self.quarantined_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeadLetterEntry":
        return cls(
            scope=data["scope"],
            chunk_id=data["chunk_id"],
            kind=data["kind"],
            error_type=data["error_type"],
            error=data["error"],
            attempts=data["attempts"],
            items=tuple(_tupled(item) for item in data["items"]),
            quarantined_at=data["quarantined_at"],
        )


class DeadLetterLog:
    """An append-only list of :class:`DeadLetterEntry`.

    Merges across workers and runs like the obs collection protocol
    (:meth:`merge`), and serializes losslessly for JSON-able items
    (:meth:`to_json` / :meth:`from_json`).

    When constructed with ``path``, the log is *durable*: every
    :meth:`add` appends the entry as one JSON line to that file via a
    single write followed by flush+fsync, so quarantined work survives
    the driver dying right after the quarantine decision. A process
    killed mid-write can at worst leave one torn trailing line, which
    :meth:`from_jsonl` skips. Entries passed to the constructor (or
    :meth:`restore`) are assumed already persisted and are not
    re-written.

    ``max_entries`` bounds the log: once it is exceeded, the *oldest*
    entries rotate out — in memory and, when durable, by atomically
    rewriting the sink — with the retained-tail guarantee that the
    newest ``max_entries`` entries survive. :attr:`dropped` counts
    everything rotated away, so a sustained skip-mode fault storm stays
    accounted for even though the log stops growing.
    """

    def __init__(
        self,
        entries: Iterable[DeadLetterEntry] = (),
        path: str | None = None,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and (
            not isinstance(max_entries, int) or max_entries < 1
        ):
            raise ValueError(
                f"max_entries must be an integer >= 1, got {max_entries!r}"
            )
        self._entries: list[DeadLetterEntry] = list(entries)
        self._path = path
        self._max_entries = max_entries
        #: Entries rotated out over this log's lifetime.
        self.dropped = 0
        #: How many rotation passes actually dropped entries.
        self.rotations = 0
        self._rotate()

    @property
    def path(self) -> str | None:
        """The durable JSONL sink, if any."""
        return self._path

    @staticmethod
    def _line(entry: DeadLetterEntry) -> str:
        return json.dumps(
            entry.to_dict(), sort_keys=True, ensure_ascii=False
        )

    def _append_durable(self, entry: DeadLetterEntry) -> None:
        # One write() call for the whole line keeps the append atomic
        # under O_APPEND; fsync makes it durable before we return.
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(self._line(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _rotate(self) -> None:
        """Drop the oldest entries past ``max_entries``: the suffix that
        survives is always the newest entries."""
        if self._max_entries is None:
            return
        keep_from = len(self._entries) - self._max_entries
        if keep_from <= 0:
            return
        self.dropped += keep_from
        self.rotations += 1
        del self._entries[:keep_from]
        if self._path is not None:
            self._rewrite_durable()

    def _rewrite_durable(self) -> None:
        """Atomically replace the sink with the retained tail."""
        tmp = f"{self._path}.rotate.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._path)

    def add(self, entry: DeadLetterEntry) -> None:
        self._entries.append(entry)
        if self._path is not None:
            self._append_durable(entry)
        self._rotate()

    def restore(self, entries: Iterable[DeadLetterEntry]) -> None:
        """Re-attach already-persisted entries (checkpoint replay)
        without re-appending them to the durable sink."""
        self._entries.extend(entries)
        self._rotate()

    def merge(self, other: "DeadLetterLog") -> None:
        """Append every entry of ``other`` (in order), durably when
        this log has a sink."""
        for entry in other._entries:
            self.add(entry)

    @property
    def entries(self) -> tuple[DeadLetterEntry, ...]:
        return tuple(self._entries)

    def quarantined_items(self) -> tuple:
        """Every quarantined item across all entries, in order."""
        return tuple(
            item for entry in self._entries for item in entry.items
        )

    def by_kind(self, kind: str) -> tuple[DeadLetterEntry, ...]:
        """Entries whose failure class is ``kind``."""
        return tuple(e for e in self._entries if e.kind == kind)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DeadLetterEntry]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeadLetterLog):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"DeadLetterLog({len(self._entries)} entries)"

    # --- serialization -----------------------------------------------

    def to_dicts(self) -> list[dict]:
        return [entry.to_dict() for entry in self._entries]

    @classmethod
    def from_dicts(cls, data: Iterable[dict]) -> "DeadLetterLog":
        return cls(DeadLetterEntry.from_dict(item) for item in data)

    def to_json(self) -> str:
        return json.dumps(self.to_dicts(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeadLetterLog":
        return cls.from_dicts(json.loads(text))

    def to_jsonl(self) -> str:
        """One compact JSON object per line (the durable sink format)."""
        return "".join(
            json.dumps(e.to_dict(), sort_keys=True, ensure_ascii=False)
            + "\n"
            for e in self._entries
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "DeadLetterLog":
        """Parse a JSONL sink, skipping a torn (crash-cut) last line."""
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(DeadLetterEntry.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                continue
        return cls(entries)
