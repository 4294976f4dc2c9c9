"""Event-time windowing with watermark-based window close.

The streaming workload is unbounded, so nothing downstream can wait
for "the end of the data" — progress is declared by a *watermark*: the
largest event time seen so far, minus an allowed-lateness ``lag``. A
tumbling window ``[k*size, (k+1)*size)`` closes the moment the
watermark passes its end; everything that arrived for it is released
*in canonical event-time order*, which is what makes window output
insensitive to intra-window arrival order (the Hypothesis property the
differential suite pins).

Records that arrive after their window closed are *late*: counted,
then dropped (``late="drop"``, the default) or raised on
(``late="error"``). Late drops are the price of bounded state; the
monitor log makes them visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal

from repro.core.errors import ConfigurationError
from repro.core.record import Record

__all__ = ["TumblingWindower", "Window", "WindowConfig"]


@dataclass(frozen=True)
class WindowConfig:
    """Knobs for event-time tumbling windows.

    ``size`` is the window width in event-time units; ``lag`` is the
    allowed out-of-orderness (the watermark trails the max event time
    by this much). ``late`` picks the late-record policy.
    """

    size: float = 1.0
    lag: float = 0.0
    late: Literal["drop", "error"] = "drop"

    def __post_init__(self) -> None:
        if not (self.size > 0.0 and math.isfinite(self.size)):
            raise ConfigurationError("window size must be finite and > 0")
        if not (self.lag >= 0.0 and math.isfinite(self.lag)):
            raise ConfigurationError("window lag must be finite and >= 0")
        if self.late not in ("drop", "error"):
            raise ConfigurationError("late must be 'drop' or 'error'")


@dataclass(frozen=True)
class Window:
    """One closed tumbling window and its canonical contents.

    ``records`` are sorted by ``(timestamp, record_id)`` — the
    arrival-order-free canonical order every downstream consumer sees.
    """

    index: int
    start: float
    end: float
    records: tuple[Record, ...]


class TumblingWindower:
    """Assigns timestamped records to tumbling windows; closes on watermark.

    Feed records one at a time; each :meth:`feed` returns the (possibly
    empty) list of windows the advancing watermark just closed, oldest
    first. Windows close *in index order* — a window with no records
    still closes (empty) so downstream window indexes never skip, which
    keeps per-window state (decay steps, monitor patience) aligned with
    event time rather than with data presence.
    """

    def __init__(self, config: WindowConfig | None = None) -> None:
        self._config = config or WindowConfig()
        self._pending: dict[int, list[Record]] = {}
        self._watermark = -math.inf
        self._next_to_close = 0
        self._late_records = 0

    @property
    def config(self) -> WindowConfig:
        return self._config

    @property
    def watermark(self) -> float:
        """Current watermark (event time up to which input is complete)."""
        return self._watermark

    @property
    def next_window(self) -> int:
        """Index of the oldest window not yet closed."""
        return self._next_to_close

    @property
    def late_records(self) -> int:
        """Records dropped for arriving after their window closed."""
        return self._late_records

    def _window_of(self, timestamp: float) -> int:
        return int(timestamp // self._config.size)

    def _close_through(self, bound: int) -> list[Window]:
        """Close every window with index < ``bound``, oldest first."""
        closed: list[Window] = []
        while self._next_to_close < bound:
            index = self._next_to_close
            size = self._config.size
            records = tuple(
                sorted(
                    self._pending.pop(index, ()),
                    key=lambda r: (r.timestamp, r.record_id),
                )
            )
            closed.append(
                Window(
                    index=index,
                    start=index * size,
                    end=(index + 1) * size,
                    records=records,
                )
            )
            self._next_to_close += 1
        return closed

    def feed(self, record: Record) -> list[Window]:
        """Buffer one record; return any windows its arrival closed."""
        if record.timestamp is None:
            raise ConfigurationError(
                f"record {record.record_id!r} has no timestamp; "
                "streaming windows need event time"
            )
        index = self._window_of(record.timestamp)
        if index < self._next_to_close:
            self._late_records += 1
            if self._config.late == "error":
                raise ConfigurationError(
                    f"late record {record.record_id!r}: window {index} "
                    f"closed (watermark {self._watermark})"
                )
            return []
        self._pending.setdefault(index, []).append(record)
        if record.timestamp > self._watermark:
            self._watermark = record.timestamp
        # A window closes once the watermark clears its end: no record
        # with an event time inside it can still arrive.
        bound = self._window_of(self._watermark - self._config.lag)
        # Skip-free closing, but never past a window that is still open
        # for its own end (bound is exclusive).
        return self._close_through(max(bound, 0))

    def flush(self) -> list[Window]:
        """Close every buffered window (end-of-stream in bounded tests).

        Only windows that hold records (and the empty ones before them)
        are closed; the windower stays usable afterwards.
        """
        if not self._pending:
            return []
        bound = max(self._pending) + 1
        return self._close_through(bound)

    def restore(
        self,
        next_window: int,
        watermark: float,
        pending: Iterator[Record] | tuple[Record, ...] = (),
        late_records: int = 0,
    ) -> None:
        """Reset to a checkpointed position (closed state + open buffers)."""
        self._pending.clear()
        self._next_to_close = next_window
        self._watermark = watermark
        self._late_records = late_records
        for record in pending:
            self._pending.setdefault(
                self._window_of(record.timestamp), []
            ).append(record)
