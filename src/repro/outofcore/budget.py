"""Memory accounting for the out-of-core execution layer.

CPython will not report the resident size of a nested structure both
cheaply and deterministically, so the out-of-core layer *tracks* a
deterministic estimate instead: every spillable structure registers the
estimated cost of what it holds resident against one shared
:class:`MemoryBudget`, spills **before** an addition would push the
total over the limit, and releases its tracking as buffers drain. Peak
tracked bytes is therefore a portable, reproducible measure of resident
footprint — identical on every platform and run — which is what the
differential tests and the E21 bench gate assert against.

The estimators deliberately use ``len``-based formulas rather than
``sys.getsizeof`` so the numbers (and hence spill points, and hence
on-disk run layout) never vary across interpreter builds.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.obs import NULL_TRACER

__all__ = [
    "MemoryBudget",
    "columnar_block_nbytes",
    "pair_nbytes",
    "record_nbytes",
    "str_nbytes",
]

# Flat per-object overhead (headers, pointers) baked into every
# estimate; chosen once and never tuned, because only *consistency*
# matters for reproducible spill behaviour.
OBJECT_OVERHEAD = 56
_STR_OVERHEAD = 49

# Prepared records (normalized + tokenized attribute views) cost a
# small multiple of the raw record payload.
PREPARED_RECORD_FACTOR = 4


def str_nbytes(text: str) -> int:
    """Deterministic estimate of a string's resident size."""
    return _STR_OVERHEAD + len(text)


def pair_nbytes(left: str, right: str) -> int:
    """Estimated cost of one resident ``(left, right)`` string pair."""
    return OBJECT_OVERHEAD + str_nbytes(left) + str_nbytes(right)


def columnar_block_nbytes(block) -> int:
    """Estimated resident size of one :class:`ColumnarBlock`.

    Delegates to the block's own deterministic ``nbytes`` estimate
    (array buffers plus interned payload tables under the same overhead
    constants used here), so streaming columnar chunks charge the
    shared budget with the same reproducibility guarantees as record
    and pair estimates.
    """
    return block.nbytes


def record_nbytes(record) -> int:
    """Estimated resident size of one :class:`Record` payload."""
    total = (
        OBJECT_OVERHEAD
        + str_nbytes(record.record_id)
        + str_nbytes(record.source_id)
    )
    for name, value in record.attributes.items():
        total += OBJECT_OVERHEAD + str_nbytes(name) + str_nbytes(str(value))
    return total


class MemoryBudget:
    """A shared tracked-bytes ledger with a hard limit.

    All spillable structures of one run charge the same budget, so the
    bound applies to their *sum*: a block index flushing its partition
    frees room the pair deduper can then use. Structures must call
    :meth:`would_exceed` and spill before :meth:`add` — the peak is
    only meaningful if nothing is added past the limit.
    """

    def __init__(self, limit_bytes: int, tracer=None) -> None:
        limit_bytes = int(limit_bytes)
        if limit_bytes < 1:
            raise ConfigurationError(
                f"memory budget must be positive, got {limit_bytes}"
            )
        self._limit = limit_bytes
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._tracked = 0
        self._peak = 0
        self._spill_count = 0
        self._spill_bytes = 0

    @property
    def limit(self) -> int:
        """The configured hard limit in (estimated) bytes."""
        return self._limit

    @property
    def tracked(self) -> int:
        """Bytes currently registered as resident."""
        return self._tracked

    @property
    def peak(self) -> int:
        """Highest tracked-bytes watermark seen so far."""
        return self._peak

    @property
    def spill_count(self) -> int:
        """Number of spill-to-disk events charged to this budget."""
        return self._spill_count

    @property
    def spill_bytes(self) -> int:
        """Total on-disk bytes written by spill events."""
        return self._spill_bytes

    def add(self, nbytes: int) -> None:
        """Register ``nbytes`` as newly resident."""
        self._tracked += nbytes
        if self._tracked > self._peak:
            self._peak = self._tracked

    def remove(self, nbytes: int) -> None:
        """Release ``nbytes`` of previously registered residency."""
        self._tracked = max(0, self._tracked - nbytes)

    def would_exceed(self, nbytes: int) -> bool:
        """Would adding ``nbytes`` push the tracked total past the limit?"""
        return self._tracked + nbytes > self._limit

    def record_spill(self, nbytes_on_disk: int) -> None:
        """Account one spill event that wrote ``nbytes_on_disk``."""
        self._spill_count += 1
        self._spill_bytes += nbytes_on_disk
        self._tracer.counter("outofcore.spills").inc()
        self._tracer.counter("outofcore.spilled_bytes").inc(nbytes_on_disk)

    def publish(self) -> None:
        """Export the run's budget statistics as observability gauges."""
        self._tracer.gauge("outofcore.peak_tracked_bytes").set(self._peak)
        self._tracer.gauge("outofcore.spill_count").set(self._spill_count)
        self._tracer.gauge("outofcore.spill_bytes").set(self._spill_bytes)
        self._tracer.gauge("outofcore.budget_limit_bytes").set(self._limit)

    def stats(self) -> dict:
        """The budget counters as a plain dict (for reports/benches)."""
        return {
            "limit_bytes": self._limit,
            "peak_tracked_bytes": self._peak,
            "spill_count": self._spill_count,
            "spill_bytes": self._spill_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"MemoryBudget(limit={self._limit}, tracked={self._tracked}, "
            f"peak={self._peak}, spills={self._spill_count})"
        )
