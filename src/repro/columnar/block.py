"""The columnar prepared-record block format.

A :class:`ColumnarBlock` holds everything a
:class:`~repro.linkage.comparison.RecordComparator` needs to score any
pair of its records, laid out as per-field contiguous arrays instead of
per-record Python objects:

* **exact fields** — one interned value-id per record (id equality ⇔
  string equality, so the kernel never touches strings);
* **token-set fields** (Jaccard/Dice/overlap) — interned token ids in
  CSR layout (``offsets`` + flat ``token_ids``, sorted per record);
* **token-count fields** (cosine) — CSR token ids with aligned counts
  plus one precomputed vector norm per record;
* **measurement fields** — a float value column and interned unit-id
  column for rows that parse, with the normalized text retained for the
  Levenshtein fallback on rows that do not;
* **scalar fields** (Jaro-Winkler, Monge-Elkan, product names, unknown
  callables) — an interned *payload table*: one prepared payload per
  distinct value, shared by every record carrying that value, scored
  by the kernels through the comparator's own payload similarities.

Blocks are built **from the same prepared payloads the scalar fast
path uses** (:meth:`RecordComparator.prepare`), so the two
representations cannot disagree about what a field's comparison input
is; the batch kernels in :mod:`repro.columnar.kernels` then reproduce
the scalar arithmetic bit for bit.

A block is immutable once built, picklable (see
:mod:`repro.columnar.serialize`), and carries a deterministic
``nbytes`` estimate compatible with
:class:`repro.outofcore.MemoryBudget` accounting.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.record import Record
from repro.linkage.comparison import RecordComparator
from repro.text.similarity import (
    cosine_similarity,
    dice_similarity,
    exact_similarity,
    jaccard_similarity,
    measurement_similarity,
    overlap_coefficient,
)

__all__ = ["ColumnarBlock", "build_block"]

# Deterministic per-object size estimates, aligned with the
# len()-based philosophy of repro.outofcore.budget (imported lazily
# there to avoid a package import cycle; the constants match).
_OBJECT_OVERHEAD = 56
_STR_OVERHEAD = 49


def _str_nbytes(text: str) -> int:
    return _STR_OVERHEAD + len(text)


def _payload_nbytes(payload: Any) -> int:
    """Deterministic size estimate of one interned scalar payload."""
    if isinstance(payload, str):
        return _str_nbytes(payload)
    if isinstance(payload, (tuple, frozenset, list, set)):
        return _OBJECT_OVERHEAD + sum(
            _payload_nbytes(item) for item in payload
        )
    return _OBJECT_OVERHEAD


class _Interner:
    """Assigns dense int ids to hashable values in first-seen order."""

    def __init__(self) -> None:
        self._ids: dict[Any, int] = {}
        self.values: list[Any] = []

    def intern(self, value: Any) -> int:
        existing = self._ids.get(value)
        if existing is not None:
            return existing
        assigned = len(self.values)
        self._ids[value] = assigned
        self.values.append(value)
        return assigned

    def __len__(self) -> int:
        return len(self.values)


# --- column kinds -----------------------------------------------------

KIND_EXACT = "exact"
KIND_TOKEN_SET = "token_set"
KIND_COUNTS = "counts"
KIND_MEASUREMENT = "measurement"
KIND_SCALAR = "scalar"

_TOKEN_SET_METRICS = {
    jaccard_similarity: "jaccard",
    dice_similarity: "dice",
    overlap_coefficient: "overlap",
}


def column_kind(similarity) -> str:
    """The columnar storage kind for a field's similarity function."""
    if similarity is exact_similarity:
        return KIND_EXACT
    if similarity in _TOKEN_SET_METRICS:
        return KIND_TOKEN_SET
    if similarity is cosine_similarity:
        return KIND_COUNTS
    if similarity is measurement_similarity:
        return KIND_MEASUREMENT
    return KIND_SCALAR


class _ExactColumn:
    """Interned value ids; similarity is pure id equality."""

    kind = KIND_EXACT

    def __init__(self, value_ids: np.ndarray, n_values: int) -> None:
        self.value_ids = value_ids  # int32, -1 = missing
        self.n_values = n_values

    def present(self, rows: np.ndarray) -> np.ndarray:
        return self.value_ids[rows] >= 0

    @property
    def nbytes(self) -> int:
        return int(self.value_ids.nbytes)


class _TokenSetColumn:
    """CSR token-id sets (sorted, unique per row) for set metrics."""

    kind = KIND_TOKEN_SET

    def __init__(
        self,
        metric: str,
        offsets: np.ndarray,
        token_ids: np.ndarray,
        missing: np.ndarray,
        n_tokens: int,
    ) -> None:
        self.metric = metric  # "jaccard" | "dice" | "overlap"
        self.offsets = offsets  # int64[n + 1]
        self.token_ids = token_ids  # int32[nnz]
        self.missing = missing  # bool[n]
        self.n_tokens = n_tokens

    def present(self, rows: np.ndarray) -> np.ndarray:
        return ~self.missing[rows]

    @property
    def nbytes(self) -> int:
        return int(
            self.offsets.nbytes + self.token_ids.nbytes + self.missing.nbytes
        )


class _CountsColumn:
    """CSR token ids with counts plus one precomputed norm per row."""

    kind = KIND_COUNTS

    def __init__(
        self,
        offsets: np.ndarray,
        token_ids: np.ndarray,
        counts: np.ndarray,
        norms: np.ndarray,
        missing: np.ndarray,
    ) -> None:
        self.offsets = offsets
        self.token_ids = token_ids
        self.counts = counts  # int64[nnz]
        self.norms = norms  # float64[n]: math.sqrt(sum of squares)
        self.missing = missing

    def present(self, rows: np.ndarray) -> np.ndarray:
        return ~self.missing[rows]

    @property
    def nbytes(self) -> int:
        return int(
            self.offsets.nbytes
            + self.token_ids.nbytes
            + self.counts.nbytes
            + self.norms.nbytes
            + self.missing.nbytes
        )


class _MeasurementColumn:
    """Parsed (value, unit-id) floats; normalized text for the fallback."""

    kind = KIND_MEASUREMENT

    def __init__(
        self,
        missing: np.ndarray,
        parsed: np.ndarray,
        values: np.ndarray,
        unit_ids: np.ndarray,
        text_ids: np.ndarray,
        texts: list[str],
    ) -> None:
        self.missing = missing  # bool[n]
        self.parsed = parsed  # bool[n]: parses to a base-unit measurement
        self.values = values  # float64[n], base-unit magnitude (0 unparsed)
        self.unit_ids = unit_ids  # int32[n], interned base unit (-1 unparsed)
        self.text_ids = text_ids  # int32[n] into texts (-1 missing)
        self.texts = texts  # distinct normalized value strings

    def present(self, rows: np.ndarray) -> np.ndarray:
        return ~self.missing[rows]

    @property
    def nbytes(self) -> int:
        return int(
            self.missing.nbytes
            + self.parsed.nbytes
            + self.values.nbytes
            + self.unit_ids.nbytes
            + self.text_ids.nbytes
        ) + sum(_str_nbytes(text) for text in self.texts)


class _ScalarColumn:
    """Interned prepared payloads for scalar-path similarities.

    One payload per *distinct* value (records sharing a brand string
    share one payload).
    """

    kind = KIND_SCALAR

    def __init__(self, payload_ids: np.ndarray, payloads: list[Any]) -> None:
        self.payload_ids = payload_ids  # int32, -1 = missing
        self.payloads = payloads

    def present(self, rows: np.ndarray) -> np.ndarray:
        return self.payload_ids[rows] >= 0

    @property
    def nbytes(self) -> int:
        return int(self.payload_ids.nbytes) + sum(
            _payload_nbytes(payload) for payload in self.payloads
        )


class ColumnarBlock:
    """Records of one comparator, stored as per-field columns.

    Build with :func:`build_block`. Score with the batch kernels in
    :mod:`repro.columnar.kernels` — every kernel output is bit-identical
    to the scalar :meth:`RecordComparator.compare_prepared` /
    :meth:`~RecordComparator.score_bounded` path over the same records.
    """

    def __init__(
        self,
        comparator: RecordComparator,
        record_ids: tuple[str, ...],
        columns: tuple[Any, ...],
    ) -> None:
        self.comparator = comparator
        self.record_ids = record_ids
        self.columns = columns
        self.index: dict[str, int] = {
            record_id: position
            for position, record_id in enumerate(record_ids)
        }

    def __len__(self) -> int:
        return len(self.record_ids)

    @property
    def n_records(self) -> int:
        """Number of records in the block."""
        return len(self.record_ids)

    def positions(self, record_ids: Iterable[str]) -> np.ndarray:
        """Row positions of ``record_ids`` (KeyError on unknown ids)."""
        index = self.index
        return np.fromiter(
            (index[record_id] for record_id in record_ids),
            dtype=np.int64,
        )

    @property
    def nbytes(self) -> int:
        """Deterministic estimated resident size of the block.

        Array bytes are exact; interned string/payload tables use the
        same len()-based estimates as :mod:`repro.outofcore.budget`, so
        the number is identical on every platform and run.
        """
        total = _OBJECT_OVERHEAD + sum(
            _str_nbytes(record_id) for record_id in self.record_ids
        )
        for column in self.columns:
            total += column.nbytes
        return total

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("index")  # rebuilt from record_ids
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.index = {
            record_id: position
            for position, record_id in enumerate(self.record_ids)
        }


# --- builder ----------------------------------------------------------


def _csr(rows: list[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, row in enumerate(rows):
        offsets[i + 1] = offsets[i] + len(row)
    flat = np.empty(int(offsets[-1]), dtype=np.int32)
    position = 0
    for row in rows:
        flat[position : position + len(row)] = row
        position += len(row)
    return offsets, flat


def build_block(
    comparator: RecordComparator,
    records: Iterable[Record] | Mapping[str, Record],
) -> ColumnarBlock:
    """Columnarize ``records`` for ``comparator``.

    Each record is prepared exactly once through the comparator's own
    :meth:`~RecordComparator.prepare` (the scalar fast path's input),
    then the per-field payloads are packed into contiguous columns.
    Mapping inputs are consumed in mapping-value order.
    """
    if isinstance(records, Mapping):
        records = records.values()
    fields = comparator.fields
    kinds = [column_kind(field.similarity) for field in fields]

    record_ids: list[str] = []
    # Per-field accumulators, keyed by kind.
    accumulators: list[dict[str, Any]] = []
    for kind, field in zip(kinds, fields):
        state: dict[str, Any] = {"interner": _Interner()}
        if kind == KIND_EXACT:
            state["ids"] = []
        elif kind == KIND_TOKEN_SET:
            state["rows"] = []
            state["missing"] = []
        elif kind == KIND_COUNTS:
            state["rows"] = []
            state["counts"] = []
            state["norms"] = []
            state["missing"] = []
        elif kind == KIND_MEASUREMENT:
            state["missing"] = []
            state["parsed"] = []
            state["values"] = []
            state["unit_ids"] = []
            state["unit_interner"] = _Interner()
            state["text_ids"] = []
        else:
            state["ids"] = []
        accumulators.append(state)

    for record in records:
        prepared = comparator.prepare(record)
        record_ids.append(prepared.record_id)
        for kind, state, payload in zip(kinds, accumulators, prepared.payloads):
            interner: _Interner = state["interner"]
            if kind == KIND_EXACT:
                state["ids"].append(
                    -1 if payload is None else interner.intern(payload)
                )
            elif kind == KIND_TOKEN_SET:
                if payload is None:
                    state["rows"].append(())
                    state["missing"].append(True)
                else:
                    state["rows"].append(
                        sorted(interner.intern(token) for token in payload)
                    )
                    state["missing"].append(False)
            elif kind == KIND_COUNTS:
                if payload is None:
                    state["rows"].append(())
                    state["counts"].append(())
                    state["norms"].append(0.0)
                    state["missing"].append(True)
                else:
                    entries = sorted(
                        (interner.intern(token), count)
                        for token, count in payload.items()
                    )
                    state["rows"].append([tid for tid, __ in entries])
                    state["counts"].append([count for __, count in entries])
                    # Identical arithmetic to the scalar cosine's norm:
                    # math.sqrt over the exact integer sum of squares.
                    state["norms"].append(
                        math.sqrt(
                            sum(count * count for count in payload.values())
                        )
                    )
                    state["missing"].append(False)
            elif kind == KIND_MEASUREMENT:
                if payload is None:
                    state["missing"].append(True)
                    state["parsed"].append(False)
                    state["values"].append(0.0)
                    state["unit_ids"].append(-1)
                    state["text_ids"].append(-1)
                else:
                    base, text = payload
                    state["missing"].append(False)
                    state["text_ids"].append(interner.intern(text))
                    if base is None:
                        state["parsed"].append(False)
                        state["values"].append(0.0)
                        state["unit_ids"].append(-1)
                    else:
                        state["parsed"].append(True)
                        state["values"].append(base.value)
                        state["unit_ids"].append(
                            state["unit_interner"].intern(base.unit)
                        )
            else:  # KIND_SCALAR — payloads are hashable (str or tuples)
                state["ids"].append(
                    -1 if payload is None else interner.intern(payload)
                )

    columns: list[Any] = []
    for field, kind, state in zip(fields, kinds, accumulators):
        interner = state["interner"]
        if kind == KIND_EXACT:
            columns.append(
                _ExactColumn(
                    np.asarray(state["ids"], dtype=np.int32), len(interner)
                )
            )
        elif kind == KIND_TOKEN_SET:
            offsets, flat = _csr(state["rows"])
            columns.append(
                _TokenSetColumn(
                    _TOKEN_SET_METRICS[field.similarity],
                    offsets,
                    flat,
                    np.asarray(state["missing"], dtype=bool),
                    len(interner),
                )
            )
        elif kind == KIND_COUNTS:
            offsets, flat = _csr(state["rows"])
            counts = np.empty(int(offsets[-1]), dtype=np.int64)
            position = 0
            for row_counts in state["counts"]:
                counts[position : position + len(row_counts)] = row_counts
                position += len(row_counts)
            columns.append(
                _CountsColumn(
                    offsets,
                    flat,
                    counts,
                    np.asarray(state["norms"], dtype=np.float64),
                    np.asarray(state["missing"], dtype=bool),
                )
            )
        elif kind == KIND_MEASUREMENT:
            columns.append(
                _MeasurementColumn(
                    np.asarray(state["missing"], dtype=bool),
                    np.asarray(state["parsed"], dtype=bool),
                    np.asarray(state["values"], dtype=np.float64),
                    np.asarray(state["unit_ids"], dtype=np.int32),
                    np.asarray(state["text_ids"], dtype=np.int32),
                    list(interner.values),
                )
            )
        else:
            columns.append(
                _ScalarColumn(
                    np.asarray(state["ids"], dtype=np.int32),
                    list(interner.values),
                )
            )

    return ColumnarBlock(comparator, tuple(record_ids), tuple(columns))

