"""Batch-scoring kernels over :class:`~repro.columnar.block.ColumnarBlock`.

The kernels score many candidate pairs per call — one candidate against
an entire block, or block × block — with numpy doing the cheap per-pair
work and the scalar similarity functions reserved for the *residual*
pairs that survive a vectorized early-exit mask:

1. **Cheap pass** — every vector-kind field (exact, token-set, cosine,
   parsed measurements) is scored for all pairs at once: CSR
   set-intersections and count dot-products via one ``lexsort`` per
   field, id-equality for exact fields, float arithmetic for
   measurements.
2. **Early-exit mask** — the per-pair weighted upper bound
   ``(evaluated + remaining_present_weight) / total_weight`` rejects
   every pair that provably cannot reach the threshold, under the same
   :data:`~repro.linkage.comparison.BOUND_MARGIN` the staged scalar
   scorer uses — so a mask rejection is exactly as sound as a scalar
   early exit.
3. **Residual pass** — survivors evaluate their remaining fields
   (Jaro-Winkler, Monge-Elkan, unparsed measurements) through the
   comparator's own payload similarities — and so through the same
   bounded token- and value-level memos as the scalar path — then
   rebuild the exact score in field-declaration order.

Because the cheap kernels perform the *same IEEE-754 operation
sequence* as the scalar functions (one correctly-rounded op per op)
and the residual pass ends in the same declaration-order rebuild as
:meth:`RecordComparator.score_bounded`, every score, match decision,
and comparison vector is **bit-identical** to the scalar engine.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.columnar.block import (
    KIND_MEASUREMENT,
    KIND_SCALAR,
    ColumnarBlock,
)
from repro.linkage.comparison import (
    BOUND_MARGIN,
    ComparisonVector,
    measurement_text_similarity,
    similarity_spec,
)

__all__ = [
    "match_block",
    "match_id_pairs",
    "match_positions",
    "score_block",
    "score_id_pairs",
    "score_positions",
]

IdPair = tuple[str, str]

#: Tolerance the prepared measurement similarity pins (see
#: ``_measurement_payload_similarity`` in repro.linkage.comparison).
_MEASUREMENT_TOLERANCE = 0.05


def _stats(n_vectorized: int, n_residual: int) -> dict[str, int]:
    """Chunk-stats dict in the engine's counter-folding shape.

    The prepared-cache keys are structurally required by the engine's
    chunk validators and always zero here — a block *is* the prepared
    cache, fully hit by construction.
    """
    return {
        "engine.prepared_cache_hits": 0,
        "engine.prepared_cache_misses": 0,
        "columnar.pairs_vectorized": n_vectorized,
        "columnar.pairs_residual": n_residual,
    }


# --- ragged CSR gather + set/count intersection kernels ---------------


def _ragged_gather(
    offsets: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flat_indices, pair_labels, row_lengths)`` for CSR rows.

    ``flat_indices`` indexes the CSR value array so that
    ``values[flat_indices]`` concatenates the selected rows;
    ``pair_labels`` tags each element with its position in ``rows``.
    """
    lens = offsets[rows + 1] - offsets[rows]
    labels = np.repeat(np.arange(rows.shape[0], dtype=np.int64), lens)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), labels, lens
    starts = np.repeat(offsets[rows], lens)
    ends = np.cumsum(lens)
    firsts = np.repeat(ends - lens, lens)
    indices = starts + (np.arange(total, dtype=np.int64) - firsts)
    return indices, labels, lens


def _pair_set_intersections(
    column, left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(intersection_size, left_size, right_size)`` per pair.

    Both sides' token ids are concatenated with per-pair labels and
    lexsorted; because each row holds *unique* ids, every adjacent
    duplicate within one pair is exactly one shared token.
    """
    n = left.shape[0]
    idx_l, lab_l, len_l = _ragged_gather(column.offsets, left)
    idx_r, lab_r, len_r = _ragged_gather(column.offsets, right)
    tokens = np.concatenate(
        [column.token_ids[idx_l], column.token_ids[idx_r]]
    )
    if tokens.size == 0:
        return np.zeros(n, dtype=np.int64), len_l, len_r
    labels = np.concatenate([lab_l, lab_r])
    order = np.lexsort((tokens, labels))
    sorted_tokens = tokens[order]
    sorted_labels = labels[order]
    duplicate = (sorted_tokens[1:] == sorted_tokens[:-1]) & (
        sorted_labels[1:] == sorted_labels[:-1]
    )
    intersections = np.bincount(sorted_labels[1:][duplicate], minlength=n)
    return intersections, len_l, len_r


def _pair_count_dots(
    column, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Per-pair dot product of two CSR count rows (exact integers)."""
    n = left.shape[0]
    idx_l, lab_l, __ = _ragged_gather(column.offsets, left)
    idx_r, lab_r, __ = _ragged_gather(column.offsets, right)
    tokens = np.concatenate(
        [column.token_ids[idx_l], column.token_ids[idx_r]]
    )
    if tokens.size == 0:
        return np.zeros(n, dtype=np.float64)
    labels = np.concatenate([lab_l, lab_r])
    counts = np.concatenate([column.counts[idx_l], column.counts[idx_r]])
    order = np.lexsort((tokens, labels))
    sorted_tokens = tokens[order]
    sorted_labels = labels[order]
    sorted_counts = counts[order]
    duplicate = (sorted_tokens[1:] == sorted_tokens[:-1]) & (
        sorted_labels[1:] == sorted_labels[:-1]
    )
    # Token ids are unique per row, so a duplicate pairs exactly one
    # left count with one right count; the products and their per-pair
    # sums are integers, exact in float64.
    products = (sorted_counts[:-1] * sorted_counts[1:])[duplicate]
    return np.bincount(
        sorted_labels[1:][duplicate],
        weights=products,
        minlength=n,
    )


# --- per-field vector kernels -----------------------------------------
#
# Each returns (similarities, evaluated, present): float64 similarities
# valid where `evaluated`; `present` marks pairs with both sides
# non-missing. For every kind except measurements, evaluated == present
# (a present pair is always fully decidable vectorized); measurement
# pairs where either side failed to parse stay unevaluated and fall to
# the residual pass, exactly like the scalar fallback branch.


def _exact_sims(column, left, right):
    ids_l = column.value_ids[left]
    ids_r = column.value_ids[right]
    present = (ids_l >= 0) & (ids_r >= 0)
    sims = ((ids_l == ids_r) & present).astype(np.float64)
    return sims, present, present


def _token_set_sims(column, left, right):
    present = ~column.missing[left] & ~column.missing[right]
    intersections, len_l, len_r = _pair_set_intersections(
        column, left, right
    )
    sims = np.zeros(left.shape[0], dtype=np.float64)
    if column.metric == "jaccard":
        union = len_l + len_r - intersections
        np.divide(intersections, union, out=sims, where=union > 0)
    elif column.metric == "dice":
        totals = len_l + len_r
        np.divide(2.0 * intersections, totals, out=sims, where=totals > 0)
    else:  # overlap coefficient
        smaller = np.minimum(len_l, len_r)
        np.divide(intersections, smaller, out=sims, where=smaller > 0)
    sims[(len_l == 0) & (len_r == 0)] = 1.0  # both-empty convention
    return sims, present, present


def _counts_sims(column, left, right):
    present = ~column.missing[left] & ~column.missing[right]
    dots = _pair_count_dots(column, left, right)
    denominators = column.norms[left] * column.norms[right]
    sims = np.zeros(left.shape[0], dtype=np.float64)
    np.divide(dots, denominators, out=sims, where=denominators > 0.0)
    empty_l = column.offsets[left + 1] == column.offsets[left]
    empty_r = column.offsets[right + 1] == column.offsets[right]
    sims[empty_l & empty_r] = 1.0
    return sims, present, present


def _measurement_sims(column, left, right):
    present = ~column.missing[left] & ~column.missing[right]
    parsed = present & column.parsed[left] & column.parsed[right]
    values_l = column.values[left]
    values_r = column.values[right]
    sims = np.zeros(left.shape[0], dtype=np.float64)
    same_unit = parsed & (column.unit_ids[left] == column.unit_ids[right])
    equal = same_unit & (values_l == values_r)
    sims[equal] = 1.0
    unequal = same_unit & ~(values_l == values_r)
    if unequal.any():
        a = values_l[unequal]
        b = values_r[unequal]
        # numeric_similarity, op for op: a != b guarantees scale > 0.
        scale = np.maximum(np.abs(a), np.abs(b))
        relative_gap = np.abs(a - b) / scale
        sims[unequal] = np.maximum(
            0.0, 1.0 - relative_gap / _MEASUREMENT_TOLERANCE
        )
    return sims, parsed, present


_VECTOR_KERNELS = {
    "exact": _exact_sims,
    "token_set": _token_set_sims,
    "counts": _counts_sims,
    "measurement": _measurement_sims,
}


# --- cheap pass -------------------------------------------------------


def _cheap_pass(block: ColumnarBlock, left: np.ndarray, right: np.ndarray):
    """Vector-score every cheap field for all pairs at once.

    Accumulates ``weighted``/``total`` with exactly one masked add per
    (pair, field) in field-declaration order — the identical float
    operation sequence to the scalar accumulation — so for pairs whose
    present fields were all evaluated here, ``weighted / total`` *is*
    the exact scalar score.
    """
    n = left.shape[0]
    fields = block.comparator.fields
    penalty = block.comparator.missing_penalty
    weighted = np.zeros(n, dtype=np.float64)
    total = np.zeros(n, dtype=np.float64)
    remaining = np.zeros(n, dtype=np.float64)
    sims_by_field: list[np.ndarray | None] = []
    evaluated_by_field: list[np.ndarray] = []
    present_by_field: list[np.ndarray] = []
    for column, field in zip(block.columns, fields):
        kernel = _VECTOR_KERNELS.get(column.kind)
        if kernel is not None:
            sims, evaluated, present = kernel(column, left, right)
        else:
            present = column.present(left) & column.present(right)
            evaluated = np.zeros(n, dtype=bool)
            sims = None
        weight = field.weight
        if penalty is not None:
            missing = ~present
            weighted[missing] += weight * penalty
            total[missing] += weight
        total[present] += weight
        if sims is not None:
            contributions = weight * sims
            weighted[evaluated] += contributions[evaluated]
        remaining[present & ~evaluated] += weight
        sims_by_field.append(sims)
        evaluated_by_field.append(evaluated)
        present_by_field.append(present)
    return (
        weighted,
        total,
        remaining,
        sims_by_field,
        evaluated_by_field,
        present_by_field,
    )


# --- residual (scalar-fallback) evaluation ----------------------------


def _field_evaluator(block: ColumnarBlock, field_index: int):
    """``evaluate(id_left, id_right) -> float`` for one residual field.

    Ids are interned payload ids (scalar fields) or text ids
    (unparsed measurements). The similarity is the one the scalar path
    calls, so expensive ones are served from the shared value-level
    memo exactly as there.
    """
    column = block.columns[field_index]
    if column.kind == KIND_MEASUREMENT:
        texts = column.texts

        def evaluate(id_left: int, id_right: int) -> float:
            # At least one side is unparsed here: the text fallback.
            return measurement_text_similarity(texts[id_left], texts[id_right])

    else:
        payloads = column.payloads
        similarity = similarity_spec(
            block.comparator.fields[field_index].similarity
        ).similarity

        def evaluate(id_left: int, id_right: int) -> float:
            return similarity(payloads[id_left], payloads[id_right])

    return evaluate


def _residual_ids(column) -> np.ndarray:
    """The id column residual evaluation keys on, per column kind."""
    if column.kind == KIND_MEASUREMENT:
        return column.text_ids
    return column.payload_ids


# --- main kernels -----------------------------------------------------


def _scores_where_defined(
    weighted: np.ndarray, total: np.ndarray
) -> np.ndarray:
    """``weighted / total`` with the scalar zero-total convention."""
    scores = np.zeros(weighted.shape[0], dtype=np.float64)
    np.divide(weighted, total, out=scores, where=total > 0)
    return scores


def match_positions(
    block: ColumnarBlock,
    left: np.ndarray,
    right: np.ndarray,
    threshold: float,
) -> tuple[list[tuple[str, str, float]], int, dict[str, int]]:
    """Threshold-match pairs of block rows; exact scores for matches.

    Returns ``(matches, n_early, stats)`` with matches in input-pair
    order — decisions and scores bit-identical to
    :meth:`RecordComparator.score_bounded` with ``exact_scores=True``
    per pair. ``n_early`` counts pairs decided before every present
    field was evaluated (mask rejections plus residual-loop exits).
    """
    n = left.shape[0]
    if n == 0:
        return [], 0, _stats(0, 0)
    (
        weighted,
        total,
        remaining,
        sims_by_field,
        evaluated_by_field,
        present_by_field,
    ) = _cheap_pass(block, left, right)

    upper = np.full(n, np.inf)
    np.divide(weighted + remaining, total, out=upper, where=total > 0)
    rejected = upper < threshold - BOUND_MARGIN
    needs_residual = ~rejected & (remaining > 0.0)
    n_early = int(rejected.sum())

    scores = _scores_where_defined(weighted, total)
    is_match = np.zeros(n, dtype=bool)
    fully_vectorized = ~rejected & ~needs_residual
    is_match[fully_vectorized] = scores[fully_vectorized] >= threshold

    residual_index = np.flatnonzero(needs_residual)
    if residual_index.size:
        residual_scores, n_residual_early = _finish_residual(
            block,
            left,
            right,
            residual_index,
            weighted,
            remaining,
            total,
            sims_by_field,
            evaluated_by_field,
            present_by_field,
            threshold,
        )
        n_early += n_residual_early
        for position, score in zip(residual_index.tolist(), residual_scores):
            if score is None:
                continue
            scores[position] = score
            if score >= threshold:
                is_match[position] = True

    record_ids = block.record_ids
    matches = [
        (record_ids[left[i]], record_ids[right[i]], float(scores[i]))
        for i in np.flatnonzero(is_match)
    ]
    n_residual = int(residual_index.size)
    return matches, n_early, _stats(n - n_residual, n_residual)


def _finish_residual(
    block: ColumnarBlock,
    left: np.ndarray,
    right: np.ndarray,
    residual_index: np.ndarray,
    weighted: np.ndarray,
    remaining: np.ndarray,
    total: np.ndarray,
    sims_by_field: list,
    evaluated_by_field: list,
    present_by_field: list,
    threshold: float | None,
) -> tuple[list, int]:
    """Evaluate leftover fields per pair, staged cheap-to-expensive.

    Returns one entry per residual pair: the exact declaration-order
    score, or ``None`` when the running upper bound proved a rejection
    (match mode only). The second element counts those early exits.
    """
    comparator = block.comparator
    fields = comparator.fields
    weights = [field.weight for field in fields]
    penalty = comparator.missing_penalty
    margin = BOUND_MARGIN
    n_fields = len(fields)

    residual_order = [
        index
        for index in comparator.staged_order
        if block.columns[index].kind in (KIND_SCALAR, KIND_MEASUREMENT)
    ]
    evaluators = {
        index: _field_evaluator(block, index) for index in residual_order
    }

    # Batch-extract the per-pair state into plain Python lists; the
    # loop below then runs on ints/floats/bools only.
    present_lists = [
        mask[residual_index].tolist() for mask in present_by_field
    ]
    evaluated_lists = [
        mask[residual_index].tolist() for mask in evaluated_by_field
    ]
    sims_lists = [
        sims[residual_index].tolist() if sims is not None else None
        for sims in sims_by_field
    ]
    ids_left = {
        index: _residual_ids(block.columns[index])[
            left[residual_index]
        ].tolist()
        for index in residual_order
    }
    ids_right = {
        index: _residual_ids(block.columns[index])[
            right[residual_index]
        ].tolist()
        for index in residual_order
    }
    weighted_list = weighted[residual_index].tolist()
    remaining_list = remaining[residual_index].tolist()
    total_list = total[residual_index].tolist()

    outcomes: list = []
    n_early = 0
    for j in range(residual_index.shape[0]):
        running = weighted_list[j]
        left_to_evaluate = remaining_list[j]
        total_weight = total_list[j]
        extra: dict[int, float] = {}
        rejected = False
        for index in residual_order:
            if not present_lists[index][j] or evaluated_lists[index][j]:
                continue
            similarity = evaluators[index](
                ids_left[index][j], ids_right[index][j]
            )
            extra[index] = similarity
            running += weights[index] * similarity
            left_to_evaluate -= weights[index]
            if threshold is None:
                continue
            bound = (running + left_to_evaluate) / total_weight
            if bound < threshold - margin:
                rejected = True
                break
        if rejected:
            outcomes.append(None)
            n_early += 1
            continue
        # Exact score: declaration-order rebuild, the same float
        # sequence as compare_prepared / the score_bounded rebuild.
        exact_weighted = 0.0
        exact_total = 0.0
        for index in range(n_fields):
            if not present_lists[index][j]:
                if penalty is not None:
                    exact_weighted += weights[index] * penalty
                    exact_total += weights[index]
                continue
            if evaluated_lists[index][j]:
                similarity = sims_lists[index][j]
            else:
                similarity = extra[index]
            exact_weighted += weights[index] * similarity
            exact_total += weights[index]
        outcomes.append(exact_weighted / exact_total if exact_total else 0.0)
    return outcomes, n_early


def score_positions(
    block: ColumnarBlock, left: np.ndarray, right: np.ndarray
) -> tuple[list[ComparisonVector], dict[str, int]]:
    """Full comparison vectors for pairs of block rows, in input order.

    Bit-identical to :meth:`RecordComparator.compare_prepared` per
    pair: vector-kind similarities come from the batch kernels, scalar
    fields from the residual evaluators, and the final scores
    from a declaration-order masked accumulation that replays the
    scalar float-op sequence exactly.
    """
    n = left.shape[0]
    if n == 0:
        return [], _stats(0, 0)
    (
        __,
        total,
        remaining,
        sims_by_field,
        evaluated_by_field,
        present_by_field,
    ) = _cheap_pass(block, left, right)

    fields = block.comparator.fields
    penalty = block.comparator.missing_penalty

    # Fill residual similarities into full per-field value arrays.
    values_by_field = [
        sims if sims is not None else np.zeros(n, dtype=np.float64)
        for sims in sims_by_field
    ]
    residual_index = np.flatnonzero(remaining > 0.0)
    if residual_index.size:
        residual_order = [
            index
            for index in block.comparator.staged_order
            if block.columns[index].kind in (KIND_SCALAR, KIND_MEASUREMENT)
        ]
        for index in residual_order:
            column = block.columns[index]
            evaluator = _field_evaluator(block, index)
            pending = residual_index[
                present_by_field[index][residual_index]
                & ~evaluated_by_field[index][residual_index]
            ]
            if not pending.size:
                continue
            ids = _residual_ids(column)
            ids_l = ids[left[pending]].tolist()
            ids_r = ids[right[pending]].tolist()
            computed = [
                evaluator(id_l, id_r) for id_l, id_r in zip(ids_l, ids_r)
            ]
            values_by_field[index][pending] = computed

    # Exact scores: one masked add per (pair, field) in declaration
    # order — the scalar accumulation, vectorized.
    weighted = np.zeros(n, dtype=np.float64)
    exact_total = np.zeros(n, dtype=np.float64)
    for index, field in enumerate(fields):
        present = present_by_field[index]
        weight = field.weight
        if penalty is not None:
            missing = ~present
            weighted[missing] += weight * penalty
            exact_total[missing] += weight
        contributions = weight * values_by_field[index]
        weighted[present] += contributions[present]
        exact_total[present] += weight
    scores = _scores_where_defined(weighted, exact_total).tolist()

    present_lists = [mask.tolist() for mask in present_by_field]
    value_lists = [values.tolist() for values in values_by_field]
    record_ids = block.record_ids
    left_list = left.tolist()
    right_list = right.tolist()
    vectors = [
        ComparisonVector(
            left_id=record_ids[left_list[i]],
            right_id=record_ids[right_list[i]],
            similarities=tuple(
                value_lists[index][i] if present_lists[index][i] else None
                for index in range(len(fields))
            ),
            score=scores[i],
        )
        for i in range(n)
    ]
    n_residual = int(residual_index.size)
    return vectors, _stats(n - n_residual, n_residual)


# --- id-level entry points --------------------------------------------


def _position_pairs(
    block: ColumnarBlock, pairs: Sequence[IdPair]
) -> tuple[np.ndarray, np.ndarray]:
    left = block.positions(pair[0] for pair in pairs)
    right = block.positions(pair[1] for pair in pairs)
    return left, right


def match_id_pairs(
    block: ColumnarBlock, pairs: Sequence[IdPair], threshold: float
) -> tuple[list[tuple[str, str, float]], int, dict[str, int]]:
    """:func:`match_positions` addressed by record-id pairs."""
    left, right = _position_pairs(block, pairs)
    return match_positions(block, left, right, threshold)


def score_id_pairs(
    block: ColumnarBlock, pairs: Sequence[IdPair]
) -> tuple[list[ComparisonVector], dict[str, int]]:
    """:func:`score_positions` addressed by record-id pairs."""
    left, right = _position_pairs(block, pairs)
    return score_positions(block, left, right)


def _cross_positions(
    block: ColumnarBlock,
    left_ids: Iterable[str] | None,
    right_ids: Iterable[str] | None,
) -> tuple[np.ndarray, np.ndarray]:
    every = np.arange(len(block), dtype=np.int64)
    rows_l = every if left_ids is None else block.positions(left_ids)
    rows_r = every if right_ids is None else block.positions(right_ids)
    return (
        np.repeat(rows_l, rows_r.shape[0]),
        np.tile(rows_r, rows_l.shape[0]),
    )


def match_block(
    block: ColumnarBlock,
    threshold: float,
    left_ids: Iterable[str] | None = None,
    right_ids: Iterable[str] | None = None,
) -> tuple[list[tuple[str, str, float]], int]:
    """Match the ``left_ids`` × ``right_ids`` cross product.

    Defaults compare the whole block against itself (including self
    pairs — pass explicit id lists to restrict). One candidate against
    the block is ``match_block(block, t, left_ids=[candidate_id])``.
    Returns ``(matches, n_early)`` in row-major pair order.
    """
    left, right = _cross_positions(block, left_ids, right_ids)
    matches, n_early, __ = match_positions(block, left, right, threshold)
    return matches, n_early


def score_block(
    block: ColumnarBlock,
    left_ids: Iterable[str] | None = None,
    right_ids: Iterable[str] | None = None,
) -> list[ComparisonVector]:
    """Comparison vectors for the ``left_ids`` × ``right_ids`` product.

    Defaults to block × block; one candidate against the block is
    ``score_block(block, left_ids=[candidate_id])``.
    """
    left, right = _cross_positions(block, left_ids, right_ids)
    vectors, __ = score_positions(block, left, right)
    return vectors
