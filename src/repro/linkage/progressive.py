"""Progressive (pay-as-you-go) entity resolution.

Batch ER spends its whole comparison budget before emitting anything;
*progressive* ER orders the work so that most matches are found early
— the linkage-side counterpart of pay-as-you-go integration. The
orderings implemented:

* **similarity-first** — rank candidate pairs by a cheap proxy (shared
  blocking-key evidence, as in meta-blocking weights) and compare in
  descending order;
* **block-size-first** — compare small blocks first (small blocks are
  precise: their pairs are likelier matches per comparison);
* **random** — the baseline any progressive strategy must beat.

:func:`progressive_resolution_curve` runs an ordering under a budget
sweep and reports recall-of-matches-found per comparisons spent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import random as _random

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.linkage.blocking.base import BlockCollection
from repro.linkage.classify.threshold import plain_threshold
from repro.linkage.comparison import PreparedRecord, RecordComparator
from repro.linkage.metablocking import build_blocking_graph
from repro.linkage.resolver import MatchClassifier

__all__ = ["ProgressivePoint", "order_candidates", "progressive_resolution_curve"]

OrderingName = Literal["similarity", "block-size", "random"]


def order_candidates(
    blocks: BlockCollection,
    ordering: OrderingName = "similarity",
    seed: int = 0,
) -> list[frozenset[str]]:
    """Order a block collection's candidate pairs for progressive ER."""
    if ordering == "similarity":
        graph = build_blocking_graph(blocks, weight="cbs")
        return [
            edge
            for edge, __ in sorted(
                graph.weights.items(),
                key=lambda kv: (-kv[1], tuple(sorted(kv[0]))),
            )
        ]
    if ordering == "block-size":
        seen: set[frozenset[str]] = set()
        ordered: list[frozenset[str]] = []
        for block in sorted(blocks, key=lambda b: (len(b), b.key)):
            ids = block.record_ids
            for i, left in enumerate(ids):
                for right in ids[i + 1 :]:
                    if left == right:
                        continue
                    pair = frozenset((left, right))
                    if pair not in seen:
                        seen.add(pair)
                        ordered.append(pair)
        return ordered
    if ordering == "random":
        pairs = list(map(frozenset, blocks.ordered_pairs()))
        rng = _random.Random(seed)
        rng.shuffle(pairs)
        return pairs
    raise ConfigurationError(f"unknown ordering {ordering!r}")


@dataclass(frozen=True)
class ProgressivePoint:
    """One budget checkpoint of a progressive run."""

    comparisons: int
    matches_found: int


def progressive_resolution_curve(
    records: Sequence[Record],
    blocks: BlockCollection,
    comparator: RecordComparator,
    classifier: MatchClassifier,
    ordering: OrderingName = "similarity",
    checkpoints: Sequence[int] = (),
    seed: int = 0,
) -> list[ProgressivePoint]:
    """Matches found vs comparisons spent under one candidate ordering.

    ``checkpoints`` are comparison budgets to report at (defaults to
    deciles of the candidate count). The final checkpoint always covers
    every candidate, so the curve's endpoint equals batch resolution.
    """
    by_id = {record.record_id: record for record in records}
    ordered = order_candidates(blocks, ordering, seed=seed)
    if not checkpoints:
        total = len(ordered)
        checkpoints = sorted(
            {max(1, round(total * decile / 10)) for decile in range(1, 11)}
        )
    checkpoints = sorted(set(checkpoints))
    # Prepared records + decision-only bounded scoring: a progressive
    # run revisits the same records across many pairs and only needs
    # the match decision, so this is the cheapest correct path.
    threshold = plain_threshold(classifier)
    prepared: dict[str, PreparedRecord] = {}

    def prepared_for(record_id: str) -> PreparedRecord | None:
        cached = prepared.get(record_id)
        if cached is None:
            record = by_id.get(record_id)
            if record is None:
                return None
            cached = comparator.prepare(record)
            prepared[record_id] = cached
        return cached

    curve: list[ProgressivePoint] = []
    matches = 0
    next_checkpoint = 0
    for index, pair in enumerate(ordered, start=1):
        left_id, right_id = sorted(pair)
        left, right = prepared_for(left_id), prepared_for(right_id)
        if left is not None and right is not None:
            if threshold is not None:
                is_match = comparator.decide(
                    left, right, threshold, exact_scores=False
                )[0]
            else:
                is_match = classifier.is_match(
                    comparator.compare_prepared(left, right)
                )
            if is_match:
                matches += 1
        while (
            next_checkpoint < len(checkpoints)
            and index == checkpoints[next_checkpoint]
        ):
            curve.append(ProgressivePoint(index, matches))
            next_checkpoint += 1
    if next_checkpoint < len(checkpoints):
        curve.append(ProgressivePoint(len(ordered), matches))
    return curve
