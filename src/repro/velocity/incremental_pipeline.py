"""Incremental pipeline maintenance across corpus snapshots.

:class:`SnapshotMaintainer` keeps linkage clusters alive across
snapshots: new pages are folded in through the incremental linker,
vanished pages are tombstoned, and changed pages are updated *in
place* — a re-crawled page keeps its identity, so content drift costs
re-indexing but zero pairwise comparisons. The per-snapshot comparison
count is the cost the velocity experiment compares against full
recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.dataset import Dataset
from repro.linkage.blocking.base import Blocker, KeyFunction
from repro.linkage.comparison import RecordComparator
from repro.linkage.incremental import IncrementalLinker
from repro.linkage.resolver import MatchClassifier, resolve
from repro.velocity.snapshots import diff_datasets

__all__ = ["SnapshotCost", "SnapshotMaintainer"]


@dataclass(frozen=True)
class SnapshotCost:
    """Per-snapshot maintenance costs (incremental path)."""

    snapshot: int
    new_records: int
    removed_records: int
    changed_records: int
    comparisons: int


class SnapshotMaintainer:
    """Maintains linkage clusters as snapshots arrive.

    Identity assumption: a record id (``source/entity`` page) denotes
    the same real-world page across snapshots, so changed content
    never re-opens its linkage — only genuinely *new* pages are
    compared. Pages that die and later reappear resume their old
    identity.
    """

    def __init__(
        self,
        key_functions: Sequence[KeyFunction],
        comparator: RecordComparator,
        classifier: MatchClassifier,
    ) -> None:
        self._linker = IncrementalLinker(
            key_functions, comparator, classifier
        )
        self._comparator = comparator
        self._classifier = classifier
        self._previous: Dataset | None = None
        self._ever_added: set[str] = set()
        self._snapshot_index = 0

    def process_snapshot(self, dataset: Dataset) -> SnapshotCost:
        """Fold one snapshot into the maintained clustering."""
        if self._previous is None:
            new_ids = list(dataset.record_ids())
            removed: list[str] = []
            changed: list[str] = []
        else:
            diff = diff_datasets(self._previous, dataset)
            new_ids = list(diff.added_records)
            removed = list(diff.removed_records)
            changed = list(diff.changed_records)
        for record_id in removed:
            self._linker.remove(record_id)
        for record_id in changed:
            self._linker.update(dataset.record(record_id))
        fresh: list = []
        for record_id in new_ids:
            record = dataset.record(record_id)
            if record_id in self._ever_added:
                # A resurrected page resumes its identity: re-index it
                # without re-linking.
                self._linker.resurrect(record)
                continue
            self._ever_added.add(record_id)
            fresh.append(record)
        stats = self._linker.add_batch(fresh)
        cost = SnapshotCost(
            snapshot=self._snapshot_index,
            new_records=len(new_ids),
            removed_records=len(removed),
            changed_records=len(changed),
            comparisons=stats.comparisons,
        )
        self._previous = dataset
        self._snapshot_index += 1
        return cost

    def process_stream(
        self,
        snapshots: Iterable[Dataset],
    ) -> Iterator[SnapshotCost]:
        """Fold snapshots as they arrive; yield each snapshot's cost.

        Pull-driven, so an *unbounded* snapshot iterator (e.g.
        :func:`repro.synth.stream_world_snapshots` rendered to
        datasets) works: stop iterating to stop consuming.
        """
        for dataset in snapshots:
            yield self.process_snapshot(dataset)

    def clusters(self) -> list[list[str]]:
        """Clusters over currently indexed (alive) records."""
        return self._linker.clusters()

    @staticmethod
    def full_recompute(
        dataset: Dataset,
        blocker: Blocker,
        comparator: RecordComparator,
        classifier: MatchClassifier,
    ) -> tuple[list[list[str]], int]:
        """The from-scratch baseline: clusters plus comparison count."""
        records = list(dataset.records())
        result = resolve(records, blocker, comparator, classifier)
        return result.clusters, result.n_candidates
