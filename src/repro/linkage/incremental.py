"""Incremental record linkage: maintain clusters as records arrive.

Web sources churn constantly; re-running batch linkage on every update
is the cost the velocity dimension makes unaffordable. The
:class:`IncrementalLinker` keeps a blocking-key index and a union-find
over everything seen so far; a new batch only compares its records
against the (few) existing records sharing a blocking key — work
proportional to the *batch*, not the corpus.

The quality argument (Gruenheid, Dong & Srivastava, VLDB'14) is that
greedy incremental merging matches batch connected-components quality
exactly when the classifier is deterministic, because union-find is
order-insensitive — which also makes the equivalence testable.

Comparisons run over prepared records (one-time normalize/tokenize per
record, cached across batches; a record indexed without a comparison —
``resurrect``, ``update`` — is prepared the first time it is compared)
and, under a plain
:class:`~repro.linkage.classify.threshold.ThresholdClassifier`, through
the staged early-exit decision
:meth:`~repro.linkage.comparison.RecordComparator.decide` — the one the
batch engine makes, from the same per-mask plan, with decisions
provably identical to the full ``compare`` path (asserted in tests),
only cheaper.

An arriving record is decided once per *linked component*, not once per
candidate: after it matches one member of a component, the component's
other candidates are skipped — they are already connected, so a second
union could not move a cluster. The partition, ``match_pairs``' first
match into each entity and everything folded from them equal what
comparing every candidate gives; rejections are never skipped. A skipped
candidate costs no more than reading its root: one key's candidates are
a slice of its bucket, all their roots come from one
:meth:`~repro.core.unionfind.UnionFind.roots` call, and the record's
fields are resolved in one pass over its attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.core.unionfind import UnionFind
from repro.linkage.blocking.base import Blocker, KeyFunction, usable_keys
from repro.linkage.classify.threshold import plain_threshold
from repro.linkage.comparison import PreparedRecord, RecordComparator
from repro.linkage.resolver import MatchClassifier, resolve

__all__ = ["BatchStats", "IncrementalLinker", "ProbeResult"]


@dataclass(frozen=True)
class BatchStats:
    """Cost counters for one incremental batch.

    ``comparisons`` counts the decisions made; ``candidates -
    comparisons`` candidates were skipped as already linked to a match.
    ``match_pairs`` lists the ``(new_record_id, existing_record_id)``
    pairs the classifier accepted, in decision order, at most one per
    component matched — the serving layer folds these into its entity
    projection without re-deriving clusters. ``matches / comparisons``
    is therefore one vote per (record, entity) link, whatever the size
    of the entity.
    """

    batch_size: int
    candidates: int
    comparisons: int
    matches: int
    match_pairs: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a read-only :meth:`IncrementalLinker.probe`.

    ``matches`` holds ``(record_id, score)`` for every indexed record
    the classifier would merge with the probe record, sorted best-first
    (descending score, ties by id). Nothing is indexed or merged.
    """

    matches: tuple[tuple[str, float], ...] = ()
    candidates: int = 0
    comparisons: int = 0

    @property
    def best(self) -> str | None:
        """The best-matching record id, if any match was found."""
        return self.matches[0][0] if self.matches else None


class IncrementalLinker:
    """Maintains linkage clusters under record insertions.

    The write path (:meth:`add_batch`) decides an arriving record once
    per entity already linked; the read path (:meth:`probe`) reports
    every matching record. Both see the same candidates.

    Parameters
    ----------
    key_functions:
        Blocking-key functions maintained as inverted indexes. A new
        record is compared against existing records sharing at least
        one key.
    comparator, classifier:
        The pairwise machinery, identical to batch linkage.
    max_candidates_per_record:
        Safety valve against stop-key blowups: a record's candidate set
        is truncated (deterministically) beyond this size, before any
        candidate is skipped as already linked.
    """

    def __init__(
        self,
        key_functions: Sequence[KeyFunction],
        comparator: RecordComparator,
        classifier: MatchClassifier,
        max_candidates_per_record: int = 1000,
    ) -> None:
        if not key_functions:
            raise ConfigurationError("at least one key function required")
        self._key_functions = tuple(key_functions)
        self._comparator = comparator
        self._classifier = classifier
        self._max_candidates = max_candidates_per_record
        self._records: dict[str, Record] = {}
        self._prepared: dict[str, PreparedRecord] = {}
        # key -> the ids indexed under it, each once, in arrival order
        self._index: dict[str, list[str]] = {}
        self._uf: UnionFind[str] = UnionFind()
        self._threshold = plain_threshold(classifier)

    def _keys_of(self, record: Record) -> list[str]:
        """The record's distinct blocking keys, in key-function order,
        each where it was first seen: a key emitted twice indexes the
        record once. A set has no order of its own (iterating it follows
        ``PYTHONHASHSEED``, and with it the candidate order and what a
        binding cap keeps), so a set-returning function's keys are
        sorted."""
        keys: list[str] = []
        for function in self._key_functions:
            raw = function(record)
            found = usable_keys(raw)
            keys.extend(
                sorted(found) if isinstance(raw, (set, frozenset)) else found
            )
        return list(dict.fromkeys(keys)) if len(keys) > 1 else keys

    @property
    def n_records(self) -> int:
        """Records currently indexed (removals excluded)."""
        return len(self._records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._records

    def record(self, record_id: str) -> Record | None:
        """The indexed record with this id, or ``None``."""
        return self._records.get(record_id)

    def clusters(self) -> list[list[str]]:
        """Current clustering of all records still indexed.

        Removed records drop out of the reported clusters (their past
        union-find merges persist internally, which is harmless: a
        record's identity never changes, only its availability).
        """
        alive = set(self._records)
        groups = []
        for group in self._uf.groups():
            survivors = [member for member in group if member in alive]
            if survivors:
                groups.append(survivors)
        groups.sort(key=lambda group: group[0])
        return groups

    def _unindex(self, record: Record, keys=None) -> None:
        """Drop a record's index entries, deleting emptied buckets.

        Leaving empty (or stale-heavy) buckets behind would grow the
        blocking index without bound under churn — tombstoned keys must
        go away entirely, not linger as empty lists.
        """
        record_id = record.record_id
        for key in keys if keys is not None else self._keys_of(record):
            bucket = self._index.get(key)
            if bucket is None:
                continue
            remaining = [other for other in bucket if other != record_id]
            if remaining:
                self._index[key] = remaining
            else:
                del self._index[key]

    def remove(self, record_id: str) -> None:
        """Tombstone a record: no future candidate will compare to it."""
        record = self._records.pop(record_id, None)
        if record is None:
            return
        self._prepared.pop(record_id, None)
        self._unindex(record)

    def resurrect(self, record: Record) -> None:
        """Re-index a previously removed record under its old identity.

        The record's past union-find merges still stand (same page,
        same entity); only its index entries are restored, with the new
        content. No comparisons are spent, and the record is prepared
        only when a later record is first compared with it.
        """
        if record.record_id in self._records:
            raise ConfigurationError(
                f"record {record.record_id!r} is already indexed"
            )
        self._records[record.record_id] = record
        self._uf.add(record.record_id)
        for key in self._keys_of(record):
            self._index.setdefault(key, []).append(record.record_id)

    def update(self, record: Record) -> None:
        """Replace a record's content in place, keeping its linkage.

        Used for pages whose content changed but whose identity did not
        (the overwhelmingly common case in re-crawls); the blocking
        index follows the new content, no comparisons are spent, and
        the new content is prepared when it is next compared.
        """
        old = self._records.get(record.record_id)
        if old is None:
            raise ConfigurationError(
                f"cannot update unknown record {record.record_id!r}"
            )
        old_keys = set(self._keys_of(old))
        new_keys = set(self._keys_of(record))
        self._unindex(old, old_keys - new_keys)
        for key in new_keys - old_keys:
            self._index.setdefault(key, []).append(record.record_id)
        self._records[record.record_id] = record
        self._prepared.pop(record.record_id, None)

    def merge(self, record_id: str, other_id: str) -> None:
        """Record an externally decided match (no comparisons spent).

        Used to preload a known clustering (e.g. a batch re-resolution
        restored from a durable store) or to apply a human-confirmed
        match. Both records must have been indexed at some point.
        """
        for rid in (record_id, other_id):
            if rid not in self._uf:
                raise ConfigurationError(
                    f"cannot merge unknown record {rid!r}"
                )
        self._uf.union(record_id, other_id)

    def candidates(self, record: Record) -> tuple[str, ...]:
        """Indexed records sharing a blocking key with ``record``.

        Read-only (nothing is indexed), deterministic (key order, then
        bucket insertion order), and truncated at
        ``max_candidates_per_record`` exactly like :meth:`add_batch`.
        """
        return tuple(self._candidates_under(self._keys_of(record)))

    def _candidates_under(self, keys: Sequence[str]) -> list[str]:
        """The capped candidate list of a record with these keys. A
        bucket holds each id once, so one key's candidates are a slice
        of its bucket; several keys dedup across their buckets."""
        index = self._index
        if len(keys) == 1:
            return index.get(keys[0], [])[: self._max_candidates]
        candidate_ids: dict[str, None] = {}
        for key in keys:
            candidate_ids.update(dict.fromkeys(index.get(key, ())))
        return list(candidate_ids)[: self._max_candidates]

    def _decide(
        self, prepared: PreparedRecord, other_id: str, exact_scores: bool
    ) -> tuple[float, bool]:
        """Classify ``prepared`` against one candidate -> (score, match).

        Routes through :meth:`RecordComparator.decide` under a plain
        threshold classifier (early exit, identical decisions); any
        other classifier gets the full prepared vector. With
        ``exact_scores=False`` rejected/accepted scores may be bounds.
        The candidate is prepared here the first time it is compared.
        """
        other = self._prepared.get(other_id)
        if other is None:
            other = self._prepared[other_id] = self._comparator.prepare(
                self._records[other_id]
            )
        if self._threshold is not None:
            is_match, score, __, __ = self._comparator.decide(
                prepared, other, self._threshold, exact_scores
            )
            return score, is_match
        vector = self._comparator.compare_prepared(prepared, other)
        return vector.score, self._classifier.is_match(vector)

    def probe(self, record: Record) -> ProbeResult:
        """Read-only query: which indexed records match ``record``?

        The serving layer's ``match`` endpoint — candidate generation
        and classification identical to :meth:`add_batch`, but nothing
        is indexed or merged, so probing the same record twice (or from
        concurrent readers) is side-effect free. Every candidate is
        decided (a reader is owed each match and its exact score, so
        nothing is skipped as already linked), sorted best-first.
        """
        candidate_ids = self.candidates(record)
        prepared = self._comparator.prepare(record)
        matches = []
        for other_id in candidate_ids:
            score, is_match = self._decide(
                prepared, other_id, exact_scores=True
            )
            if is_match:
                matches.append((other_id, score))
        matches.sort(key=lambda pair: (-pair[1], pair[0]))
        return ProbeResult(
            matches=tuple(matches),
            candidates=len(candidate_ids),
            comparisons=len(candidate_ids),
        )

    def add_batch(self, batch: Sequence[Record]) -> BatchStats:
        """Fold a batch of new records into the clustering.

        An id that is already linked, or appears twice in ``batch``,
        refuses the whole batch before anything is indexed or merged.

        Each record is decided once per linked component: a candidate
        whose union-find root the record has already matched is skipped
        (the cap truncated the candidates first, as ever), and once every
        candidate's component is matched the rest go unread. The record's
        own unions wait until its last decision, so the roots hold still
        while it is decided and a comparator that raises half-way leaves
        no merge behind for a retry to trip over.
        """
        batch_ids: set[str] = set()
        for record in batch:
            record_id = record.record_id
            if record_id in self._records or record_id in batch_ids:
                raise ConfigurationError(
                    f"record {record_id!r} already linked"
                )
            batch_ids.add(record_id)
        candidates_total = 0
        comparisons = 0
        match_pairs: list[tuple[str, str]] = []
        for record in batch:
            record_id = record.record_id
            keys = self._keys_of(record)
            candidate_ids = self._candidates_under(keys)
            candidates_total += len(candidate_ids)
            prepared = self._comparator.prepare(record)
            self._records[record_id] = record
            self._prepared[record_id] = prepared
            self._uf.add(record_id)
            matched: dict[str, str] = {}  # root -> first candidate matched
            roots = self._uf.roots(candidate_ids)
            components = len(set(roots))
            for other_id, root in zip(candidate_ids, roots):
                if root in matched:
                    continue
                comparisons += 1
                _, is_match = self._decide(
                    prepared, other_id, exact_scores=False
                )
                if is_match:
                    matched[root] = other_id
                    if len(matched) == components:
                        break
            for other_id in matched.values():
                match_pairs.append((record_id, other_id))
                self._uf.union(record_id, other_id)
            for key in keys:
                self._index.setdefault(key, []).append(record_id)
        return BatchStats(
            batch_size=len(batch),
            candidates=candidates_total,
            comparisons=comparisons,
            matches=len(match_pairs),
            match_pairs=tuple(match_pairs),
        )

    def batch_equivalent(self, blocker: Blocker) -> list[list[str]]:
        """Batch re-linkage of everything seen (the expensive baseline).

        Uses ``blocker`` over the full record set with the same
        comparator/classifier, clustering by connected components —
        what a from-scratch run would compute.
        """
        result = resolve(
            list(self._records.values()),
            blocker,
            self._comparator,
            self._classifier,
            clustering="components",
        )
        return result.clusters
