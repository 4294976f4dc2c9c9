"""The live entity projection: one incremental core, two shells.

Incremental entity resolution is one loop whoever drives it: probe the
blocking index, decide, update the clusters, re-fuse what was touched.
:class:`EntityProjection` is that loop — an
:class:`~repro.linkage.incremental.IncrementalLinker` plus the entity
table it implies — and its five moves are everything the two live
consumers do to that table: ``fold`` new records in (one for a serve
ingest, a window for streaming), ``rebuild`` from a batch clustering,
``load`` a saved table, ``refuse_all`` after the accuracy view moved,
and read it back in ``canonical`` order. An entry is canonical when it
is tabled and never mutated after, so reading the table back sorts ids
and copies nothing, and a rebuild keeps every entry whose membership
did not move. :mod:`repro.serve` adds
durability, generations, resilience and overload policy around it;
:mod:`repro.streaming` adds windows, the decayed accuracy tracker,
monitors and checkpoints. Neither builds a linker or fuses a value
itself: every live value is :func:`fuse_entity`'s full weighted vote.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.core.unionfind import UnionFind
from repro.fusion.online import claim_posterior, vote_count
from repro.linkage.blocking.base import KeyFunction
from repro.linkage.comparison import RecordComparator
from repro.linkage.incremental import BatchStats, IncrementalLinker
from repro.linkage.resolver import MatchClassifier

__all__ = [
    "DEFAULT_SOURCE_ACCURACY",
    "EntityProjection",
    "entity_id_for",
    "fuse_entity",
]

#: Accuracy assumed for sources the caller gave no estimate for.
DEFAULT_SOURCE_ACCURACY = 0.8
#: The vote model's ``n`` (wrong values per item), ``repro.fusion``'s default.
N_FALSE_VALUES = 10


def entity_id_for(member_ids) -> str:
    """Canonical entity id of a cluster: its smallest member record id.

    Deterministic across the batch and incremental paths — equal
    clusters always project to equal entity ids, and a merge's id is
    the min over the union.
    """
    return f"ent:{min(member_ids)}"


def fuse_entity(
    members: Sequence[Record],
    accuracy_of: Callable[[str], float],
    pick: str = "first",
) -> tuple[dict, dict, dict]:
    """Fuse one entity's member records -> (attributes, confidence,
    provenance).

    The single per-entity fusion, shared by the live projection and
    :func:`repro.streaming.batch_reference_snapshot`: batch fusion at
    known accuracies. Members in record-id order, one claim per
    ``(source, attribute)`` (empty values skipped), each adding its
    source's :func:`~repro.fusion.online.vote_count` (``accuracy_of``,
    asked once per source) to its value's score; the winner is the best
    ``(score, value)``, as in :func:`repro.fusion.base.choose`, and its
    confidence its :func:`~repro.fusion.online.claim_posterior` over
    the full tally — every claim is in hand, so nothing stops early.

    ``pick`` selects which of a source's claims represents it:
    ``"first"`` (lowest record id — the serving layer's rule, and the
    batch anchor) or ``"latest"`` (highest record id — what drift
    tracking wants: on a continuous stream record ids embed event
    time, so a source's newest statement supersedes its older ones).
    """
    ordered = sorted(members, key=lambda record: record.record_id)
    return _fuse_sorted(ordered, accuracy_of, pick)


def _fuse_sorted(members, accuracy_of, pick) -> tuple[dict, dict, dict]:
    """:func:`fuse_entity` of members already in record-id order."""
    if pick not in ("first", "latest"):
        raise ConfigurationError("pick must be 'first' or 'latest'")
    votes: dict[str, float] = {}
    tallies: dict[str, dict[str, float]] = {}
    claimed: set[tuple[str, str]] = set()
    for record in members if pick == "first" else reversed(members):
        source = record.source_id
        if source not in votes:
            votes[source] = vote_count(accuracy_of(source), N_FALSE_VALUES)
        for attribute, value in record.attributes.items():
            if not value or (source, attribute) in claimed:
                continue
            claimed.add((source, attribute))
            tally = tallies.setdefault(attribute, {})
            tally[value] = tally.get(value, 0.0) + votes[source]
    attributes, confidence, provenance = {}, {}, {}
    for attribute, tally in sorted(tallies.items()):
        _, winner = max(zip(tally.values(), tally))  # best (score, value)
        attributes[attribute] = winner
        confidence[attribute] = claim_posterior(tally, winner, N_FALSE_VALUES)
        provenance[attribute] = [
            record.record_id
            for record in members
            if record.attributes.get(attribute) == winner
        ]
    return attributes, confidence, provenance


class EntityProjection:
    """An incremental linker and the entity table it implies.

    ``key_functions``, ``comparator``, ``classifier`` and
    ``max_candidates_per_record`` are the linker's; ``accuracy_of`` and
    ``pick`` are :func:`fuse_entity`'s. ``accuracy_of`` is consulted at
    every fusion, so a shell whose accuracy view moves (a pushed
    update, a decayed tracker) changes what the *next* fusion sees.
    """

    def __init__(
        self,
        key_functions: Sequence[KeyFunction],
        comparator: RecordComparator,
        classifier: MatchClassifier,
        accuracy_of: Callable[[str], float],
        pick: str = "first",
        max_candidates_per_record: int = 1000,
    ) -> None:
        self._linker_args = (
            tuple(key_functions),
            comparator,
            classifier,
            max_candidates_per_record,
        )
        self._accuracy_of = accuracy_of
        self._pick = pick
        self._preload((), ())

    def _preload(
        self, records: Iterable[Record], clusters: Iterable[Sequence[str]]
    ) -> None:
        """Start over from a known clustering: a fresh linker with
        ``records`` indexed and ``clusters`` merged — no comparisons —
        under an empty entity table."""
        self.linker = IncrementalLinker(*self._linker_args)
        #: entity_id -> {"members", "attributes", "confidence",
        #: "provenance"}, canonical (sorted members, attributes and
        #: provenance) and read-only: a change tables a new entry.
        self.entities: dict[str, dict] = {}
        #: record_id -> entity_id
        self.entity_of: dict[str, str] = {}
        #: Ids of the entries :meth:`load` adopted and nothing re-fused
        #: since: they may hold another accuracy view than this one's.
        self._adopted: set[str] = set()
        for record in records:
            self.linker.resurrect(record)
        for cluster in clusters:
            for left, right in zip(cluster, cluster[1:]):
                self.linker.merge(left, right)

    def _table(self, entity_id: str, entry: dict) -> None:
        """Make ``entry`` the table's entity ``entity_id``."""
        self.entities[entity_id] = entry
        # Only after the entry is replaced: see :meth:`rebuild`.
        self._adopted.discard(entity_id)
        for member in entry["members"]:
            self.entity_of[member] = entity_id

    def _project(self, member_ids) -> str:
        """(Re)fuse and table the entity made of ``member_ids``."""
        members = sorted(member_ids)
        entity_id = entity_id_for(members)
        attributes, confidence, provenance = _fuse_sorted(
            [self.linker.record(member) for member in members],
            self._accuracy_of,
            self._pick,
        )
        self._table(
            entity_id,
            {
                "members": members,
                "attributes": attributes,
                "confidence": confidence,
                "provenance": provenance,
            },
        )
        return entity_id

    def fold(
        self, records: Sequence[Record]
    ) -> tuple[BatchStats, tuple[str, ...], tuple[str, ...]]:
        """Link ``records`` incrementally; re-fuse what they touched.

        A batch-local union-find groups the new records; every match
        into an already-tabled entity absorbs that entity's members.
        Returns the linker's :class:`BatchStats`, the ids of the
        entities (re)projected, and the ids of the absorbed entities,
        first matched first.
        """
        stats = self.linker.add_batch(records)
        local: UnionFind[str] = UnionFind()
        for record in records:
            local.add(record.record_id)
        absorbed_rep: dict[str, str] = {}
        for new_id, other_id in stats.match_pairs:
            entity_id = self.entity_of.get(other_id)
            if entity_id is None:
                # Both endpoints are in this batch.
                local.union(new_id, other_id)
            else:
                local.union(new_id, absorbed_rep.setdefault(entity_id, new_id))
        absorbed_by_root: dict[str, list[str]] = {}
        for entity_id, rep in absorbed_rep.items():
            absorbed_by_root.setdefault(local.find(rep), []).append(entity_id)
        projected = []
        for group in sorted(local.groups(), key=min):
            members = set(group)
            for entity_id in absorbed_by_root.get(local.find(group[0]), ()):
                members.update(self.entities.pop(entity_id)["members"])
            projected.append(self._project(members))
        return stats, tuple(projected), tuple(absorbed_rep)

    def rebuild(
        self,
        records: Iterable[Record],
        clusters: Sequence[Sequence[str]],
        previous: EntityProjection | None = None,
    ) -> int:
        """Replace the state with a batch clustering of ``records``
        (zero comparisons), fused under the current accuracy view.

        ``previous`` is the projection this one replaces, with the same
        record contents and accuracy view: its entry for a cluster with
        exactly the same members is tabled as it is, not re-fused, unless
        :meth:`load` adopted that entry (it may hold another process's
        accuracy view). ``previous`` may take writes meanwhile; each
        entry is read whole. Returns the number of entities fused.
        """
        self._preload(records, clusters)
        fused = 0
        for cluster in clusters:
            members = sorted(cluster)
            entity_id = entity_id_for(members)
            if previous is not None:
                # Adoption is read before the entry and cleared after a
                # new one replaces it, so an adopted entry is never kept.
                adopted = entity_id in previous._adopted
                entry = previous.entities.get(entity_id)
                if (
                    not adopted
                    and entry is not None
                    and entry["members"] == members
                ):
                    self._table(entity_id, entry)
                    continue
            self._project(members)
            fused += 1
        return fused

    def load(
        self, records: Iterable[Record], entities: Mapping[str, dict]
    ) -> list[Record]:
        """Replace the state with a saved table, as saved: zero
        comparisons and no re-fusion, so a restart is byte-identical
        and values fused under drifting accuracies keep them. Of
        ``records`` only those some saved entity contains are indexed;
        the rest are returned, in order, for the caller to replay. The
        table's entries are adopted, not copied: ``entities`` is a
        :meth:`canonical` table, and its entries are read-only."""
        records = list(records)
        clusters = [entity["members"] for entity in entities.values()]
        covered = {member for cluster in clusters for member in cluster}
        self._preload(
            [r for r in records if r.record_id in covered], clusters
        )
        self.entities.update(entities)
        self._adopted.update(entities)
        for entity_id, cluster in zip(entities, clusters):
            self.entity_of.update(dict.fromkeys(cluster, entity_id))
        return [r for r in records if r.record_id not in covered]

    def refuse_all(self) -> None:
        """Re-fuse every entity in place (membership untouched)."""
        for entity in list(self.entities.values()):
            self._project(entity["members"])

    def canonical(self) -> dict:
        """The table in sorted id order — what is saved and compared.

        A view, not a copy: the entries are the table's own, already
        canonical, and read-only like every entry of the table.
        """
        return dict(sorted(self.entities.items()))
