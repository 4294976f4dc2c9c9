"""Out-of-core execution: memory-bounded streaming over large corpora.

The in-memory pipeline materializes the full corpus (records, block
indexes, candidate pairs, grouped claims) before each stage runs. This
package replays the same algorithms under a configurable memory budget:
structures that would exceed the budget spill to sorted on-disk runs
through the :mod:`repro.recovery` atomic-write/checksum machinery and
are merged back as streams. Every streaming path is required to be
**byte-identical** to its in-memory counterpart — same blocks, same
candidate-pair order, same clusters, same fused values — which the
differential tests in ``tests/test_outofcore.py`` assert directly.

Building blocks:

* :class:`MemoryBudget` — the shared tracked-bytes ledger every
  spillable structure charges against.
* :class:`SpillableBlockIndex`, :class:`ExternalSorter`,
  :class:`ExternalPairDeduper` — bounded blocking indexes, external
  sort, and candidate-pair deduplication.
* :class:`SpillableClaimGroups` — bounded grouped claims, a claim
  source the item-local fusers (voting, AccuVote, TruthFinder) run on
  unchanged; :func:`stream_voting` / :func:`stream_accuvote` are those
  fusers called on it.
* :class:`IndexedRecordStore` — random-access record lookup over a
  ``records.jsonl`` file through a budget-tracked LRU cache.
* :class:`SpillSession` — bundles the spill store and budget handed to
  streaming blockers: any :class:`~repro.linkage.blocking.KeyBlocker`
  (a blocker that is a per-record key function streams for free) and
  sorted neighbourhood's own external sort.
"""

from repro.outofcore.budget import (
    MemoryBudget,
    columnar_block_nbytes,
    pair_nbytes,
    record_nbytes,
    str_nbytes,
)
from repro.outofcore.claims import (
    ClaimStreamSummary,
    SpillableClaimGroups,
    stream_accuvote,
    stream_voting,
)
from repro.outofcore.records import IndexedRecordStore
from repro.outofcore.spill import (
    ExternalPairDeduper,
    ExternalSorter,
    SpillableBlockIndex,
    SpillSession,
)

__all__ = [
    "ClaimStreamSummary",
    "ExternalPairDeduper",
    "ExternalSorter",
    "IndexedRecordStore",
    "MemoryBudget",
    "SpillSession",
    "columnar_block_nbytes",
    "SpillableBlockIndex",
    "SpillableClaimGroups",
    "pair_nbytes",
    "record_nbytes",
    "str_nbytes",
    "stream_accuvote",
    "stream_voting",
]
