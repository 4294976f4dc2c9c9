"""Online entity-resolution serving: the projection layer made live.

Everything before this package is batch machinery — fast, resilient,
crash-recoverable, but offline. ``repro.serve`` turns it into a
serving system following the reconciliation pattern: *sources observe,
resolutions decide, projections serve*.

* :class:`EntityStore` — the durable resolved-entity projection: an
  fsynced append-only record log (random access via
  :class:`repro.outofcore.IndexedRecordStore`) plus generation-stamped
  projection artifacts in a :class:`repro.recovery.RunStore`, with an
  atomic ``current`` pointer. A restart reloads the exact pre-crash
  state for completed generations.
* :class:`ResolutionService` — the query/ingest API: ``ingest`` routes
  through the incremental linker and online fusion (never the batch
  pipeline), ``match``/``get``/``entities`` read a single consistent
  generation, and a background :meth:`~ResolutionService.refresh` runs
  full batch re-resolution into a *new* generation that readers swap
  to atomically.
* :class:`GenerationCache` — the read-path LRU keyed by generation
  stamp, so re-resolution (and every ingest) invalidates cached
  answers by construction.
* :func:`run_traffic` — the deterministic synthetic workload driver
  behind the benchmark ledger's ``serve_mixed`` workload.

Service health is observable through the ``serve.*`` counters (ingests,
queries, cache hits/misses, generation swaps, quarantined ingests, …)
on any attached :class:`repro.obs.Tracer`.
"""

from repro.linkage.projection import entity_id_for
from repro.serve.cache import MISS, GenerationCache
from repro.serve.service import (
    IngestResult,
    ResolutionService,
    ResolvedEntity,
)
from repro.serve.store import EntityStore, record_to_row
from repro.serve.traffic import (
    TrafficConfig,
    TrafficResult,
    percentile,
    run_traffic,
)

__all__ = [
    "EntityStore",
    "GenerationCache",
    "IngestResult",
    "MISS",
    "ResolutionService",
    "ResolvedEntity",
    "TrafficConfig",
    "TrafficResult",
    "entity_id_for",
    "percentile",
    "record_to_row",
    "run_traffic",
]
