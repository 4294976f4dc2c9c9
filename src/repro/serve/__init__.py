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

from repro import _lazy

_lazy.export(
    globals(),
    {
        ".linkage.projection": "entity_id_for",
        "cache": "MISS GenerationCache",
        "service": "IngestResult ResolutionService ResolvedEntity",
        "store": "EntityStore",
        "traffic": "TrafficConfig TrafficResult percentile run_traffic",
    },
)
