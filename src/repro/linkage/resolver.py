"""The end-to-end entity-resolution driver.

:func:`resolve` wires the four linkage stages — block, compare,
classify, cluster — over a record collection and returns a
:class:`LinkageResult` carrying the clusters, the match pairs, and the
cost counters the benchmarks report.
"""

from __future__ import annotations

import contextlib
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Collection, Iterable, Literal, Protocol, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.linkage.blocking.base import Blocker
from repro.linkage.clustering import (
    ScoredEdge,
    center_clustering,
    connected_components,
    merge_center_clustering,
)
from repro.linkage.comparison import ComparisonVector, RecordComparator
from repro.linkage.engine import (
    ExecutionMode,
    ParallelComparisonEngine,
    Representation,
)
from repro.obs import BLOCK_SIZE_BUCKETS, NULL_TRACER, observe_block_collection

__all__ = ["MatchClassifier", "LinkageResult", "resolve"]

ClusteringName = Literal["components", "center", "merge-center"]


class MatchClassifier(Protocol):
    """Anything that can turn a comparison vector into a match decision."""

    def is_match(self, vector: ComparisonVector) -> bool: ...


@dataclass(frozen=True)
class LinkageResult:
    """Everything a linkage run produced.

    ``n_candidates`` counts the candidate pairs handed to the engine:
    the blocker's deduplicated pairs, or the caller's ``candidate_pairs``
    less their self-pairs. A caller's pair naming an id that is not
    among the records is counted here but never compared.
    """

    clusters: list[list[str]]
    match_pairs: set[frozenset[str]]
    n_candidates: int
    scored_edges: list[ScoredEdge] = field(default_factory=list)
    dead_letters: "object | None" = None
    quarantined_pairs: tuple = ()

    @property
    def n_clusters(self) -> int:
        """Number of clusters (entities found)."""
        return len(self.clusters)

    @property
    def n_quarantined(self) -> int:
        """Pairs quarantined by the fault-tolerance layer (0 when off)."""
        return len(self.quarantined_pairs)


def _cluster(clustering, match_pairs, scored_edges, all_ids, tracer):
    """The shared classify-output → clusters step."""
    with tracer.span("linkage.cluster", algorithm=clustering) as span:
        if clustering == "components":
            clusters = connected_components(match_pairs, all_ids)
        elif clustering == "center":
            clusters = center_clustering(scored_edges, all_ids)
        elif clustering == "merge-center":
            clusters = merge_center_clustering(scored_edges, all_ids)
        else:
            raise ConfigurationError(f"unknown clustering {clustering!r}")
        span.set("n_clusters", len(clusters))
    return clusters


def _canonical_pairs(
    candidate_pairs: Iterable[Collection[str]],
) -> list[tuple[str, str]]:
    """Caller-supplied candidate pairs as oriented id tuples in sorted
    order — the one order every engine run (serial, process, streamed,
    sharded) scores them in, so chunk boundaries (and so checkpoints)
    line up across runs and execution modes. A self-pair (``("a",
    "a")``, ``frozenset({"a"})``) is dropped, as blocking drops it;
    duplicates are kept."""
    ordered: list[tuple[str, str]] = []
    for pair in candidate_pairs:
        ids = sorted(pair)
        if len(ids) == 2 and ids[0] != ids[1]:
            ordered.append((ids[0], ids[1]))
        elif not 1 <= len(ids) <= 2:
            raise ConfigurationError(
                f"a candidate pair names two record ids, got {pair!r}"
            )
    ordered.sort()
    return ordered


def _block_pairs(
    blocker: Blocker, records: Sequence[Record], tracer, span_name: str
) -> list[tuple[str, str]]:
    """Block ``records`` in memory: the canonical candidate-pair list."""
    with tracer.span(span_name, blocker=type(blocker).__name__) as span:
        blocks = blocker.block(records)
        observe_block_collection(tracer, blocks)
        ordered = blocks.ordered_pairs()
        span.set("n_blocks", len(blocks))
        span.set("n_candidates", len(ordered))
    return ordered


def _spill_block_pairs(blocker: Blocker, records, store, budget, tracer):
    """Block ``records`` out of core: the blocker streams its blocks
    through a spillable index into an external sorted-merge deduper,
    whose ``stream()`` is the canonical pair order and whose ``n_pairs``
    is known once that stream is drained. Reports what
    :func:`_block_pairs` reports, counted block by block."""
    from repro.outofcore import ExternalPairDeduper, SpillSession

    if not blocker.supports_streaming:
        raise ConfigurationError(
            f"{type(blocker).__name__} has no streaming path; "
            "out-of-core resolve requires one (or explicit "
            "candidate_pairs)"
        )
    spill = SpillSession(store.sub("blocks"), budget)
    deduper = ExternalPairDeduper(store.sub("pairs"), budget)
    with tracer.span(
        "linkage.block", blocker=type(blocker).__name__, streaming=True
    ) as span:
        n_blocks = 0
        n_comparisons = 0
        size_histogram = tracer.histogram(
            "blocking.block_size", BLOCK_SIZE_BUCKETS
        )
        for block in blocker.stream_blocks(records, spill):
            n_blocks += 1
            n_comparisons += block.n_comparisons
            size_histogram.observe(float(len(block)))
            deduper.add_block(block.record_ids)
        tracer.counter("blocking.blocks_built").inc(n_blocks)
        tracer.counter("blocking.comparisons").inc(n_comparisons)
        span.set("n_blocks", n_blocks)
    return deduper


def _engine(
    comparator, execution, n_workers, tracer, resilience, checkpoint,
    representation,
) -> ParallelComparisonEngine:
    """The comparison engine a linkage run's options describe."""
    return ParallelComparisonEngine(
        comparator,
        execution=execution,
        n_workers=n_workers,
        tracer=tracer,
        resilience=resilience,
        checkpoint=checkpoint,
        representation=representation,
    )


def resolve(
    records: Sequence[Record],
    blocker: Blocker,
    comparator: RecordComparator,
    classifier: MatchClassifier,
    clustering: ClusteringName = "components",
    candidate_pairs: set[frozenset[str]] | None = None,
    execution: ExecutionMode = "serial",
    n_workers: int | None = None,
    tracer=None,
    resilience=None,
    checkpoint=None,
    memory_budget=None,
    spill_dir=None,
    representation: Representation = "dict",
    n_shards: int | None = None,
    shard_backend: str = "process",
    supervisor=None,
) -> LinkageResult:
    """Run block → compare → classify → cluster over ``records``.

    ``candidate_pairs`` overrides the blocker's output when provided
    (e.g. pairs surviving meta-blocking) — the blocker is then not run
    at all.

    Comparison goes through the
    :class:`~repro.linkage.engine.ParallelComparisonEngine`: records
    are prepared once, threshold classifiers get staged early-exit
    scoring, and ``execution="process"`` fans the pair batches out
    over ``n_workers`` OS processes — all with output identical to the
    naive per-pair loop. Every mode runs the same chunked loop, so a
    comparison that fails surfaces the same way everywhere: unless
    ``resilience`` says otherwise, a
    :class:`~repro.resilience.ChunkExecutionError` naming the chunk,
    with the comparator's own exception as its ``__cause__``.

    ``tracer`` (an :class:`repro.obs.Tracer`, default no-op) records
    one span per stage — blocking (block count and size histogram),
    matching (the engine's own span and counters), clustering — into
    the run report.

    ``resilience`` (a :class:`repro.resilience.ResilienceConfig`,
    default off) makes comparison fault-tolerant: failed chunks are
    retried with backoff and, under ``failure="skip"``, persistent
    failures are quarantined into the result's ``dead_letters`` while
    linkage completes over the surviving pairs.

    ``checkpoint`` (a :class:`repro.recovery.RunStore`, a view of
    one, or a directory path, default off) makes the comparison stage crash-resumable: the
    engine durably saves completed chunk results into the store, and a
    rerun of the same workload against the same store resumes from the
    last completed chunk.

    ``memory_budget`` (estimated bytes, default off) switches to the
    out-of-core path: blocking indexes and candidate pairs spill to
    sorted runs under ``spill_dir`` (a directory path, a
    :class:`repro.recovery.RunStore`/view, or ``None`` for a temporary
    directory) whenever tracked resident bytes would exceed the
    budget, and pairs stream through the engine chunk by chunk. Output
    is byte-identical to the unbounded run; the blocker must have a
    streaming path (``blocker.supports_streaming``: every
    :class:`~repro.linkage.blocking.KeyBlocker` and sorted
    neighbourhood). ``records`` may then be a mapping (e.g.
    :class:`repro.outofcore.IndexedRecordStore`) instead of a
    materialized sequence.

    ``representation`` selects the engine's record layout:
    ``"dict"`` (default) scores prepared dict payloads pair by pair;
    ``"columnar"`` packs them into :mod:`repro.columnar` blocks and
    scores whole chunks through the vectorized batch kernels. Output is
    bit-identical either way; it composes with every ``execution``
    mode, resilience, checkpointing, and the out-of-core path.

    ``execution="sharded"`` hash-partitions the candidate pairs across
    worker shards (:mod:`repro.dist.runtime`): blocking once at the
    coordinator, per-shard matching workers with their own checkpoint
    namespaces, and union-find boundary reconciliation — with output
    byte-identical to the serial path. ``n_shards`` pins the shard count (``None``
    lets the cluster cost model plan it); ``shard_backend`` selects
    ``"process"`` workers or the ``"inline"`` sequential backend. The
    sharded path composes with everything except ``memory_budget``.

    ``supervisor`` (a :class:`repro.supervision.Supervisor`, sharded
    execution only) is the restart budget of the loop every sharded
    run's shards go through: shard workers that die or hang are
    relaunched — from their own checkpoints when the run has a store,
    from their first chunk otherwise — with output still
    byte-identical to an unfaulted run. ``None`` is a budget of zero:
    a dead worker raises
    :class:`~repro.supervision.SupervisionExhaustedError` at once.
    Either way an exception a shard raises reaches the caller as
    itself.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    if supervisor is not None and execution != "sharded":
        raise ConfigurationError(
            "supervisor requires execution='sharded'; other modes have "
            "no shard workers to supervise"
        )
    if execution == "sharded":
        if memory_budget is not None:
            raise ConfigurationError(
                "execution='sharded' does not compose with memory_budget; "
                "shards already bound memory by partitioning"
            )
        from repro.dist.runtime import sharded_resolve

        return sharded_resolve(
            records,
            blocker,
            comparator,
            classifier,
            clustering=clustering,
            candidate_pairs=candidate_pairs,
            n_shards=n_shards,
            backend=shard_backend,
            tracer=tracer,
            resilience=resilience,
            checkpoint=checkpoint,
            representation=representation,
            supervisor=supervisor,
        ).result
    by_id = (
        records
        if isinstance(records, Mapping)
        else {record.record_id: record for record in records}
    )
    engine = _engine(
        comparator, execution, n_workers, tracer, resilience, checkpoint,
        representation,
    )
    if memory_budget is None:
        ordered = (
            _canonical_pairs(candidate_pairs)
            if candidate_pairs is not None
            else _block_pairs(blocker, records, tracer, "linkage.block")
        )
        run = engine.match_pairs(by_id, ordered, classifier)
        n_candidates = len(ordered)
    else:
        from repro.outofcore import MemoryBudget
        from repro.recovery import RunStore

        budget = (
            memory_budget
            if isinstance(memory_budget, MemoryBudget)
            else MemoryBudget(memory_budget, tracer=tracer)
        )
        # Spill runs are transient per call and go with it, whether it
        # returns or raises; checkpoints live in the separate
        # ``checkpoint`` store, so kill-and-resume works mid-spill.
        with contextlib.ExitStack() as cleanup:
            if candidate_pairs is not None:
                ordered = _canonical_pairs(candidate_pairs)
                feed = iter(ordered)
            else:
                if spill_dir is None:
                    spill_dir = cleanup.enter_context(
                        tempfile.TemporaryDirectory(prefix="repro-spill-")
                    )
                if not hasattr(spill_dir, "save_stream"):
                    spill_dir = RunStore(spill_dir, durable=False)
                deduper = _spill_block_pairs(
                    blocker, by_id.values(), spill_dir, budget, tracer
                )
                feed = deduper.stream()
            run = engine.match_pairs_stream(
                by_id, feed, classifier, budget=budget
            )
            n_candidates = (
                len(ordered) if candidate_pairs is not None else deduper.n_pairs
            )
        budget.publish()
    clusters = _cluster(
        clustering, run.match_pairs, run.scored_edges, sorted(by_id), tracer
    )
    return LinkageResult(
        clusters=clusters,
        match_pairs=run.match_pairs,
        n_candidates=n_candidates,
        scored_edges=run.scored_edges,
        dead_letters=run.dead_letters if resilience is not None else None,
        quarantined_pairs=run.quarantined_pairs,
    )
