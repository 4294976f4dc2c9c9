"""Sharded pipeline runtime: entity-partitioned linkage over workers.

The rest of :mod:`repro.dist` *prices* a cluster (partitioning
strategies scored by the cost model — the load-balancing study of
experiment E05). This module is the one distributed linkage path, run
for real on one machine: the pipeline is hash-partitioned into shards
that execute in actual worker processes, and the coordinator
reassembles a result **byte-identical** to the single-process
:func:`repro.linkage.resolve`.

The run proceeds in four coordinated steps:

1. **Candidate pairs.** The coordinator holds the canonical pair list
   (sorted, unique, oriented id tuples — the order the serial resolver
   feeds its engine): the caller's ``candidate_pairs`` when given,
   otherwise the blocker's, run once over the whole corpus and
   reporting the same ``blocking.*`` metrics as a serial run.
   :func:`_partition_pairs` deals it out by the home shard
   (:func:`~repro.dist.partition.shard_of_key`) of each pair's smaller
   id, so every shard holds a sorted slice of that order; pairs whose
   two records have different home shards are counted as *spanning* —
   the shuffle volume a real cluster would pay.
2. **Matching.** Each shard's pairs run through the existing resilient
   chunked :class:`~repro.linkage.engine.ParallelComparisonEngine`
   (dict or columnar) inside a worker. Workers checkpoint into their
   own ``dist.shard.{k}.engine`` store namespace, so a killed worker
   resumes alone from its chunk ledger.
3. **Reconciliation.** Per-shard match results merge back: match pairs
   union, scored edges k-way merge (each shard's edges are a sorted
   disjoint sublist of the serial edge order), and clusters reconcile
   with a union-find pass over each shard's local components — the
   transitive closure across shard boundaries is exactly the serial
   ``connected_components`` output.
4. **Manifest.** With a checkpoint store, the coordinator records a
   ``dist.layout`` artifact carrying the shard count and per-shard pair
   fingerprints. Re-running against the store with a different
   ``n_shards`` raises
   :class:`~repro.recovery.CheckpointMismatchError`; re-running with
   the same layout reuses completed shard results and replays only
   unfinished shards from their engine chunk checkpoints.

:func:`plan_shards` picks a default shard count from the
:class:`~repro.dist.costmodel.ClusterCostModel` when the caller does
not pin one.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.core.unionfind import UnionFind
from repro.dist.costmodel import ClusterCostModel
from repro.dist.partition import shard_of_key
from repro.linkage.blocking.base import Blocker
from repro.linkage.clustering import ScoredEdge, connected_components
from repro.linkage.engine import ParallelComparisonEngine
from repro.linkage.resolver import (
    LinkageResult,
    _block_pairs,
    _canonical_pairs,
    _cluster,
)
from repro.obs import NULL_TRACER, Tracer
from repro.recovery import CheckpointMismatchError, RunStore, config_fingerprint
from repro.resilience import DeadLetterLog
from repro.supervision.supervisor import SupervisionPolicy, Supervisor

__all__ = [
    "SHARD_BACKENDS",
    "ShardPlan",
    "ShardResult",
    "ShardedResolveRun",
    "plan_shards",
    "sharded_resolve",
]

#: Worker backends: ``"process"`` fans shards out over OS processes,
#: ``"inline"`` runs them sequentially in-process (deterministic kill
#: semantics for chaos tests, zero fork overhead for tiny corpora).
SHARD_BACKENDS: tuple[str, ...] = ("process", "inline")


@dataclass(frozen=True)
class ShardPlan:
    """The coordinator's shard-count decision.

    ``candidates`` holds the cost model's predicted makespan for every
    considered shard count; ``pinned`` records that the caller chose
    ``n_shards`` explicitly (the plan then just prices that choice).
    """

    n_shards: int
    predicted_cost: float
    candidates: tuple[tuple[int, float], ...] = ()
    pinned: bool = False


@dataclass(frozen=True)
class ShardResult:
    """Everything one shard's worker produced.

    ``match_pairs`` / ``scored_edges`` are sorted tuples (each shard
    owns a disjoint, pre-sorted slice of the canonical pair list);
    ``local_groups`` are the shard's connected components over its own
    match pairs, which the coordinator unions across shards.
    ``elapsed`` is the worker-measured matching wall time — the
    quantity shard-scaling benchmarks aggregate into a makespan.
    ``resumed`` marks a shard whose result was reused from the
    checkpoint store; ``replayed_chunks`` counts engine chunks restored
    from checkpoints instead of recomputed.
    """

    shard: int
    n_pairs: int
    n_chunks: int
    completed_chunks: int
    replayed_chunks: int
    n_early_exit: int
    elapsed: float
    match_pairs: tuple[tuple[str, str], ...]
    scored_edges: tuple[ScoredEdge, ...]
    local_groups: tuple[tuple[str, ...], ...]
    counters: tuple[tuple[str, float], ...]
    quarantined_pairs: tuple = ()
    dead_letters: DeadLetterLog = field(default_factory=DeadLetterLog)
    resumed: bool = False


@dataclass(frozen=True)
class ShardedResolveRun:
    """A sharded run: the reassembled result plus per-shard forensics."""

    result: "object"
    plan: ShardPlan
    shards: tuple[ShardResult, ...]
    n_shards: int
    backend: str
    n_spanning_pairs: int
    signatures: tuple[str, ...] = ()

    @property
    def n_resumed(self) -> int:
        """Shards whose results were reused from the checkpoint store."""
        return sum(1 for shard in self.shards if shard.resumed)

    @property
    def replayed_chunks(self) -> int:
        """Engine chunks replayed from checkpoints across all shards."""
        return sum(shard.replayed_chunks for shard in self.shards)


def plan_shards(
    n_pairs: int,
    *,
    model: ClusterCostModel | None = None,
    max_shards: int = 8,
    n_shards: int | None = None,
) -> ShardPlan:
    """Choose a shard count for ``n_pairs`` comparisons.

    Predicted makespan of ``k`` shards is the startup cost of going
    distributed at all (``k > 1``), plus per-shard task overhead, plus
    the slowest shard's comparison work (``⌈n_pairs / k⌉``). The
    smallest ``k`` wins ties, so tiny workloads stay single-shard.
    """
    if max_shards < 1:
        raise ConfigurationError("max_shards must be >= 1")
    if n_shards is not None and n_shards < 1:
        raise ConfigurationError("n_shards must be >= 1")
    model = model if model is not None else ClusterCostModel()
    considered = max(max_shards, n_shards or 1)

    def predicted(k: int) -> float:
        return (
            (model.startup if k > 1 else 0.0)
            + model.task_overhead * k
            + model.comparison_cost * math.ceil(n_pairs / k)
        )

    candidates = tuple((k, predicted(k)) for k in range(1, considered + 1))
    if n_shards is not None:
        return ShardPlan(n_shards, predicted(n_shards), candidates, pinned=True)
    best = min(candidates, key=lambda entry: (entry[1], entry[0]))
    return ShardPlan(best[0], best[1], candidates)


def _partition_pairs(
    ordered_pairs: Sequence[tuple[str, str]], n_shards: int
) -> tuple[list[list[tuple[str, str]]], int]:
    """Split the canonical pair list into per-owner sorted sublists.

    A pair's owner is the shard of its smaller id; the second return
    value counts *spanning* pairs whose two records live on different
    home shards (the pairs a real cluster shuffles across the wire).
    """
    buckets: list[list[tuple[str, str]]] = [[] for __ in range(n_shards)]
    spanning = 0
    # Each record id appears in many pairs; hashing it once instead of
    # once per pair keeps the coordinator's partitioning pass cheap.
    shard_of: dict[str, int] = {}
    for pair in ordered_pairs:
        owner = shard_of.get(pair[0])
        if owner is None:
            owner = shard_of[pair[0]] = shard_of_key(pair[0], n_shards)
        other = shard_of.get(pair[1])
        if other is None:
            other = shard_of[pair[1]] = shard_of_key(pair[1], n_shards)
        if other != owner:
            spanning += 1
        buckets[owner].append(pair)
    return buckets, spanning


@dataclass(frozen=True)
class _ShardTask:
    """One shard's matching workload (must stay picklable)."""

    shard: int
    pairs: tuple[tuple[str, str], ...]
    records: dict
    comparator: "object"
    classifier: "object"
    chunk_size: int
    representation: str
    resilience: "object | None"
    store_root: str | None
    store_prefix: str
    durable: bool


def _run_shard(task: _ShardTask, incarnation: int = 1) -> ShardResult:
    """Execute one shard's matching inside a worker.

    Runs the serial resilient engine over the shard's pre-sorted pairs,
    checkpointing into the shard's own store namespace, and returns a
    picklable :class:`ShardResult` (the worker-collection protocol: raw
    counters travel back and fold into the coordinator's tracer).
    ``incarnation`` is which launch of the shard this is; the fault
    injector is told, so chaos specs can target a restart.
    """
    tracer = Tracer()
    injector = getattr(task.resilience, "fault_injector", None)
    if hasattr(injector, "bind_shard"):
        injector.bind_shard(task.shard)
    if hasattr(injector, "bind_incarnation"):
        injector.bind_incarnation(incarnation)
    checkpoint = None
    if task.store_root is not None:
        checkpoint = RunStore(task.store_root, durable=task.durable).sub(
            task.store_prefix
        )
    engine = ParallelComparisonEngine(
        task.comparator,
        execution="serial",
        chunk_size=task.chunk_size,
        tracer=tracer,
        resilience=task.resilience,
        checkpoint=checkpoint,
        representation=task.representation,
    )
    started = time.perf_counter()
    run = engine.match_pairs(task.records, list(task.pairs), task.classifier)
    elapsed = time.perf_counter() - started
    local_ids = sorted({member for pair in run.match_pairs for member in pair})
    groups = connected_components(run.match_pairs, local_ids)
    counters = tracer.report().metrics["counters"]
    return ShardResult(
        shard=task.shard,
        n_pairs=run.n_pairs,
        n_chunks=run.n_chunks,
        completed_chunks=run.completed_chunks,
        replayed_chunks=run.replayed_chunks,
        n_early_exit=run.n_early_exit,
        elapsed=elapsed,
        match_pairs=tuple(
            sorted(tuple(sorted(pair)) for pair in run.match_pairs)
        ),
        scored_edges=tuple(run.scored_edges),
        local_groups=tuple(tuple(group) for group in groups),
        counters=tuple(sorted(counters.items())),
        quarantined_pairs=tuple(run.quarantined_pairs),
        dead_letters=run.dead_letters,
    )


@dataclass(frozen=True)
class _StoreBinding:
    """How the coordinator and its workers reach the checkpoint store."""

    base_view: "object | None" = None
    root_store: "object | None" = None
    store_root: str | None = None
    prefix: str = "dist"
    durable: bool = True


def _bind_store(checkpoint) -> _StoreBinding:
    """Normalize ``checkpoint`` (path / RunStore / StoreView / None)."""
    if checkpoint is None:
        return _StoreBinding()
    if isinstance(checkpoint, (str, os.PathLike)):
        checkpoint = RunStore(checkpoint)
    if isinstance(checkpoint, RunStore):
        root_store = checkpoint
    else:  # a StoreView — reach its backing store for the manifest.
        root_store = getattr(checkpoint, "_store", None)
    base_view = checkpoint.sub("dist")
    prefix = getattr(base_view, "_prefix", "dist.").rstrip(".")
    return _StoreBinding(
        base_view=base_view,
        root_store=root_store,
        store_root=(
            str(root_store.root) if root_store is not None else None
        ),
        prefix=prefix,
        durable=getattr(root_store, "_durable", True),
    )


def _pair_signature(pairs: Sequence[tuple[str, str]]) -> str:
    """Content fingerprint of one shard's canonical pair slice."""
    return hashlib.sha256(repr(list(pairs)).encode("utf-8")).hexdigest()


def _guard_layout(
    binding: _StoreBinding, n_shards: int, signatures: Sequence[str]
) -> None:
    """Record — and defend — the manifest's shard layout.

    A store that already holds a layout with a different shard count
    cannot be resumed: shard slices would no longer line up with the
    recorded per-shard checkpoints, so the run refuses loudly instead
    of silently recomputing or (worse) mixing slices.
    """
    if binding.base_view is None:
        return
    offered = config_fingerprint("dist.layout", n_shards)
    recorded = binding.base_view.load("layout")
    if recorded is not None and recorded.get("n_shards") != n_shards:
        raise CheckpointMismatchError(
            recorded.get("fingerprint", "<unknown>"),
            offered,
            binding.store_root or "<store>",
        )
    meta = binding.base_view.save(
        "layout",
        {
            "n_shards": n_shards,
            "fingerprint": offered,
            "shards": {
                str(shard): signature
                for shard, signature in enumerate(signatures)
            },
        },
    )
    if binding.root_store is not None:
        binding.root_store.mark_stage(
            "dist.layout", f"{binding.prefix}.layout", sha256=meta["sha256"]
        )


def _execute_shards(
    buckets: Sequence[Sequence[tuple[str, str]]],
    by_id: Mapping[str, Record],
    comparator,
    classifier,
    *,
    backend: str,
    chunk_size: int,
    representation: str,
    resilience,
    binding: _StoreBinding,
    signatures: Sequence[str],
    supervisor=None,
) -> list[ShardResult]:
    """Run (or resume) every shard and persist per-shard results."""
    results: dict[int, ShardResult] = {}
    pending: dict[int, _ShardTask] = {}
    for shard, pairs in enumerate(buckets):
        if binding.base_view is not None:
            prior = binding.base_view.load(f"shard.{shard}.result")
            if (
                prior is not None
                and prior.get("signature") == signatures[shard]
                and isinstance(prior.get("result"), ShardResult)
            ):
                results[shard] = replace(
                    prior["result"], resumed=True, replayed_chunks=0
                )
                continue
        needed = sorted({record_id for pair in pairs for record_id in pair})
        pending[shard] = _ShardTask(
            shard=shard,
            pairs=tuple(pairs),
            records={record_id: by_id[record_id] for record_id in needed},
            comparator=comparator,
            classifier=classifier,
            chunk_size=chunk_size,
            representation=representation,
            resilience=resilience,
            store_root=binding.store_root,
            store_prefix=f"{binding.prefix}.shard.{shard}.engine",
            durable=binding.durable,
        )

    def persist(shard: int, result: ShardResult) -> None:
        if binding.base_view is None:
            return
        meta = binding.base_view.save(
            f"shard.{shard}.result",
            {"signature": signatures[shard], "result": result},
        )
        if binding.root_store is not None:
            binding.root_store.mark_stage(
                f"dist.shard.{shard}",
                f"{binding.prefix}.shard.{shard}.result",
                sha256=meta["sha256"],
            )

    if supervisor is None:
        # Unsupervised is the same loop with no restart to spend; with
        # nobody to restart it, a lone shard is not worth a fork.
        supervisor = Supervisor(SupervisionPolicy(max_restarts=0))
        if len(pending) <= 1:
            backend = "inline"
    results.update(supervisor.execute(pending, persist, backend=backend))
    return [results[shard] for shard in sorted(results)]


def _merge_dead_letters(shards: Sequence[ShardResult]) -> DeadLetterLog:
    """Coordinator-level dead-letter log: shard entries in shard order.

    Entries were already durably appended (when a sink is configured)
    by the workers that produced them, so they re-attach here without
    re-appending.
    """
    merged = DeadLetterLog()
    for shard in shards:
        merged.restore(shard.dead_letters.entries)
    return merged


def _emit_shard_metrics(
    tracer, shards: Sequence[ShardResult], n_shards: int, spanning: int
) -> None:
    """The coordinator's ``dist.shard.*`` observability surface."""
    tracer.gauge("dist.shard.count").set(float(n_shards))
    pair_counts = [float(shard.n_pairs) for shard in shards]
    tracer.counter("dist.shard.pairs").inc(int(sum(pair_counts)))
    tracer.counter("dist.shard.spanning_pairs").inc(spanning)
    tracer.histogram("dist.shard.pair_count").observe_many(pair_counts)
    mean = sum(pair_counts) / len(pair_counts) if pair_counts else 0.0
    skew = max(pair_counts) / mean if mean else 1.0
    tracer.gauge("dist.shard.skew").set(skew)
    tracer.counter("dist.shard.resumed").inc(
        sum(1 for shard in shards if shard.resumed)
    )
    tracer.counter("dist.shard.replayed_chunks").inc(
        sum(shard.replayed_chunks for shard in shards)
    )
    for shard in shards:
        for name, value in shard.counters:
            tracer.counter(name).inc(int(value))


def sharded_resolve(
    records: Sequence[Record],
    blocker: Blocker,
    comparator,
    classifier,
    *,
    clustering: str = "components",
    candidate_pairs=None,
    n_shards: int | None = None,
    backend: str = "process",
    chunk_size: int = 2048,
    cost_model: ClusterCostModel | None = None,
    tracer=None,
    resilience=None,
    checkpoint=None,
    representation: str = "dict",
    supervisor=None,
) -> ShardedResolveRun:
    """Run the full linkage pipeline sharded across workers.

    Produces a :class:`~repro.linkage.resolver.LinkageResult` (in
    ``.result``) byte-identical to the serial
    :func:`~repro.linkage.resolve` over the same inputs, for every
    ``n_shards``, backend, and representation. See the module docstring
    for the four coordinated steps. ``candidate_pairs`` (unique pairs)
    replaces the blocker's output when given; ``n_shards=None`` lets
    :func:`plan_shards` choose from the cost model.
    """
    if backend not in SHARD_BACKENDS:
        raise ConfigurationError(
            f"unknown shard backend {backend!r}; expected one of "
            f"{SHARD_BACKENDS}"
        )
    tracer = tracer if tracer is not None else NULL_TRACER
    records = list(records)
    by_id = {record.record_id: record for record in records}
    with tracer.span("dist.sharded", backend=backend) as span:
        ordered = (
            _canonical_pairs(candidate_pairs)
            if candidate_pairs is not None
            else _block_pairs(blocker, records, tracer, "dist.block")
        )
        plan = plan_shards(len(ordered), model=cost_model, n_shards=n_shards)
        buckets, spanning = _partition_pairs(ordered, plan.n_shards)
        signatures = [_pair_signature(bucket) for bucket in buckets]
        binding = _bind_store(checkpoint)
        _guard_layout(binding, plan.n_shards, signatures)
        shards = _execute_shards(
            buckets,
            by_id,
            comparator,
            classifier,
            backend=backend,
            chunk_size=chunk_size,
            representation=representation,
            resilience=resilience,
            binding=binding,
            signatures=signatures,
            supervisor=supervisor,
        )
        _emit_shard_metrics(tracer, shards, plan.n_shards, spanning)
        match_pairs: set[frozenset[str]] = set()
        for shard in shards:
            match_pairs.update(frozenset(pair) for pair in shard.match_pairs)
        scored_edges = list(
            heapq.merge(*(shard.scored_edges for shard in shards))
        )
        all_ids = sorted(by_id)
        if clustering == "components":
            with tracer.span("dist.reconcile") as reconcile_span:
                union = UnionFind(all_ids)
                for shard in shards:
                    for group in shard.local_groups:
                        for member in group[1:]:
                            union.union(group[0], member)
                clusters = union.groups()
                reconcile_span.set("n_clusters", len(clusters))
        else:
            clusters = _cluster(
                clustering, match_pairs, scored_edges, all_ids, tracer
            )
        quarantined = tuple(
            itertools.chain.from_iterable(
                shard.quarantined_pairs for shard in shards
            )
        )
        result = LinkageResult(
            clusters=clusters,
            match_pairs=match_pairs,
            n_candidates=len(ordered),
            scored_edges=scored_edges,
            dead_letters=(
                _merge_dead_letters(shards) if resilience is not None else None
            ),
            quarantined_pairs=quarantined,
        )
        span.set("n_shards", plan.n_shards)
        span.set("n_candidates", len(ordered))
        span.set("n_resumed", sum(1 for shard in shards if shard.resumed))
    return ShardedResolveRun(
        result=result,
        plan=plan,
        shards=tuple(shards),
        n_shards=plan.n_shards,
        backend=backend,
        n_spanning_pairs=spanning,
        signatures=tuple(signatures),
    )
