"""The end-to-end big data integration pipeline.

:class:`BDIPipeline` runs the three classical stages over a dataset —
schema alignment, record linkage, data fusion — and materializes a
fused entity table. :meth:`BDIPipeline.evaluate` scores every stage
against ground truth, which is what the end-to-end experiment sweeps
the 4-V knobs over.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from dataclasses import dataclass, field, replace

import repro.fusion
from repro.core.dataset import Dataset
from repro.core.errors import ConfigurationError, GroundTruthError
from repro.fusion import ClaimSet, CRHNumericFuser
from repro.linkage import (
    ThresholdClassifier,
    TokenBlocker,
    connected_components,
    default_product_comparator,
    detect_identifier_attributes,
    fit_fellegi_sunter,
    link_by_identifier,
    resolve,
)
from repro.linkage.resolver import _engine
from repro.obs import (
    NULL_TRACER,
    Tracer,
    observe_supervisor,
    observe_text_caches,
)
from repro.outofcore import MemoryBudget
from repro.quality import (
    attribute_cluster_quality,
    bcubed_quality,
    pairwise_cluster_quality,
)
from repro.recovery import (
    as_store,
    config_fingerprint,
    dataset_fingerprint,
    spill_store as open_spill_store,
)
from repro.resilience import ResilienceConfig
from repro.schema import build_mediated_schema, profile_attributes
from repro.text import canonical_value, parse_measurement

__all__ = ["PipelineConfig", "PipelineResult", "PipelineReport", "BDIPipeline"]

#: ``PipelineConfig.fusion`` → the :mod:`repro.fusion` class it runs.
#: A pipeline loads the one it is configured with when it is built, so
#: :meth:`BDIPipeline.run` imports nothing.
FUSERS = {
    "vote": "VotingFuser",
    "truthfinder": "TruthFinder",
    "accuvote": "AccuVote",
    "accucopy": "AccuCopy",
}


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the end-to-end pipeline.

    ``fusion`` selects the fusion algorithm: ``"vote"``,
    ``"truthfinder"``, ``"accuvote"``, or ``"accucopy"``.
    ``classifier`` selects the match decision rule: ``"threshold"``
    (uses ``match_threshold``) or ``"fellegi-sunter"`` (fit
    unsupervised by EM on the candidate vectors; ``match_threshold``
    is then ignored). ``use_identifier_linkage`` additionally merges
    clusters via detected product identifiers (the
    redundancy-as-a-friend shortcut). ``numeric_fusion`` re-fuses data
    items whose claims are predominantly measurements through CRH
    numeric truth discovery — loss-aware aggregation instead of exact
    string voting (:meth:`repro.fusion.CRHNumericFuser.fuse`, in memory
    and under ``memory_budget`` alike). ``execution`` selects the
    pair-comparison backend
    (``"serial"`` or ``"process"``, see :mod:`repro.linkage.engine`)
    with ``n_workers`` processes when multiprocess; match output is
    identical either way. ``representation`` selects the engine's
    record layout: ``"dict"`` (default) scores prepared dict payloads
    pair by pair, ``"columnar"`` packs them into
    :mod:`repro.columnar` blocks and scores whole chunks through the
    vectorized batch kernels — bit-identical output, orthogonal to
    ``execution``. ``resilience`` (a
    :class:`repro.resilience.ResilienceConfig`, default off) makes the
    linkage stage fault-tolerant: failed comparison chunks are retried
    with backoff and, under ``failure="skip"``, quarantined into
    :attr:`PipelineResult.dead_letters` while the pipeline completes
    on the surviving pairs.

    ``execution="sharded"`` runs the linkage stage hash-partitioned
    across worker shards (:mod:`repro.dist.runtime`) — ``n_shards``
    pins the shard count (``None`` lets the cluster cost model plan
    it) and ``shard_backend`` picks ``"process"`` workers or the
    sequential ``"inline"`` backend; fusion runs at the coordinator
    through the same fusers as every other execution mode. Output
    stays byte-identical to the serial pipeline. Sharded execution
    requires the threshold classifier and does not compose with
    ``memory_budget``.

    ``supervision`` (a :class:`repro.supervision.SupervisionPolicy`,
    sharded execution only) makes the linkage stage self-healing: a
    :class:`repro.supervision.Supervisor` restarts shard workers that
    die or hang from their own checkpoints, within the policy's
    restart budget, with output unchanged.
    """

    schema_threshold: float = 0.6
    match_threshold: float = 0.7
    max_block_size: int = 60
    clustering: str = "components"
    classifier: str = "threshold"
    fusion: str = "accuvote"
    use_identifier_linkage: bool = True
    n_false_values: int = 8
    numeric_fusion: bool = False
    execution: str = "serial"
    n_workers: int | None = None
    representation: str = "dict"
    resilience: ResilienceConfig | None = None
    n_shards: int | None = None
    shard_backend: str = "process"
    supervision: "object | None" = None

    def __post_init__(self) -> None:
        if self.fusion not in FUSERS:
            raise ConfigurationError(f"unknown fusion {self.fusion!r}")
        if self.classifier not in {"threshold", "fellegi-sunter"}:
            raise ConfigurationError(
                f"unknown classifier {self.classifier!r}"
            )
        if self.execution not in {"serial", "process", "sharded"}:
            raise ConfigurationError(
                f"unknown execution mode {self.execution!r}"
            )
        if self.execution == "sharded" and self.classifier != "threshold":
            raise ConfigurationError(
                "execution='sharded' requires the threshold classifier"
            )
        if self.execution == "sharded":
            # The sharded runtime is loaded by the config that selects
            # it, so only such a config checks its backend.
            from repro.dist.runtime import SHARD_BACKENDS

            if self.shard_backend not in SHARD_BACKENDS:
                raise ConfigurationError(
                    f"unknown shard backend {self.shard_backend!r}"
                )
        if self.n_shards is not None and self.n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        if self.representation not in {"dict", "columnar"}:
            raise ConfigurationError(
                f"unknown representation {self.representation!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if self.supervision is not None:
            from repro.supervision import SupervisionPolicy

            if not isinstance(self.supervision, SupervisionPolicy):
                raise ConfigurationError(
                    "supervision must be a SupervisionPolicy or None"
                )
            if self.execution != "sharded":
                raise ConfigurationError(
                    "supervision requires execution='sharded'; other "
                    "modes have no shard workers to supervise"
                )
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceConfig
        ):
            raise ConfigurationError(
                "resilience must be a ResilienceConfig or None"
            )


@dataclass
class PipelineResult:
    """All artifacts of one pipeline run.

    ``clusters`` is the final record clustering (similarity linkage
    plus identifier joins); ``linkage`` holds the similarity-only
    result for inspection. ``dead_letters`` carries the quarantined
    comparison work when the run was configured with a
    :class:`repro.resilience.ResilienceConfig` (``None`` otherwise) —
    a run that survived worker failures still produces every artifact.
    """

    schema: "object"
    linkage: "object"
    claims: "object"
    fusion: "object"
    clusters: list[list[str]] = field(default_factory=list)
    entity_table: dict[str, dict[str, str]] = field(default_factory=dict)
    dead_letters: "object | None" = None


@dataclass(frozen=True)
class PipelineReport:
    """Per-stage quality of one run, scored against ground truth."""

    schema_f1: float
    linkage_pairwise_f1: float
    linkage_bcubed_f1: float
    fusion_accuracy: float
    n_clusters: int
    n_items: int


def _merge_partitions(partitions, all_ids) -> list[list[str]]:
    """The finest partition of ``all_ids`` that each of ``partitions``
    refines. Each cluster joins its members to its first one, so the
    cost is linear in the members, not in their pairs; the result
    equals the closure of every within-cluster pair because
    :meth:`repro.core.unionfind.UnionFind.groups` sorts its output, so
    the order of unions does not show."""
    return connected_components(
        (
            (cluster[0], member)
            for partition in partitions
            for cluster in partition
            for member in cluster[1:]
        ),
        all_ids,
    )


class BDIPipeline:
    """Schema alignment → record linkage → data fusion."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self._config = config or PipelineConfig()
        self._fuser = getattr(repro.fusion, FUSERS[self._config.fusion])

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration."""
        return self._config

    def _open_store(self, checkpoint, dataset: Dataset, tracer):
        """Resolve ``checkpoint`` into a fingerprint-bound RunStore.

        Accepts a directory path or an existing
        :class:`repro.recovery.RunStore`. The store is claimed for this
        exact (config, dataset) pair; a store holding another run's
        checkpoints is refused with
        :class:`repro.recovery.CheckpointMismatchError` rather than
        silently mixing artifacts.
        """
        if checkpoint is None:
            return None
        store = as_store(checkpoint)
        store.tracer = tracer
        store.bind_fingerprint(
            config_fingerprint(
                self._config, dataset_fingerprint(dataset)
            )
        )
        return store

    @staticmethod
    def _stage(store, stage: str, compute, span=None):
        """Run one pipeline stage through the checkpoint ledger.

        A stage already in the manifest's ledger is replayed from its
        artifact (a damaged artifact falls through to recomputation);
        a computed stage is durably saved and marked complete before
        the pipeline moves on.
        """
        if store is None:
            return compute()
        key = f"stage.{stage}"
        if stage in store.completed_stages():
            value = store.load(key)
            if value is not None:
                store.tracer.counter("recovery.stages_skipped").inc()
                if span is not None:
                    span.set("resumed", True)
                return value
        value = compute()
        meta = store.save(key, value)
        store.mark_stage(stage, key, meta["sha256"])
        return value

    def run(
        self,
        dataset: Dataset,
        tracer=None,
        checkpoint=None,
        memory_budget: int | None = None,
        spill_dir=None,
    ) -> PipelineResult:
        """Execute the full pipeline over ``dataset``.

        ``tracer`` (an :class:`repro.obs.Tracer`, default no-op)
        records one span per stage — schema alignment, record linkage
        (with the engine's comparison counters nested inside), claim
        extraction, fusion (TruthFinder, AccuVote and AccuCopy nest a
        solver span with per-iteration convergence deltas),
        entity-table materialization — plus the text-layer cache
        gauges. Call ``tracer.report()`` afterwards for the structured
        run artifact, or use :meth:`run_instrumented`.

        ``checkpoint`` (a directory path or a
        :class:`repro.recovery.RunStore`, default off) makes the run
        crash-resumable: every completed stage is durably recorded in
        the store's stage ledger and skipped on a rerun, and the
        stages with internal loops — comparison chunks in linkage,
        Fellegi-Sunter EM, TruthFinder, AccuVote and AccuCopy
        iterations — checkpoint *within* the stage, so a killed run
        resumes from its last completed unit of work with results
        identical to an uninterrupted run (voting resumes by stage; so
        do TruthFinder and AccuVote under ``memory_budget``). The store
        is bound to a fingerprint of this exact config and dataset;
        resuming under a different one raises
        :class:`repro.recovery.CheckpointMismatchError`.

        ``memory_budget`` (estimated bytes, default off) runs the
        pipeline out of core: blocking indexes, candidate pairs, and
        grouped claims spill to sorted runs under ``spill_dir`` (a
        directory, a :class:`repro.recovery.RunStore`, or ``None`` for
        a temporary directory) whenever tracked resident bytes would
        exceed the budget, and linkage plus fusion consume the spilled
        streams. Output is byte-identical to the unbounded run;
        :attr:`PipelineResult.claims` then carries a
        :class:`repro.outofcore.ClaimStreamSummary` instead of the full
        claim set. Requires the ``threshold`` classifier and refuses
        ``accucopy`` fusion: voting, AccuVote, TruthFinder and the CRH
        of ``numeric_fusion`` read one item's claims at a time and run
        on the spilled groups unchanged,
        AccuCopy's copy detector indexes every source's claims in memory
        to compare source pairs across items.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        config = self._config
        records = list(dataset.records())
        store = self._open_store(checkpoint, dataset, tracer)

        budget = spill_store = None
        if memory_budget is not None:
            if config.execution == "sharded":
                raise ConfigurationError(
                    "memory_budget does not compose with "
                    "execution='sharded'; shards already bound memory "
                    "by partitioning"
                )
            if config.classifier != "threshold":
                raise ConfigurationError(
                    "memory_budget requires the threshold classifier"
                )
            if config.fusion == "accucopy":
                from repro.fusion.accucopy import SPILLED_CLAIMS_REFUSED

                raise ConfigurationError(SPILLED_CLAIMS_REFUSED)
            from repro.outofcore import SpillableClaimGroups

            budget = MemoryBudget(memory_budget, tracer=tracer)

        def sub(prefix: str):
            """An intra-stage checkpoint namespace (None when off)."""
            return store.sub(prefix) if store is not None else None

        with contextlib.ExitStack() as cleanup, tracer.span(
            "pipeline.run",
            n_records=len(records),
            n_sources=len(dataset),
            execution=config.execution,
            resumable=store is not None,
        ) as run_span:
            if budget is not None:
                spill_store = open_spill_store(spill_dir, cleanup)

            # Schema alignment and identifier linkage read the same
            # attribute profiles: built on first use, so a resumed run
            # that replays both stages from its checkpoint never
            # profiles, and let go once linkage is done.
            profiles = functools.cache(lambda: profile_attributes(dataset))

            # 1. Schema alignment.
            with tracer.span("pipeline.schema_alignment") as span:
                schema = self._stage(
                    store,
                    "schema",
                    lambda: build_mediated_schema(
                        dataset,
                        threshold=config.schema_threshold,
                        profiles=profiles(),
                        tracer=tracer,
                    ),
                    span,
                )
                span.set("n_attribute_clusters", len(schema.clusters()))

            # 2. Record linkage: similarity-based, optionally fortified
            #    by identifier joins (both feed one transitive closure).
            with tracer.span(
                "pipeline.record_linkage", classifier=config.classifier
            ) as span:
                # Outside the stage: the run report reads its memos even
                # when a resumed run restores the stage.
                comparator = default_product_comparator()

                def compute_linkage():
                    blocker = TokenBlocker(
                        max_block_size=config.max_block_size
                    )
                    if config.classifier == "fellegi-sunter":
                        candidates = blocker.block(records).ordered_pairs()
                        pair_engine = _engine(
                            comparator,
                            config.execution,
                            config.n_workers,
                            tracer,
                            config.resilience,
                            sub("linkage.vectors"),
                            config.representation,
                        )
                        vectors = pair_engine.compare_pairs(
                            records, candidates
                        )
                        classifier: object = fit_fellegi_sunter(
                            vectors,
                            agreement_threshold=0.8,
                            tracer=tracer,
                            checkpoint=sub("linkage.em"),
                        )
                    else:
                        candidates = None
                        classifier = ThresholdClassifier(
                            config.match_threshold
                        )
                    supervisor = None
                    if config.supervision is not None:
                        from repro.supervision import Supervisor

                        supervisor = Supervisor(
                            config.supervision, tracer=tracer
                        )
                    linkage = resolve(
                        records,
                        blocker,
                        comparator,
                        classifier,  # type: ignore[arg-type]
                        clustering=config.clustering,  # type: ignore[arg-type]
                        candidate_pairs=candidates,
                        execution=config.execution,  # type: ignore[arg-type]
                        n_workers=config.n_workers,
                        tracer=tracer,
                        resilience=config.resilience,
                        checkpoint=sub("linkage.engine"),
                        representation=config.representation,  # type: ignore[arg-type]
                        memory_budget=budget,
                        spill_dir=(
                            spill_store.sub("linkage")
                            if spill_store is not None
                            else None
                        ),
                        n_shards=config.n_shards,
                        shard_backend=config.shard_backend,
                        supervisor=supervisor,
                    )
                    if supervisor is not None:
                        observe_supervisor(tracer, supervisor)
                    clusters = linkage.clusters
                    if config.use_identifier_linkage:
                        with tracer.span(
                            "pipeline.identifier_linkage"
                        ) as id_span:
                            detections = detect_identifier_attributes(
                                profiles()
                            )
                            identifier_clusters = link_by_identifier(
                                records, detections
                            )
                            clusters = _merge_partitions(
                                (clusters, identifier_clusters),
                                [record.record_id for record in records],
                            )
                            id_span.set(
                                "n_identifiers", len(detections)
                            )
                            id_span.set("n_clusters", len(clusters))
                    return linkage, clusters

                linkage, clusters = self._stage(
                    store, "linkage", compute_linkage, span
                )
                span.set("n_candidates", linkage.n_candidates)
                span.set("n_similarity_clusters", len(linkage.clusters))
                if config.resilience is not None:
                    span.set("n_quarantined", linkage.n_quarantined)
                span.set("n_clusters", len(clusters))
                tracer.counter("pipeline.clusters").inc(len(clusters))
            profiles.cache_clear()

            # 3. Claims: one claim per (source, cluster, mediated
            #    attribute), values canonicalized so format variants
            #    agree. A memory-bounded run spills the grouped claims
            #    instead of materializing a ClaimSet; the fusers read
            #    either through the same four calls.
            cluster_of: dict[str, str] = {}
            for cluster in clusters:
                cluster_id = min(cluster)
                for record_id in cluster:
                    cluster_of[record_id] = cluster_id
            streaming = {"streaming": True} if budget is not None else {}

            with tracer.span("pipeline.claims", **streaming) as span:

                def compute_claims():
                    # A source's first claim on an item wins: the claim
                    # set refuses later ones as they are offered, the
                    # spilled groups drop them as they stream out.
                    if budget is None:
                        claims = ClaimSet()
                        offer = claims.offer
                    else:
                        claims = SpillableClaimGroups(
                            spill_store.sub("claims"), budget
                        )
                        offer = claims.add
                    # One canonical form per distinct raw value, kept for
                    # the stage. The budget does not count these forms:
                    # one string per distinct value of ``records``.
                    canonical: dict[str, str] = {}
                    for record in records:
                        source_id = record.source_id
                        cluster_id = cluster_of[record.record_id]
                        translated = schema.translate(record)
                        for attribute, value in translated.items():
                            form = canonical.get(value)
                            if form is None:
                                form = canonical_value(value)
                                canonical[value] = form
                            offer(
                                source_id, f"{cluster_id}::{attribute}", form
                            )
                    return claims

                # Spilled groups are rebuilt, not replayed: a ledger
                # artifact would be the very thing that does not fit.
                ledger = store if budget is None else None
                claim_set = self._stage(ledger, "claims", compute_claims, span)
                if budget is None:
                    # Spilled claims are counted as fusion streams them.
                    span.set("n_claims", len(claim_set))
                span.set("n_items", len(claim_set.items()))

            # 4. Fusion, by the fuser the config selects: a solver is
            #    wired to the tracer and to its iteration checkpoint when
            #    resumable (a solver signs its claims by hashing them in
            #    memory, so not when spilled).
            with tracer.span(
                "pipeline.fusion", algorithm=config.fusion, **streaming
            ) as span:

                def compute_fusion():
                    solver = sub("fusion.solver") if budget is None else None
                    options = {}
                    if config.fusion != "vote":
                        options = {"tracer": tracer, "checkpoint": solver}
                    if config.fusion in {"accuvote", "accucopy"}:
                        options["n_false_values"] = config.n_false_values
                    fusion = self._fuser(**options).fuse(claim_set)
                    if config.numeric_fusion:
                        numeric = CRHNumericFuser().fuse(claim_set).chosen
                        fusion = replace(
                            fusion, chosen={**fusion.chosen, **numeric}
                        )
                    return fusion

                fusion = self._stage(store, "fusion", compute_fusion, span)
                span.set("iterations", fusion.iterations)
            if budget is not None:
                # Counted before the release drops the resident runs: a
                # resumed run replays fusion and has not counted them yet.
                summary = claim_set.summary()
                claim_set.release()
                claim_set = summary

            # 5. Entity table.
            with tracer.span("pipeline.entity_table") as span:

                def compute_entity_table():
                    entity_table: dict[str, dict[str, str]] = {}
                    for item_id, value in fusion.chosen.items():
                        cluster_id, __, attribute = item_id.partition(
                            "::"
                        )
                        entity_table.setdefault(cluster_id, {})[
                            attribute
                        ] = value
                    return entity_table

                entity_table = self._stage(
                    store, "entity_table", compute_entity_table, span
                )
                span.set("n_entities", len(entity_table))

            tracer.counter("pipeline.records").inc(len(records))
            run_span.set("n_clusters", len(clusters))
            observe_text_caches(tracer, comparator)
            if budget is not None:
                budget.publish()
                run_span.set("peak_tracked_bytes", budget.peak)
                run_span.set("spill_count", budget.spill_count)
            if store is not None:
                store.mark_complete()

        return PipelineResult(
            schema=schema,
            linkage=linkage,
            claims=claim_set,
            fusion=fusion,
            clusters=clusters,
            entity_table=entity_table,
            dead_letters=linkage.dead_letters,
        )

    def run_instrumented(
        self, dataset: Dataset, clock=None
    ) -> "tuple[PipelineResult, object]":
        """Run with a fresh :class:`repro.obs.Tracer` and report both.

        Returns ``(result, run_report)`` where the report is the
        structured :class:`repro.obs.RunReport` artifact — the
        one-call form benchmarks and CI use.
        """
        tracer = Tracer(clock=clock)
        result = self.run(dataset, tracer=tracer)
        return result, tracer.report(name="pipeline")

    @staticmethod
    def _values_agree(fused: str, true_canonical: str) -> bool:
        """Exact match, with 2% relative tolerance for measurements.

        Numeric fusion outputs aggregates ("841.2 g" for a true
        "840 g"); demanding byte equality would punish strictly better
        answers, so same-unit measurements within 2% count as correct
        for every fusion path.
        """
        if fused == true_canonical:
            return True

        fused_m = parse_measurement(fused.replace(",", "."))
        true_m = parse_measurement(true_canonical.replace(",", "."))
        if fused_m is None or true_m is None:
            return False
        fused_base = fused_m.in_base_unit()
        true_base = true_m.in_base_unit()
        if fused_base.unit != true_base.unit:
            return False
        scale = max(abs(true_base.value), 1e-9)
        return abs(fused_base.value - true_base.value) / scale <= 0.02

    def evaluate(
        self, dataset: Dataset, result: PipelineResult
    ) -> PipelineReport:
        """Score a run's stages against the dataset's ground truth."""
        truth = dataset.ground_truth
        if truth is None:
            raise GroundTruthError("evaluation requires ground truth")
        schema_quality = attribute_cluster_quality(
            result.schema.clusters(), dataset  # type: ignore[attr-defined]
        )
        clusters = result.clusters
        pairwise = pairwise_cluster_quality(clusters, truth)
        bcubed = bcubed_quality(clusters, truth)

        # Fusion: attribute each cluster to its majority entity, then
        # check fused values against canonical truths.
        correct = 0
        scored = 0
        entity_of_cluster: dict[str, str] = {}
        members: dict[str, list[str]] = {}
        for cluster in clusters:
            cluster_id = min(cluster)
            members[cluster_id] = list(cluster)
        for cluster_id, cluster_members in members.items():
            entities = Counter(
                truth.entity_of(record_id) for record_id in cluster_members
            )
            entity_of_cluster[cluster_id] = entities.most_common(1)[0][0]
        for item_id, value in result.fusion.chosen.items():  # type: ignore[attr-defined]
            cluster_id, __, attribute = item_id.partition("::")
            entity = entity_of_cluster.get(cluster_id)
            if entity is None:
                continue
            true_value = truth.true_value(entity, attribute)
            if true_value is None:
                continue
            scored += 1
            if self._values_agree(value, canonical_value(true_value)):
                correct += 1
        fusion_accuracy = correct / scored if scored else 0.0
        return PipelineReport(
            schema_f1=schema_quality.f1,
            linkage_pairwise_f1=pairwise.f1,
            linkage_bcubed_f1=bcubed.f1,
            fusion_accuracy=fusion_accuracy,
            n_clusters=len(clusters),
            n_items=scored,
        )
