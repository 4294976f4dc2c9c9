"""Acceptance tests for the sharded pipeline runtime (repro.dist.runtime).

The contract under test is *byte-identity*: for every blocker, corpus
shape, shard count, backend, and record representation,
:func:`repro.dist.sharded_resolve` must reproduce the serial
:func:`repro.linkage.resolve` output exactly — same match pairs, same
scored edges in the same order, same clusters, same candidate count.
The differential harness below sweeps that matrix on three corpus
shapes (uniform synthetic, skewed with one hot block, adversarial with
clusters engineered to span shard boundaries).

The chaos matrix mirrors the PR 3 acceptance matrix
(``tests/test_resilience.py``) with faults targeted at a *single
shard* via ``FaultSpec(shard=...)``: ``"retry"`` reproduces the
fault-free output, ``"skip"`` quarantines only the poisoned pair into
the coordinator's merged dead-letter log, ``"fail"`` raises — and a
fault bound to shard *s* never fires on any other shard (or in an
unsharded engine, which never binds a shard id).

Mid-run process-kill + single-shard resume lives in
``tests/test_kill_resume.py`` (property-based, via the ``sharded``
scenario of ``tests/kill_driver.py``). That the shards divide the work is held
here by pair counts (``TestPartitioning``); what the division is worth
in seconds is the ledger's ``dist.sharded2_speedup`` on ``batch_link``.
"""

import functools
from pathlib import Path

import pytest

from repro.core import ConfigurationError, Record
from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.dist import (
    ClusterCostModel,
    plan_shards,
    shard_of_key,
    sharded_resolve,
)
from repro.dist.runtime import _partition_pairs
from repro.linkage import ThresholdClassifier, resolve
from repro.linkage.blocking.base import Blocker
from repro.linkage.blocking.keys import first_token_key
from repro.linkage.blocking.standard import StandardBlocker
from repro.linkage.blocking.token import TokenBlocker
from repro.linkage.comparison import default_product_comparator
from repro.linkage.resolver import _canonical_pairs
from repro.obs import Tracer
from repro.recovery import CheckpointMismatchError, RunStore
from repro.resilience import ChunkExecutionError
from repro.resilience.testing import crash
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro import FourVKnobs, build_corpus
from tests.test_resilience import (
    _comparator as _chaos_comparator,
    _engine as _serial_engine,
)

# --- corpus zoo --------------------------------------------------------
#
# Three shapes that stress different parts of the sharded path:
#
# ``uniform``     synthetic camera corpus — realistic dirty strings,
#                 block sizes roughly even across shards.
# ``skewed``      one hot token shared by most records: a single huge
#                 block whose pairs pile onto few owner shards, plus a
#                 tail of tiny blocks.
# ``adversarial`` match chains engineered to cross shard boundaries
#                 (r0~r1 and r1~r2 matched through *different* blocks),
#                 singletons, and a record matching nothing — the
#                 cases where per-shard clustering alone would be
#                 wrong without boundary reconciliation.


def _uniform_corpus():
    world = generate_world(
        WorldConfig(categories=("camera",), entities_per_category=12, seed=7)
    )
    dataset = generate_dataset(world, CorpusConfig(n_sources=4, seed=8))
    records = tuple(dataset.records())
    return records, default_product_comparator(), ThresholdClassifier(0.72)


def _skewed_corpus():
    records = []
    # One hot block: 14 records whose name starts with the same token,
    # two per entity so half the hot pairs are true matches.
    for i in range(14):
        records.append(
            Record(
                f"h{i}",
                f"s{i % 3}",
                {"name": f"acme widget {i // 2}", "brand": "acme"},
            )
        )
    # A tail of small distinct blocks (one true match each).
    for i in range(4):
        for copy in range(2):
            records.append(
                Record(
                    f"t{i}{copy}",
                    f"s{copy}",
                    {"name": f"gadget{i} rev", "brand": f"b{i}"},
                )
            )
    return tuple(records), _chaos_comparator(), ThresholdClassifier(0.9)


def _adversarial_corpus():
    records = [
        # A 3-record cluster: its three pairs have different smaller
        # ids, so at n_shards>1 the cluster's matches land on different
        # owner shards and only boundary reconciliation can reassemble
        # it. TokenBlocker additionally links c2~c3 through the shared
        # "beta" token block (compared but non-matching — different
        # name), a block that straddles both clusters.
        Record("c0", "s0", {"name": "alpha beta", "brand": "x"}),
        Record("c1", "s1", {"name": "alpha beta", "brand": "x"}),
        Record("c2", "s2", {"name": "alpha beta", "brand": "x"}),
        Record("c3", "s1", {"name": "beta gamma", "brand": "x"}),
        Record("c4", "s0", {"name": "beta gamma", "brand": "x"}),
        # Singleton block (never compared).
        Record("lone", "s0", {"name": "unique thing", "brand": "z"}),
        # Same block, never a match (different name/brand weights).
        Record("n0", "s0", {"name": "delta one", "brand": "p"}),
        Record("n1", "s1", {"name": "delta two", "brand": "q"}),
        # Ids chosen to spread over hash space unevenly.
        Record("zz9", "s0", {"name": "omega item", "brand": "y"}),
        Record("zz10", "s1", {"name": "omega item", "brand": "y"}),
    ]
    return tuple(records), _chaos_comparator(), ThresholdClassifier(0.9)


CORPORA = {
    "uniform": _uniform_corpus,
    "skewed": _skewed_corpus,
    "adversarial": _adversarial_corpus,
}

BLOCKERS = {
    "standard": lambda: StandardBlocker(
        first_token_key("name", aliases=("item name",))
    ),
    "token": lambda: TokenBlocker(max_block_size=40),
}


@functools.lru_cache(maxsize=None)
def _corpus(name):
    return CORPORA[name]()


@functools.lru_cache(maxsize=None)
def _serial(corpus_name, blocker_name, clustering="components"):
    records, comparator, classifier = _corpus(corpus_name)
    return resolve(
        list(records),
        BLOCKERS[blocker_name](),
        comparator,
        classifier,
        clustering=clustering,
    )


def assert_identical(serial, run):
    """The byte-identity contract, field by field."""
    result = run.result
    assert result.match_pairs == serial.match_pairs
    assert result.scored_edges == serial.scored_edges
    assert result.clusters == serial.clusters
    assert result.n_candidates == serial.n_candidates


class _OpaqueBlocker(Blocker):
    """A blocker that only has ``block()`` — not a ``KeyBlocker``."""

    def block(self, records):
        return BLOCKERS["standard"]().block(records)


class TestDifferentialIdentity:
    @pytest.mark.parametrize("corpus_name", sorted(CORPORA))
    @pytest.mark.parametrize("blocker_name", sorted(BLOCKERS))
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 8])
    def test_inline_identity(self, corpus_name, blocker_name, n_shards):
        records, comparator, classifier = _corpus(corpus_name)
        run = sharded_resolve(
            list(records),
            BLOCKERS[blocker_name](),
            comparator,
            classifier,
            n_shards=n_shards,
            backend="inline",
        )
        assert run.n_shards == n_shards
        assert_identical(_serial(corpus_name, blocker_name), run)

    @pytest.mark.parametrize("corpus_name", sorted(CORPORA))
    @pytest.mark.parametrize("blocker_name", sorted(BLOCKERS))
    def test_columnar_identity(self, corpus_name, blocker_name):
        records, comparator, classifier = _corpus(corpus_name)
        run = sharded_resolve(
            list(records),
            BLOCKERS[blocker_name](),
            comparator,
            classifier,
            n_shards=3,
            backend="inline",
            representation="columnar",
        )
        assert_identical(_serial(corpus_name, blocker_name), run)

    def test_shuffle_path_taken_for_decomposable_blocker(self):
        records, comparator, classifier = _corpus("uniform")
        tracer = Tracer()
        run = sharded_resolve(
            list(records),
            TokenBlocker(max_block_size=40),
            comparator,
            classifier,
            n_shards=3,
            backend="inline",
            tracer=tracer,
        )
        counters = tracer.report().metrics["counters"]
        assert counters["blocking.blocks_built"] > 0
        assert_identical(_serial("uniform", "token"), run)

    def test_opaque_blocker_blocks_at_coordinator(self):
        records, comparator, classifier = _corpus("adversarial")
        blocker = _OpaqueBlocker()
        tracer = Tracer()
        run = sharded_resolve(
            list(records),
            blocker,
            comparator,
            classifier,
            n_shards=3,
            backend="inline",
            tracer=tracer,
        )
        counters = tracer.report().metrics["counters"]
        assert counters["blocking.blocks_built"] > 0
        assert_identical(_serial("adversarial", "standard"), run)

    def test_blocking_metrics_equal_across_execution_modes(self):
        # However a run executes, it blocks the same records into the
        # same blocks and must say so in the same three instruments.
        records, comparator, classifier = _corpus("uniform")

        def blocking_metrics(**options):
            tracer = Tracer()
            resolve(
                list(records),
                TokenBlocker(max_block_size=40),
                comparator,
                classifier,
                tracer=tracer,
                **options,
            )
            metrics = tracer.report().metrics
            return (
                metrics["counters"].get("blocking.blocks_built"),
                metrics["counters"].get("blocking.comparisons"),
                metrics["histograms"].get("blocking.block_size"),
            )

        serial = blocking_metrics()
        assert serial[0] > 0 and serial[1] > 0 and serial[2]["count"] > 0
        sharded = {"execution": "sharded", "shard_backend": "inline"}
        assert blocking_metrics(memory_budget=48 * 1024) == serial
        assert blocking_metrics(**sharded) == serial
        assert blocking_metrics(**sharded, n_shards=3) == serial

    def test_candidate_pairs_override(self):
        records, comparator, classifier = _corpus("skewed")
        pairs = (
            BLOCKERS["standard"]()
            .block(list(records))
            .candidate_pairs()
        )
        serial = resolve(
            list(records), _OpaqueBlocker(), comparator, classifier,
            candidate_pairs=pairs,
        )
        run = sharded_resolve(
            list(records), _OpaqueBlocker(), comparator, classifier,
            candidate_pairs=pairs, n_shards=4, backend="inline",
        )
        assert_identical(serial, run)

    @pytest.mark.parametrize("clustering", ["center", "merge-center"])
    def test_clustering_variants(self, clustering):
        records, comparator, classifier = _corpus("uniform")
        run = sharded_resolve(
            list(records),
            BLOCKERS["standard"](),
            comparator,
            classifier,
            clustering=clustering,
            n_shards=3,
            backend="inline",
        )
        assert_identical(_serial("uniform", "standard", clustering), run)

    def test_auto_planned_shard_count(self):
        records, comparator, classifier = _corpus("uniform")
        run = sharded_resolve(
            list(records),
            BLOCKERS["standard"](),
            comparator,
            classifier,
            backend="inline",
        )
        assert not run.plan.pinned
        assert run.n_shards == run.plan.n_shards >= 1
        assert_identical(_serial("uniform", "standard"), run)

    def test_resolve_entry_point(self):
        records, comparator, classifier = _corpus("adversarial")
        via_resolve = resolve(
            list(records),
            BLOCKERS["standard"](),
            comparator,
            classifier,
            execution="sharded",
            n_shards=3,
            shard_backend="inline",
        )
        serial = _serial("adversarial", "standard")
        assert via_resolve.match_pairs == serial.match_pairs
        assert via_resolve.scored_edges == serial.scored_edges
        assert via_resolve.clusters == serial.clusters

    def test_sharded_rejects_memory_budget(self):
        records, comparator, classifier = _corpus("adversarial")
        with pytest.raises(ConfigurationError):
            resolve(
                list(records),
                BLOCKERS["standard"](),
                comparator,
                classifier,
                execution="sharded",
                n_shards=2,
                memory_budget=1 << 20,
            )

    def test_unknown_backend_rejected(self):
        records, comparator, classifier = _corpus("adversarial")
        with pytest.raises(ConfigurationError):
            sharded_resolve(
                list(records),
                BLOCKERS["standard"](),
                comparator,
                classifier,
                n_shards=2,
                backend="threads",
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("corpus_name", ["uniform", "adversarial"])
    def test_process_backend_identity(self, corpus_name):
        records, comparator, classifier = _corpus(corpus_name)
        run = sharded_resolve(
            list(records),
            TokenBlocker(max_block_size=40),
            comparator,
            classifier,
            n_shards=3,
            backend="process",
        )
        assert run.backend == "process"
        assert_identical(_serial(corpus_name, "token"), run)


class TestPartitioning:
    def test_buckets_are_disjoint_owner_sorted_slices(self):
        records, __, __ = _corpus("skewed")
        pairs = (
            TokenBlocker(max_block_size=40)
            .block(list(records))
            .candidate_pairs()
        )
        ordered = _canonical_pairs(pairs)
        buckets, spanning = _partition_pairs(ordered, 3)
        for shard, bucket in enumerate(buckets):
            assert bucket == sorted(bucket)
            assert all(shard_of_key(p[0], 3) == shard for p in bucket)
        assert sorted(p for b in buckets for p in b) == ordered
        assert spanning == sum(
            1 for a, b in ordered
            if shard_of_key(a, 3) != shard_of_key(b, 3)
        )

    def test_spanning_pairs_counted_on_run(self):
        records, comparator, classifier = _corpus("skewed")
        run = sharded_resolve(
            list(records),
            BLOCKERS["standard"](),
            comparator,
            classifier,
            n_shards=3,
            backend="inline",
        )
        assert run.n_spanning_pairs >= 0
        assert run.n_spanning_pairs <= run.result.n_candidates

    @pytest.mark.parametrize("n_entities,n_sources", [(20, 6), (60, 12)])
    def test_shards_divide_the_standard_corpus_evenly(
        self, n_entities, n_sources
    ):
        """Hashing pairs to the home shard of their smaller id spreads
        the benchmarks' standard corpus: the fullest of 4 shards holds
        at most 1.25x an even share (1.080 and 1.015 as measured)."""
        with pytest.MonkeyPatch.context() as patch:
            patch.syspath_prepend(
                str(Path(__file__).resolve().parents[1] / "benchmarks")
            )
            from bench_common import linkage_corpus
        run = sharded_resolve(
            list(linkage_corpus(n_entities, n_sources).records()),
            TokenBlocker(max_block_size=60),
            default_product_comparator(),
            ThresholdClassifier(0.7),
            n_shards=4,
            backend="inline",
        )
        counts = [shard.n_pairs for shard in run.shards]
        assert sum(counts) == run.result.n_candidates > 0
        assert max(counts) <= 1.25 * sum(counts) / len(counts)


class TestPlanning:
    MODEL = ClusterCostModel()

    def test_tiny_workload_stays_single_shard(self):
        plan = plan_shards(10)
        assert plan.n_shards == 1
        assert not plan.pinned

    def test_large_workload_goes_wide(self):
        plan = plan_shards(100_000)
        assert plan.n_shards > 1
        # The chosen candidate really is the argmin.
        assert plan.predicted_cost == min(c for __, c in plan.candidates)

    def test_pinned_plan_prices_the_choice(self):
        plan = plan_shards(100, n_shards=5)
        assert plan.pinned and plan.n_shards == 5
        predicted = (
            self.MODEL.startup + self.MODEL.task_overhead * 5
            + self.MODEL.comparison_cost * 20
        )
        assert plan.predicted_cost == predicted

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_shards(10, n_shards=0)


class TestCheckpointing:
    def _run(self, root, n_shards=3, corpus_name="uniform"):
        records, comparator, classifier = _corpus(corpus_name)
        return sharded_resolve(
            list(records),
            BLOCKERS["standard"](),
            comparator,
            classifier,
            n_shards=n_shards,
            backend="inline",
            checkpoint=root,
        )

    def test_second_run_reuses_every_shard(self, tmp_path):
        root = str(tmp_path / "store")
        first = self._run(root)
        assert first.n_resumed == 0
        second = self._run(root)
        assert second.n_resumed == 3
        assert second.replayed_chunks == 0
        assert_identical(_serial("uniform", "standard"), second)

    def test_changed_shard_count_raises(self, tmp_path):
        root = str(tmp_path / "store")
        self._run(root, n_shards=3)
        with pytest.raises(CheckpointMismatchError):
            self._run(root, n_shards=4)

    def test_changed_workload_reruns_affected_shards(self, tmp_path):
        root = str(tmp_path / "store")
        self._run(root, corpus_name="uniform")
        records, comparator, classifier = _corpus("uniform")
        # A new record joins an existing block: the owning shard's pair
        # signature changes, so that shard re-runs while untouched
        # shards resume from their artifacts.
        extra = list(records) + [
            Record("extra0", "s9", dict(records[0].attributes))
        ]
        serial = resolve(
            extra, BLOCKERS["standard"](),
            comparator, classifier,
        )
        run = sharded_resolve(
            extra,
            BLOCKERS["standard"](),
            comparator,
            classifier,
            n_shards=3,
            backend="inline",
            checkpoint=root,
        )
        assert run.n_resumed < 3
        assert_identical(serial, run)

    def test_manifest_records_layout_and_shard_stages(self, tmp_path):
        root = str(tmp_path / "store")
        self._run(root)
        store = RunStore(root)
        assert store.sub("dist").fingerprint is not None  # the layout
        stages = store.completed_stages()
        for shard in range(3):
            assert f"dist.shard.{shard}" in stages


# --- chaos matrix ------------------------------------------------------
#
# The PR 3 acceptance matrix (fail / retry / skip), re-run with the
# fault targeted at a single shard. Workload: the resilience suite's
# 8-record corpus, all 28 pairs passed explicitly, chunk_size=7. With
# n_shards=2 the canonical pair list splits by owner shard and every
# shard cuts its own chunks, so ``crash(chunk=0, shard=s)`` poisons
# exactly one shard's first chunk.

CHAOS_CLASSIFIER = ThresholdClassifier(0.9)


def _chaos_workload():
    records = [
        Record(
            f"r{i}", f"s{i % 2}",
            {"name": f"item {i // 2}", "brand": "acme"},
        )
        for i in range(8)
    ]
    ids = [record.record_id for record in records]
    pairs = [
        (ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    ]
    return records, pairs


def _chaos_baseline(records, pairs):
    return _serial_engine().match_pairs(records, pairs, CHAOS_CLASSIFIER)


def _sharded(records, pairs, n_shards=2, resilience=None, tracer=None):
    return sharded_resolve(
        records,
        None,
        _chaos_comparator(),
        CHAOS_CLASSIFIER,
        candidate_pairs=pairs,
        n_shards=n_shards,
        backend="inline",
        chunk_size=7,
        resilience=resilience,
        tracer=tracer,
    )


class TestChaosMatrix:
    def test_retry_on_one_shard_recovers_identically(
        self, resilience_config, fault_injector
    ):
        records, pairs = _chaos_workload()
        baseline = _chaos_baseline(records, pairs)
        injector = fault_injector(crash(chunk=0, shard=1, attempts=1))
        run = _sharded(
            records, pairs,
            resilience=resilience_config(injector=injector),
        )
        assert run.result.match_pairs == baseline.match_pairs
        assert run.result.scored_edges == baseline.scored_edges
        assert not run.result.dead_letters
        assert injector.fired() == 1

    def test_shard_targeted_fault_spares_other_shards(
        self, resilience_config, fault_injector
    ):
        records, pairs = _chaos_workload()
        # Every shard has a chunk 0; the rule is bound to shard 1 only,
        # so across a 3-shard run it fires exactly once.
        injector = fault_injector(crash(chunk=0, shard=1, attempts=1))
        _sharded(
            records, pairs, n_shards=3,
            resilience=resilience_config(injector=injector),
        )
        assert injector.fired() == 1

    def test_shard_targeted_fault_never_fires_unsharded(
        self, resilience_config, fault_injector
    ):
        records, pairs = _chaos_workload()
        baseline = _chaos_baseline(records, pairs)
        injector = fault_injector(crash(chunk=0, shard=1))
        run = _serial_engine(
            resilience_config(injector=injector)
        ).match_pairs(records, pairs, CHAOS_CLASSIFIER)
        assert injector.fired() == 0
        assert run.match_pairs == baseline.match_pairs

    def test_fail_raises_from_the_poisoned_shard(
        self, resilience_config, fault_injector
    ):
        records, pairs = _chaos_workload()
        injector = fault_injector(crash(chunk=0, shard=0))
        with pytest.raises(ChunkExecutionError):
            _sharded(
                records, pairs,
                resilience=resilience_config(
                    failure="fail", injector=injector
                ),
            )

    def test_skip_quarantines_poison_into_merged_dead_letters(
        self, resilience_config, fault_injector
    ):
        records, pairs = _chaos_workload()
        baseline = _chaos_baseline(records, pairs)
        # Target the first canonical pair of shard 0 — a true match, so
        # quarantining it visibly removes one match from the output.
        buckets, __ = _partition_pairs(_canonical_pairs(pairs), 2)
        poison = buckets[0][0]
        owner = shard_of_key(poison[0], 2)
        injector = fault_injector(crash(item=poison, shard=owner))
        run = _sharded(
            records, pairs,
            resilience=resilience_config(failure="skip", injector=injector),
        )
        result = run.result
        assert result.quarantined_pairs == (poison,)
        assert result.match_pairs == baseline.match_pairs - {frozenset(poison)}
        [entry] = result.dead_letters
        assert entry.kind == "crash"
        assert entry.items == (poison,)

    def test_sharded_engine_run_counters(self):
        records, pairs = _chaos_workload()
        tracer = Tracer()
        run = _sharded(records, pairs, tracer=tracer)
        assert run.backend == "inline"
        assert run.n_shards == 2
        assert run.result.n_candidates == len(pairs)
        assert sum(shard.n_pairs for shard in run.shards) == len(pairs)
        counters = tracer.report().metrics["counters"]
        assert counters["dist.shard.pairs"] == len(pairs)
        gauges = tracer.report().metrics.get("gauges", {})
        assert gauges.get("dist.shard.count") == 2


class TestShardedPipeline:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(FourVKnobs(volume=0.02, variety=0.3, seed=7))

    def test_pipeline_identity_with_sharded_linkage_and_fusion(self, corpus):
        serial = BDIPipeline(PipelineConfig(fusion="vote")).run(corpus.dataset)
        sharded = BDIPipeline(
            PipelineConfig(
                fusion="vote",
                execution="sharded",
                n_shards=2,
                shard_backend="inline",
            )
        ).run(corpus.dataset)
        assert sharded.linkage.match_pairs == serial.linkage.match_pairs
        assert sharded.linkage.scored_edges == serial.linkage.scored_edges
        assert sharded.clusters == serial.clusters
        assert sharded.fusion.chosen == serial.fusion.chosen
        assert sharded.entity_table == serial.entity_table

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_voted_entity_table_is_byte_identical(self, corpus, backend):
        # Fusion runs at the coordinator through the ordinary voter, so
        # a sharded pipeline's table has the serial one's bytes: same
        # values, same confidences, same item and attribute order.
        serial = BDIPipeline(PipelineConfig(fusion="vote")).run(corpus.dataset)
        sharded = BDIPipeline(
            PipelineConfig(
                fusion="vote",
                execution="sharded",
                n_shards=2,
                shard_backend=backend,
            )
        ).run(corpus.dataset)
        assert repr(sharded.entity_table) == repr(serial.entity_table)
        assert repr(sharded.fusion.chosen) == repr(serial.fusion.chosen)
        assert repr(sharded.fusion.confidence) == repr(
            serial.fusion.confidence
        )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(execution="sharded", classifier="fellegi-sunter")
        with pytest.raises(ConfigurationError):
            PipelineConfig(execution="sharded", shard_backend="threads")
        with pytest.raises(ConfigurationError):
            PipelineConfig(execution="sharded", n_shards=0)
