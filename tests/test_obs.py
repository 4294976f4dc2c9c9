"""Tests for the observability subsystem (repro.obs).

Covers span nesting and injectable-clock determinism, the metrics
instruments (counters, gauges, fixed-bucket histograms), the
cross-worker snapshot/merge collection protocol, RunReport JSON
round-trips and text rendering, NullTracer inertness, the engine's
zeroed-report edge cases, and an end-to-end pipeline run asserting a
span per stage with nonzero engine counters.
"""

import json

import pytest

from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.core.record import Record
from repro.linkage import (
    ParallelComparisonEngine,
    ThresholdClassifier,
    default_product_comparator,
)
from repro.obs import (
    NULL_TRACER,
    ManualClock,
    MetricsRegistry,
    NullTracer,
    RunReport,
    Tracer,
    observe_block_collection,
    observe_candidate_pruning,
    observe_text_caches,
)
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)


@pytest.fixture(scope="module")
def dataset():
    world = generate_world(
        WorldConfig(
            categories=("camera",), entities_per_category=10, seed=11
        )
    )
    return generate_dataset(
        world, CorpusConfig(n_sources=4, typo_rate=0.05, seed=12)
    )


class TestManualClock:
    def test_readings_advance_by_tick(self):
        clock = ManualClock(start=100.0, tick=0.5)
        assert clock.now() == 100.0
        assert clock.now() == 100.5
        clock.advance(10.0)
        assert clock.now() == 111.0

    def test_span_durations_exact(self):
        tracer = Tracer(clock=ManualClock(start=0.0, tick=1.0))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        # Clock reads: outer start=0, inner start=1, inner end=2,
        # outer end=3 — durations are exact, not flaky wall time.
        assert outer.start == 0.0 and outer.end == 3.0
        assert outer.duration == 3.0
        assert inner.start == 1.0 and inner.end == 2.0
        assert inner.duration == 1.0


class TestSpans:
    def test_nesting_and_attributes(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("a", mode="x") as a:
            assert tracer.current() is a
            with tracer.span("b") as b:
                b.set("n", 3)
            with tracer.span("c"):
                pass
        assert tracer.current() is None
        assert [span.name for span in tracer.roots] == ["a"]
        assert [child.name for child in tracer.roots[0].children] == [
            "b",
            "c",
        ]
        assert tracer.roots[0].attributes == {"mode": "x"}
        assert tracer.roots[0].find("b").attributes == {"n": 3}

    def test_span_closes_on_exception(self):
        tracer = Tracer(clock=ManualClock())
        with pytest.raises(RuntimeError):
            with tracer.span("fails"):
                raise RuntimeError("boom")
        assert tracer.current() is None
        assert tracer.roots[0].end is not None


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("x") is counter
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("ratio")
        gauge.set(0.25)
        gauge.set(0.75)
        assert gauge.value == 0.75

    def test_histogram_bucket_placement(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes", buckets=(2, 4, 8))
        histogram.observe_many([1, 2, 3, 8, 9])
        # bounds are inclusive upper edges; the extra slot is overflow
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.sum == 23
        assert histogram.min == 1 and histogram.max == 9
        assert histogram.mean == pytest.approx(4.6)

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(3, 1, 2))
        with pytest.raises(ValueError):
            registry.histogram("empty", buckets=())

    def test_histogram_re_registration_requires_same_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1, 2))
        assert registry.histogram("h") is registry.histogram("h")
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1, 2, 3))


class TestCollectionProtocol:
    def test_snapshot_is_plain_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1, 2)).observe(1)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_merge_adds_counters_and_buckets(self):
        worker = MetricsRegistry()
        worker.counter("pairs").inc(10)
        worker.gauge("load").set(0.9)
        worker.histogram("scores", buckets=(0.5, 1.0)).observe_many(
            [0.4, 0.9]
        )
        parent = MetricsRegistry()
        parent.counter("pairs").inc(5)
        parent.gauge("load").set(0.1)
        parent.histogram("scores", buckets=(0.5, 1.0)).observe(0.2)
        parent.merge(worker.snapshot())
        merged = parent.snapshot()
        assert merged["counters"]["pairs"] == 15
        assert merged["gauges"]["load"] == 0.9  # last writer wins
        histogram = merged["histograms"]["scores"]
        assert histogram["counts"] == [2, 1, 0]
        assert histogram["count"] == 3
        assert histogram["min"] == 0.2 and histogram["max"] == 0.9

    def test_merge_rejects_mismatched_buckets(self):
        worker = MetricsRegistry()
        worker.histogram("h", buckets=(1, 2)).observe(1)
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(5, 10))
        with pytest.raises(ValueError):
            parent.merge(worker.snapshot())

    def test_merge_counters_degenerate_form(self):
        parent = MetricsRegistry()
        parent.counter("engine.hits").inc(1)
        parent.merge_counters({"engine.hits": 4, "engine.misses": 2})
        snapshot = parent.snapshot()
        assert snapshot["counters"]["engine.hits"] == 5
        assert snapshot["counters"]["engine.misses"] == 2


class TestRunReport:
    @pytest.fixture()
    def report(self):
        tracer = Tracer(clock=ManualClock(start=0.0, tick=0.25))
        with tracer.span("pipeline.run", n_records=40):
            with tracer.span("pipeline.schema_alignment"):
                pass
            with tracer.span("pipeline.record_linkage") as span:
                span.set("n_clusters", 7)
        tracer.counter("engine.pairs_total").inc(100)
        tracer.gauge("text.cache.hit_ratio").set(0.875)
        tracer.histogram("engine.match_score", (0.5, 1.0)).observe_many(
            [0.6, 0.8, 0.9]
        )
        return tracer.report(name="demo")

    def test_json_round_trip_lossless(self, report):
        clone = RunReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()
        assert clone.span_names() == report.span_names()

    def test_span_lookup(self, report):
        assert report.span_names() == [
            "pipeline.run",
            "pipeline.schema_alignment",
            "pipeline.record_linkage",
        ]
        linkage = report.find_span("pipeline.record_linkage")
        assert linkage.attributes["n_clusters"] == 7
        assert report.find_span("nope") is None

    def test_render_tree_and_metrics(self, report):
        text = report.render()
        assert "run report: demo" in text
        assert "└─ pipeline.run" in text
        assert "├─ pipeline.schema_alignment" in text
        assert "└─ pipeline.record_linkage" in text
        assert "n_clusters=7" in text
        assert "engine.pairs_total" in text
        assert "engine.match_score" in text
        assert "count=3" in text


class TestNullTracer:
    def test_everything_is_inert(self):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("anything", n=1) as span:
            span.set("ignored", True)
            assert tracer.current() is None
        tracer.counter("c").inc(5)
        tracer.gauge("g").set(1.0)
        tracer.histogram("h").observe(3.0)
        assert tracer.time() == 0.0
        report = tracer.report()
        assert report.spans == [] and report.metrics == {}

    def test_shared_singletons(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")
        assert tracer.counter("a") is tracer.histogram("b")
        assert NULL_TRACER.enabled is False


class TestInstrumentHelpers:
    def test_observe_candidate_pruning(self):
        tracer = Tracer(clock=ManualClock())
        observe_candidate_pruning(tracer, 100, 40)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["metablocking.pairs_before"] == 100
        assert counters["metablocking.pairs_retained"] == 40
        assert counters["metablocking.pairs_pruned"] == 60

    def test_observe_text_caches_reports_ratio(self):
        from repro.text import MEMO_CACHES, normalize_value

        normalize_value.cache_clear()
        normalize_value("Some Value")
        normalize_value("Some Value")  # hit
        tracer = Tracer(clock=ManualClock())
        observe_text_caches(tracer)
        gauges = tracer.metrics.snapshot()["gauges"]
        assert gauges["text.normalize_value.cache_hits"] >= 1
        assert gauges["text.normalize_value.cache_misses"] >= 1
        assert 0.0 < gauges["text.normalize_value.cache_hit_ratio"] <= 1.0
        assert set(MEMO_CACHES) == {
            "normalize_value",
            "word_tokens",
            "jaro_winkler",
            "value_similarity",
            "value_payload",
        }

    def test_run_report_shows_both_similarity_tiers(self):
        from repro.text import clear_memo_caches

        clear_memo_caches()
        comparator = default_product_comparator()
        left = comparator.prepare(
            Record("a", "s1", {"name": "canon pro 512", "brand": "canon"})
        )
        right = comparator.prepare(
            Record("b", "s2", {"name": "cannon pro 512", "brand": "cannon"})
        )
        first = comparator.compare_prepared(left, right)
        assert comparator.compare_prepared(left, right) == first
        tracer = Tracer(clock=ManualClock())
        observe_text_caches(tracer)
        gauges = tracer.report().metrics["gauges"]
        # One name pair: missed once, served from the value tier once.
        assert gauges["text.value_similarity.cache_misses"] == 1
        assert gauges["text.value_similarity.cache_hits"] == 1
        assert gauges["text.value_similarity.cache_size"] == 1
        # Its token pairs, plus the brand pair, went through the token
        # tier on the miss; the repeat never reached it for the name.
        assert gauges["text.jaro_winkler.cache_misses"] > 1
        assert gauges["text.jaro_winkler.cache_hits"] >= 1
        assert (
            gauges["text.jaro_winkler.cache_size"]
            == gauges["text.jaro_winkler.cache_misses"]
        )


class TestEngineEdgeCases:
    def test_empty_pair_list_zeroed_report(self):
        tracer = Tracer(clock=ManualClock())
        engine = ParallelComparisonEngine(
            default_product_comparator(), tracer=tracer
        )
        run = engine.match_pairs({}, [], ThresholdClassifier(0.7))
        assert run.n_pairs == 0 and run.match_pairs == set()
        counters = tracer.metrics.snapshot()["counters"]
        for name in (
            "engine.pairs_total",
            "engine.pairs_matched",
            "engine.pairs_early_exit",
            "engine.prepared_cache_hits",
            "engine.prepared_cache_misses",
        ):
            assert counters[name] == 0

    def test_empty_pair_list_process_backend(self):
        tracer = Tracer(clock=ManualClock())
        engine = ParallelComparisonEngine(
            default_product_comparator(),
            execution="process",
            n_workers=2,
            tracer=tracer,
        )
        run = engine.match_pairs({}, [], ThresholdClassifier(0.7))
        assert run.n_pairs == 0
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["engine.pairs_total"] == 0
        assert counters["engine.chunks"] == 0

    @pytest.mark.slow
    def test_fewer_pairs_than_workers(self, dataset):
        records = list(dataset.records())[:4]
        by_id = {record.record_id: record for record in records}
        ids = sorted(by_id)
        pairs = [(ids[0], ids[1]), (ids[2], ids[3])]
        tracer = Tracer(clock=ManualClock())
        engine = ParallelComparisonEngine(
            default_product_comparator(),
            execution="process",
            n_workers=4,
            tracer=tracer,
        )
        run = engine.match_pairs(by_id, pairs, ThresholdClassifier(0.7))
        assert run.n_pairs == 2
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["engine.pairs_total"] == 2
        assert 1 <= counters["engine.chunks"] <= 2
        assert (
            counters["engine.prepared_cache_hits"]
            + counters["engine.prepared_cache_misses"]
            == 4
        )


class TestPipelineInstrumented:
    STAGES = (
        "pipeline.run",
        "pipeline.schema_alignment",
        "pipeline.record_linkage",
        "pipeline.claims",
        "pipeline.fusion",
        "pipeline.entity_table",
    )

    def test_span_per_stage_with_counts(self, dataset):
        tracer = Tracer()
        pipeline = BDIPipeline(PipelineConfig(fusion="truthfinder"))
        result = pipeline.run(dataset, tracer=tracer)
        report = tracer.report(name="pipeline")
        names = report.span_names()
        for stage in self.STAGES:
            assert stage in names
        run_span = report.find_span("pipeline.run")
        assert run_span.attributes["n_records"] == len(
            list(dataset.records())
        )
        assert run_span.attributes["n_clusters"] == len(result.clusters)
        linkage = report.find_span("pipeline.record_linkage")
        assert linkage.attributes["n_clusters"] == len(result.clusters)
        # engine spans nest under the linkage stage
        assert linkage.find("engine.match_pairs") is not None
        fusion = report.find_span("fusion.truthfinder")
        assert fusion is not None
        assert len(fusion.attributes["deltas"]) >= 1

    def test_counters_nonzero_and_json_round_trip(self, dataset):
        result, report = BDIPipeline().run_instrumented(dataset)
        assert result.entity_table
        counters = report.metrics["counters"]
        assert counters["engine.pairs_total"] > 0
        assert counters["engine.pairs_early_exit"] > 0
        assert counters["engine.prepared_cache_hits"] > 0
        assert counters["blocking.blocks_built"] > 0
        assert counters["pipeline.records"] > 0
        gauges = report.metrics["gauges"]
        assert "text.normalize_value.cache_hit_ratio" in gauges
        clone = RunReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()

    def test_schema_alignment_accounts_for_its_pairs(self, dataset):
        __, report = BDIPipeline().run_instrumented(dataset)
        span = report.find_span("pipeline.schema_alignment")
        counters = report.metrics["counters"]
        for name in (
            "schema.attributes",
            "schema.pairs_possible",
            "schema.candidate_pairs",
            "schema.pairs_name_scored",
            "schema.name_pairs_distinct",
            "schema.correspondences_selected",
        ):
            assert span.attributes[name] == counters[name] > 0
        assert (
            counters["schema.correspondences_selected"]
            <= counters["schema.pairs_name_scored"]
            <= counters["schema.candidate_pairs"]
            < counters["schema.pairs_possible"]
        )

    def test_default_run_is_uninstrumented(self, dataset):
        # No tracer: the NullTracer path must not grow any state.
        result = BDIPipeline().run(dataset)
        assert result.entity_table
