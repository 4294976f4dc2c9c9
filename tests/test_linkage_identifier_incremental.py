"""Tests for identifier-based and incremental linkage."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Record
from repro.linkage import (
    BatchStats,
    IncrementalLinker,
    ProbeResult,
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    detect_identifier_attributes,
    link_by_identifier,
    normalize_identifier,
    resolve,
)
from repro.linkage.blocking import first_token_key, token_set_key
from repro.linkage.comparison import FieldComparator, RecordComparator
from repro.linkage.projection import EntityProjection
from repro.quality import pairwise_cluster_quality
from repro.schema import profile_attributes
from repro.text.similarity import jaccard_similarity
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)


@pytest.fixture(scope="module")
def corpus():
    world = generate_world(
        WorldConfig(categories=("camera",), entities_per_category=50, seed=1)
    )
    return generate_dataset(
        world,
        CorpusConfig(n_sources=10, identifier_probability=1.0, seed=2),
    )


class TestNormalizeIdentifier:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("AB-1234", "ab1234"),
            ("ab 1234", "ab1234"),
            ("AB.12/34", "ab1234"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_identifier(raw) == expected


class TestDetection:
    def test_detects_identifier_attribute_per_source(self, corpus):
        profiles = profile_attributes(corpus)
        detections = detect_identifier_attributes(profiles)
        truth = corpus.ground_truth
        assert detections
        for detection in detections:
            mediated = truth.mediated_attribute(
                detection.source_id, detection.attribute
            )
            assert mediated == "product id"

    def test_min_score_excludes_low(self, corpus):
        profiles = profile_attributes(corpus)
        nothing = detect_identifier_attributes(profiles, min_score=1.01)
        assert nothing == []


class TestIdentifierLinkage:
    def test_links_by_shared_identifier(self, corpus):
        profiles = profile_attributes(corpus)
        detections = detect_identifier_attributes(profiles)
        clusters = link_by_identifier(
            list(corpus.records()), detections
        )
        quality = pairwise_cluster_quality(clusters, corpus.ground_truth)
        assert quality.precision > 0.99
        assert quality.recall > 0.5  # missing-rate holes cost some recall

    def test_short_identifiers_ignored(self):
        records = [
            Record("a", "s1", {"id": "12"}),
            Record("b", "s2", {"id": "12"}),
        ]
        detections = []
        clusters = link_by_identifier(records, detections)
        assert clusters == [["a"], ["b"]]


def all_value_tokens(record):
    """Every ≥2-char token of any value — mirrors TokenBlocker's keys."""
    from repro.text import normalize_value, word_tokens

    tokens = set()
    for value in record.attributes.values():
        tokens.update(
            t for t in word_tokens(normalize_value(value)) if len(t) >= 2
        )
    return tokens


class TestIncrementalLinker:
    def _make(self):
        return IncrementalLinker(
            [all_value_tokens],
            default_product_comparator(),
            ThresholdClassifier(0.72),
            max_candidates_per_record=10_000,
        )

    def test_requires_keys(self):
        with pytest.raises(ConfigurationError):
            IncrementalLinker(
                [], default_product_comparator(), ThresholdClassifier()
            )

    def test_duplicate_record_rejected(self):
        linker = self._make()
        record = Record("a", "s", {"name": "canon x 1"})
        linker.add_batch([record])
        with pytest.raises(ConfigurationError):
            linker.add_batch([record])

    def test_refused_batch_leaves_the_linker_untouched(self):
        linker = self._make()
        a = Record("a", "s1", {"name": "canon powershot a560"})
        b = Record("b", "s2", {"name": "canon powershot a560"})
        c = Record("c", "s3", {"name": "canon powershot a560"})
        linker.add_batch([a])
        before = linker.clusters()
        # A repeat inside the batch, and a repeat of an indexed record:
        # both are refused before the first mutation.
        for batch in ([b, c, b], [b, a]):
            with pytest.raises(ConfigurationError, match="already linked"):
                linker.add_batch(batch)
            assert linker.n_records == 1
            assert "b" not in linker and "c" not in linker
            assert linker.clusters() == before
            assert linker.candidates(c) == ("a",)
        stats = linker.add_batch([b, c])
        # b and a are one entity by the time c arrives: c is decided
        # against it once (b-a, c-a), not once per member.
        assert stats.matches == 2
        assert linker.clusters() == [["a", "b", "c"]]

    def test_incremental_equals_batch_exactly(self, corpus):
        # With identical candidate generation (all-value-token keys vs
        # TokenBlocker) and a deterministic classifier, incremental
        # union-find must reproduce batch connected components exactly.
        records = list(corpus.records())
        linker = self._make()
        for start in range(0, len(records), 60):
            linker.add_batch(records[start : start + 60])
        batch = linker.batch_equivalent(TokenBlocker())
        assert sorted(map(sorted, linker.clusters())) == sorted(
            map(sorted, batch)
        )

    def test_batch_cost_scales_with_batch_not_corpus(self, corpus):
        records = list(corpus.records())
        linker = self._make()
        first = linker.add_batch(records[:200])
        second = linker.add_batch(records[200:220])
        # 20 new records against an index of 200 should cost far less
        # than re-running the first 200.
        assert second.comparisons < first.comparisons

    def test_clusters_cover_all_added(self, corpus):
        records = list(corpus.records())[:50]
        linker = self._make()
        linker.add_batch(records)
        flattened = [m for c in linker.clusters() for m in c]
        assert sorted(flattened) == sorted(r.record_id for r in records)


class _CountingComparator:
    """Delegates to a real comparator, counting every scored pair."""

    def __init__(self, inner):
        self._inner = inner
        self.scored = 0

    def prepare(self, record):
        return self._inner.prepare(record)

    def decide(self, *args, **kwargs):
        self.scored += 1
        return self._inner.decide(*args, **kwargs)

    def compare_prepared(self, left, right):
        self.scored += 1
        return self._inner.compare_prepared(left, right)


@pytest.fixture(scope="module")
def pool(corpus):
    """The records of six entities: enough to link, cheap to sweep."""
    truth = corpus.ground_truth
    few = sorted(truth.entities)[:6]
    return [
        record
        for record in corpus.records()
        if truth.entity_of(record.record_id) in few
    ]


class TestEntityProjection:
    """The one live core: however the records get in — one at a time,
    in batches, as a batch clustering, or as a saved table — the entity
    table is the same."""

    @staticmethod
    def _make(comparator):
        return EntityProjection(
            [all_value_tokens],
            comparator,
            ThresholdClassifier(0.72),
            lambda source_id: 0.6 + 0.03 * (sum(map(ord, source_id)) % 10),
            max_candidates_per_record=10_000,
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_fold_rebuild_and_load_agree(self, pool, data):
        *records, extra = data.draw(
            st.lists(
                st.sampled_from(pool),
                min_size=2,
                max_size=24,
                unique_by=lambda record: record.record_id,
            )
        )
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(records)), max_size=4)
            )
        )
        comparator = default_product_comparator()

        one = self._make(comparator)
        one_by_one = 0
        for record in records:
            before = set(one.entities)
            stats, (entity_id,), absorbed = one.fold([record])
            one_by_one += stats.comparisons
            assert one.entity_of[record.record_id] == entity_id
            assert set(absorbed) <= before
            assert bool(absorbed) == bool(stats.matches)

        split = self._make(comparator)
        comparisons = 0
        for low, high in zip([0, *cuts], [*cuts, len(records)]):
            stats, projected, _ = split.fold(records[low:high])
            comparisons += stats.comparisons
            assert set(projected) <= set(split.entities)
        table = one.canonical()
        assert split.canonical() == table
        assert comparisons == one_by_one
        assert sorted(one.entity_of) == sorted(r.record_id for r in records)

        counting = _CountingComparator(comparator)
        rebuilt = self._make(counting)
        clusters = resolve(
            records,
            TokenBlocker(),
            comparator,
            ThresholdClassifier(0.72),
            clustering="components",
        ).clusters
        rebuilt.rebuild(records, clusters)
        assert rebuilt.canonical() == table

        loaded = self._make(counting)
        # Records no saved entity contains come back for replay.
        assert loaded.load([*records, extra], one.canonical()) == [extra]
        assert loaded.canonical() == table
        assert extra.record_id not in loaded.linker
        assert counting.scored == 0

        # A preloaded core is as live as a folded one: the next record
        # costs the same comparisons and lands in the same table.
        expected, _, _ = one.fold([extra])
        for projection in (rebuilt, loaded):
            counting.scored = 0
            stats, _, _ = projection.fold([extra])
            assert stats.comparisons == expected.comparisons == counting.scored
            assert sorted(stats.match_pairs) == sorted(expected.match_pairs)
            assert projection.canonical() == one.canonical()


class _DelegatingClassifier:
    """A threshold rule that is *not* a ``ThresholdClassifier`` subtype,
    forcing the linker onto the full-comparison slow path."""

    def __init__(self, threshold):
        self._inner = ThresholdClassifier(threshold)

    def is_match(self, vector):
        return self._inner.is_match(vector)


class TestIncrementalChurn:
    """remove/resurrect/update lifecycle and index hygiene."""

    def _make(self, classifier=None, max_candidates=10_000):
        return IncrementalLinker(
            [all_value_tokens],
            default_product_comparator(),
            classifier or ThresholdClassifier(0.72),
            max_candidates_per_record=max_candidates,
        )

    def test_remove_deletes_emptied_buckets(self):
        linker = self._make()
        linker.add_batch(
            [
                Record("a", "s", {"name": "canon powershot a560"}),
                Record("b", "s", {"name": "nikon coolpix p50"}),
            ]
        )
        keys_before = set(linker._index)
        linker.remove("b")
        # Every key unique to b is gone entirely, not left as an empty
        # (or b-only) bucket.
        assert all(bucket for bucket in linker._index.values())
        assert all(
            "b" not in bucket for bucket in linker._index.values()
        )
        assert set(linker._index) < keys_before

    def test_update_deletes_abandoned_buckets(self):
        linker = self._make()
        linker.add_batch([Record("a", "s", {"name": "canon alpha"})])
        linker.update(Record("a", "s", {"name": "canon beta"}))
        assert "alpha" not in linker._index
        assert "a" in linker._index["beta"]
        # Shared keys survive with the record still bucketed once.
        assert linker._index["canon"].count("a") == 1

    def test_churn_never_leaks_index_entries(self, corpus):
        records = list(corpus.records())[:80]
        linker = self._make()
        linker.add_batch(records)
        for record in records[:40]:
            linker.remove(record.record_id)
        for record in records[:40]:
            linker.resurrect(record)
            linker.update(record)
        alive = {record.record_id for record in records}
        for key, bucket in linker._index.items():
            assert bucket, f"empty bucket {key!r} left behind"
            assert len(set(bucket)) == len(bucket), f"duplicates in {key!r}"
            assert set(bucket) <= alive

    def test_remove_resurrect_update_keeps_clusters(self):
        linker = self._make()
        matched = [
            Record("a", "s1", {"name": "canon powershot a560"}),
            Record("b", "s2", {"name": "canon powershot a560"}),
        ]
        linker.add_batch(matched)
        assert linker.clusters() == [["a", "b"]]
        linker.remove("b")
        assert linker.clusters() == [["a"]]
        # Resurrection restores the old identity — and with it the old
        # union-find merge, without spending a single comparison.
        linker.resurrect(Record("b", "s2", {"name": "canon powershot"}))
        assert sorted(map(sorted, linker.clusters())) == [["a", "b"]]
        # An in-place update re-keys the index but never unlinks.
        linker.update(Record("b", "s2", {"name": "fuji finepix z5"}))
        assert sorted(map(sorted, linker.clusters())) == [["a", "b"]]
        assert "b" in linker._index["fuji"]

    def test_resurrect_of_live_record_rejected(self):
        linker = self._make()
        record = Record("a", "s", {"name": "canon a560"})
        linker.add_batch([record])
        with pytest.raises(ConfigurationError):
            linker.resurrect(record)

    def test_update_of_unknown_record_rejected(self):
        linker = self._make()
        with pytest.raises(ConfigurationError):
            linker.update(Record("ghost", "s", {"name": "x"}))

    def test_truncation_is_deterministic(self, corpus):
        records = list(corpus.records())[:120]
        runs = []
        for _ in range(2):
            linker = self._make(max_candidates=3)
            stats = [
                linker.add_batch(records[start : start + 40])
                for start in range(0, len(records), 40)
            ]
            runs.append(
                (
                    [s.candidates for s in stats],
                    [s.match_pairs for s in stats],
                    sorted(map(sorted, linker.clusters())),
                )
            )
        assert runs[0] == runs[1]
        # The cap actually binds on this corpus.
        unbounded = self._make()
        unbounded_stats = unbounded.add_batch(records)
        bounded_candidates = sum(runs[0][0])
        assert bounded_candidates < unbounded_stats.candidates
        assert bounded_candidates <= 3 * len(records)

    def test_fast_path_decisions_equal_slow_path(self, corpus):
        """score_bounded + prepared records must decide exactly like the
        full compare path (same matches, same clusters, same stats)."""
        records = list(corpus.records())[:150]
        fast = self._make(ThresholdClassifier(0.72))
        slow = self._make(_DelegatingClassifier(0.72))
        assert fast._threshold is not None  # fast path engaged
        assert slow._threshold is None  # slow path engaged
        for start in range(0, len(records), 50):
            batch = records[start : start + 50]
            fast_stats = fast.add_batch(batch)
            slow_stats = slow.add_batch(batch)
            assert fast_stats.match_pairs == slow_stats.match_pairs
            assert fast_stats.candidates == slow_stats.candidates
            assert fast_stats.comparisons == slow_stats.comparisons
        assert sorted(map(sorted, fast.clusters())) == sorted(
            map(sorted, slow.clusters())
        )

    def test_probe_is_read_only_and_matches_add(self):
        linker = self._make()
        linker.add_batch(
            [
                Record("a", "s1", {"name": "canon powershot a560"}),
                Record("x", "s1", {"name": "nikon coolpix p50"}),
            ]
        )
        probe = Record("q", "s2", {"name": "canon powershot a560"})
        first = linker.probe(probe)
        second = linker.probe(probe)
        assert first == second
        assert first.best == "a"
        assert "q" not in linker
        assert linker.n_records == 2
        # The probe's verdict equals what ingesting would decide.
        stats = linker.add_batch([probe])
        assert [pair[1] for pair in stats.match_pairs] == [
            record_id for record_id, _ in first.matches
        ]

    def test_merge_requires_known_records(self):
        linker = self._make()
        linker.add_batch([Record("a", "s", {"name": "canon a560"})])
        with pytest.raises(ConfigurationError):
            linker.merge("a", "ghost")
        linker.add_batch([Record("b", "s", {"name": "fuji z5"})])
        linker.merge("a", "b")
        assert sorted(map(sorted, linker.clusters())) == [["a", "b"]]


class CompareAllLinker(IncrementalLinker):
    """The reference the write path is held to: every candidate is
    compared (plain ``compare`` over the raw records — no prepared
    payloads, no early exit, nothing skipped), every accepted pair is
    reported and unioned. Quadratic in entity size; kept for tests."""

    def _matches(self, record):
        candidate_ids = self.candidates(record)
        scored = []
        for other_id in candidate_ids:
            vector = self._comparator.compare(record, self.record(other_id))
            if self._classifier.is_match(vector):
                scored.append((other_id, vector.score))
        return candidate_ids, scored

    def probe(self, record):
        candidate_ids, scored = self._matches(record)
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return ProbeResult(tuple(scored), len(candidate_ids), len(candidate_ids))

    def add_batch(self, batch):
        candidates, match_pairs = 0, []
        for record in batch:
            candidate_ids, scored = self._matches(record)
            candidates += len(candidate_ids)
            self.resurrect(record)  # index it; refuses a repeated id
            for other_id, _ in scored:
                match_pairs.append((record.record_id, other_id))
                self.merge(record.record_id, other_id)
        return BatchStats(
            len(batch), candidates, candidates, len(match_pairs),
            tuple(match_pairs),
        )


def _chain_pool():
    """Three chains of overlapping names: neighbours match (Jaccard
    0.6 against a 0.5 threshold), names two apart do not (0.33) — so
    which records share an entity depends on what arrived in between,
    and an arriving record often links two entities at once."""
    return [
        Record(
            f"{chain}{link}/{source}",
            f"s{source}",
            {"name": " ".join(["acme", *(f"{chain}{link + i}" for i in range(3))])},
        )
        for chain in "xyz"
        for link in range(6)
        for source in range(3)
    ]


def _jaccard_comparator():
    return RecordComparator([FieldComparator("name", jaccard_similarity)])


NAME_ALIASES = ("title", "product name", "model", "item name")
KEY_FUNCTIONS = {
    "single key": [first_token_key("name", NAME_ALIASES)],
    "multi-key": [token_set_key("name", NAME_ALIASES)],
    "set-returning": [all_value_tokens],
}


def _is_subsequence(short, long):
    remaining = iter(long)
    return all(item in remaining for item in short)


class TestDecidedOncePerEntity:
    """The write path skips a candidate whose entity the arriving record
    has already matched. That is exact: clusters, the projection and
    every fold's outcome equal :class:`CompareAllLinker`'s; only the
    cost counters are smaller."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_projection_equals_compare_all(self, pool, data):
        pool, comparator, threshold = data.draw(
            st.sampled_from(
                [
                    (pool, default_product_comparator(), 0.72),
                    (_chain_pool(), _jaccard_comparator(), 0.5),
                ]
            )
        )
        *records, extra = data.draw(
            st.lists(
                st.sampled_from(pool),
                min_size=2,
                max_size=30,
                unique_by=lambda record: record.record_id,
            )
        )
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(records)), max_size=4))
        )
        linker_args = (
            KEY_FUNCTIONS[data.draw(st.sampled_from(sorted(KEY_FUNCTIONS)))],
            comparator,
            data.draw(
                st.sampled_from([ThresholdClassifier, _DelegatingClassifier])
            )(threshold),
        )
        cap = data.draw(st.sampled_from([3, 8, 64, 1000]))

        def accuracy_of(source_id):
            return 0.6 + 0.03 * (sum(map(ord, source_id)) % 10)

        pruned = EntityProjection(
            *linker_args, accuracy_of, max_candidates_per_record=cap
        )
        reference = EntityProjection(
            *linker_args, accuracy_of, max_candidates_per_record=cap
        )
        reference.linker = CompareAllLinker(*linker_args, cap)
        for low, high in zip([0, *cuts], [*cuts, len(records)]):
            stats, *outcome = pruned.fold(records[low:high])
            expected, *expected_outcome = reference.fold(records[low:high])
            assert json.dumps(outcome) == json.dumps(expected_outcome)
            assert json.dumps(pruned.linker.clusters()) == json.dumps(
                reference.linker.clusters()
            )
            assert json.dumps(pruned.canonical()) == json.dumps(
                reference.canonical()
            )
            assert stats.candidates == expected.candidates
            assert stats.comparisons <= expected.comparisons
            assert stats.matches == len(stats.match_pairs)
            assert _is_subsequence(stats.match_pairs, expected.match_pairs)
        # The read path is owed every match: it never skips.
        assert pruned.linker.probe(extra) == reference.linker.probe(extra)

    @staticmethod
    def _observations(n):
        return [
            Record(f"r{i:02d}", f"s{i:02d}", {"name": "canon powershot a560"})
            for i in range(n)
        ]

    def test_thirty_observations_cost_one_decision_each(self):
        projection = TestEntityProjection._make(default_product_comparator())
        candidates = comparisons = 0
        for record in self._observations(30):
            stats, _, _ = projection.fold([record])
            candidates += stats.candidates
            comparisons += stats.comparisons
            assert stats.matches == min(stats.candidates, 1)
        assert (candidates, comparisons) == (435, 29)
        assert projection.linker.clusters() == [
            [f"r{i:02d}" for i in range(30)]
        ]

    @pytest.mark.parametrize(
        "classifier", [ThresholdClassifier, _DelegatingClassifier]
    )
    def test_skips_are_candidates_minus_comparisons(self, corpus, classifier):
        """What is skipped is told from the read API alone: a candidate
        is skipped iff an earlier candidate of the same cluster matched."""
        counting = _CountingComparator(default_product_comparator())
        linker = IncrementalLinker(
            [all_value_tokens], counting, classifier(0.72), 40
        )
        skipped = 0
        for record in list(corpus.records())[:150]:
            cluster_of = {
                member: index
                for index, cluster in enumerate(linker.clusters())
                for member in cluster
            }
            matching = {other for other, _ in linker.probe(record).matches}
            matched_clusters, expected_skips = set(), 0
            for other in linker.candidates(record):
                if cluster_of[other] in matched_clusters:
                    expected_skips += 1
                elif other in matching:
                    matched_clusters.add(cluster_of[other])
            counting.scored = 0
            stats = linker.add_batch([record])
            assert stats.comparisons == counting.scored
            assert stats.candidates - stats.comparisons == expected_skips
            assert stats.matches == len(matched_clusters)
            skipped += expected_skips
        assert skipped > 0

    def test_clusters_do_not_depend_on_the_hash_seed(self):
        """A set-returning key function has no key order of its own; the
        linker sorts its keys, so candidate order — and what a binding
        cap keeps — is the same under every ``PYTHONHASHSEED``."""
        script = """
import json
from repro.linkage import (
    IncrementalLinker, ThresholdClassifier, default_product_comparator,
)
from repro.synth import (
    CorpusConfig, WorldConfig, generate_dataset, generate_world,
)
from repro.text import normalize_value, word_tokens

def all_value_tokens(record):
    return {
        token
        for value in record.attributes.values()
        for token in word_tokens(normalize_value(value))
        if len(token) >= 2
    }

world = generate_world(
    WorldConfig(categories=("camera",), entities_per_category=30, seed=1)
)
dataset = generate_dataset(
    world, CorpusConfig(n_sources=8, identifier_probability=1.0, seed=2)
)
linker = IncrementalLinker(
    [all_value_tokens],
    default_product_comparator(),
    ThresholdClassifier(0.72),
    max_candidates_per_record=5,
)
stats = linker.add_batch(list(dataset.records()))
print(json.dumps([stats.batch_size, stats.candidates, stats.comparisons,
                  stats.match_pairs, linker.clusters()]))
"""
        source_root = os.path.join(os.path.dirname(__file__), "..", "src")
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [source_root, env.get("PYTHONPATH", "")])
            )
            process = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert process.returncode == 0, process.stderr
            outputs.append(process.stdout)
        assert outputs[0] == outputs[1]
        batch_size, candidates, comparisons, *_ = json.loads(outputs[0])
        # Under the cap, and some candidates were skipped as linked.
        assert comparisons < candidates <= 5 * batch_size
