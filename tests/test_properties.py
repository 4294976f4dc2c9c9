"""Library-wide property-based tests (hypothesis).

These check structural invariants that must hold for *any* input, not
just the curated fixtures: blocking soundness, meta-blocking
containment, fusion posterior normalization, canonicalization
idempotence, and clustering partition properties.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GroundTruth, Record
from repro.fusion import AccuVote, Claim, ClaimSet, VotingFuser
from repro.linkage import (
    Block,
    BlockCollection,
    CanopyBlocker,
    MinHashBlocker,
    QGramBlocker,
    SortedNeighborhoodBlocker,
    StandardBlocker,
    TokenBlocker,
    connected_components,
    meta_block,
)
from repro.linkage.blocking import normalized_attribute_key, token_set_key
from repro.quality import bcubed_quality, blocking_quality, total_pairs
from repro.text import canonical_value, normalize_attribute_name

# --- strategies ------------------------------------------------------

short_word = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=8,
)


@st.composite
def record_lists(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    records = []
    for index in range(n):
        n_tokens = draw(st.integers(min_value=0, max_value=4))
        name = " ".join(draw(short_word) for __ in range(n_tokens))
        attributes = {}
        if name:
            attributes["name"] = name
        if draw(st.booleans()):
            attributes["color"] = draw(short_word)
        if not attributes:
            attributes = {"name": "x"}
        records.append(Record(f"r{index}", f"s{index % 3}", attributes))
    return records


BLOCKERS = [
    StandardBlocker(normalized_attribute_key("name")),
    StandardBlocker(token_set_key("name")),
    SortedNeighborhoodBlocker(normalized_attribute_key("name"), window=3),
    CanopyBlocker(loose=0.3, tight=0.7),
    QGramBlocker(normalized_attribute_key("name"), q=3),
    TokenBlocker(),
    MinHashBlocker(n_hashes=16, bands=4),
]


@pytest.mark.parametrize(
    "blocker", BLOCKERS, ids=lambda b: b.name
)
class TestBlockingInvariants:
    @given(records=record_lists())
    @settings(max_examples=20, deadline=None)
    def test_candidates_are_real_record_pairs(self, blocker, records):
        ids = {record.record_id for record in records}
        for pair in blocker.block(records).candidate_pairs():
            assert len(pair) == 2
            assert pair <= ids

    @given(records=record_lists())
    @settings(max_examples=20, deadline=None)
    def test_candidate_count_bounded_by_quadratic(self, blocker, records):
        pairs = blocker.block(records).candidate_pairs()
        assert len(pairs) <= total_pairs(len(records))

    @given(records=record_lists())
    @settings(max_examples=10, deadline=None)
    def test_deterministic(self, blocker, records):
        first = blocker.block(records).candidate_pairs()
        second = blocker.block(list(records)).candidate_pairs()
        assert first == second


class TestMetaBlockingInvariants:
    @given(records=record_lists())
    @settings(max_examples=15, deadline=None)
    def test_pruned_subset_of_unpruned(self, records):
        blocks = TokenBlocker().block(records)
        full = blocks.candidate_pairs()
        for pruning in ("wep", "cep", "wnp", "cnp"):
            assert meta_block(blocks, pruning=pruning) <= full

    def test_weights_nonnegative(self):
        from repro.linkage import build_blocking_graph

        blocks = BlockCollection(
            [Block("a", ("r1", "r2", "r3")), Block("b", ("r1", "r2"))]
        )
        for scheme in ("cbs", "js", "arcs"):
            graph = build_blocking_graph(blocks, weight=scheme)
            assert all(w >= 0 for w in graph.weights.values())


@st.composite
def claim_sets(draw):
    n_sources = draw(st.integers(min_value=1, max_value=5))
    n_items = draw(st.integers(min_value=1, max_value=8))
    claims = ClaimSet()
    rng = random.Random(draw(st.integers(min_value=0, max_value=999)))
    for s in range(n_sources):
        for i in range(n_items):
            if rng.random() < 0.8:
                claims.add(
                    Claim(f"s{s}", f"i{i}", f"v{rng.randrange(4)}")
                )
    if len(claims) == 0:
        claims.add(Claim("s0", "i0", "v0"))
    return claims


class TestFusionInvariants:
    @given(claims=claim_sets())
    @settings(max_examples=25, deadline=None)
    def test_vote_chooses_claimed_values(self, claims):
        result = VotingFuser().fuse(claims)
        for item, value in result.chosen.items():
            assert value in claims.values_for(item)
        assert set(result.chosen) == set(claims.items())

    @given(claims=claim_sets())
    @settings(max_examples=25, deadline=None)
    def test_accuvote_confidences_are_probabilities(self, claims):
        result = AccuVote(n_false_values=4, max_iterations=10).fuse(claims)
        for item in claims.items():
            assert 0.0 <= result.confidence[item] <= 1.0 + 1e-9
        for accuracy in result.source_accuracy.values():
            assert 0.0 < accuracy < 1.0

    @given(claims=claim_sets())
    @settings(max_examples=15, deadline=None)
    def test_accuvote_posteriors_sum_to_one_per_item(self, claims):
        fuser = AccuVote(n_false_values=4, max_iterations=10)
        result = fuser.fuse(claims)
        score_item = fuser.item_scorer(result.source_accuracy)
        for item in claims.items():
            posteriors = score_item(claims.claims_for(item))
            assert tuple(posteriors) == claims.values_for(item)
            assert sum(posteriors.values()) == pytest.approx(1.0)

    @given(
        claims=claim_sets(),
        seed=st.integers(min_value=0, max_value=999),
        limit=st.sampled_from([300, 1_000, 1_000_000]),
    )
    @settings(max_examples=25, deadline=None)
    def test_item_local_fusers_agree_in_memory_and_spilled(
        self, tmp_path_factory, claims, seed, limit
    ):
        # Any claims in any arrival order, a third of them re-claimed
        # (the first claim of a (source, item) wins on both sides),
        # under budgets from one claim to all of them: a fuser that
        # reads one item's claims at a time cannot tell the spilled
        # groups from the ClaimSet — not in the last bit of a float.
        import json

        from repro.fusion import TruthFinder
        from repro.outofcore import MemoryBudget, SpillableClaimGroups
        from repro.recovery import RunStore
        from repro.text import levenshtein_similarity

        rng = random.Random(seed)
        rows = [(c.source_id, c.item_id, c.value) for c in claims]
        rows += [
            (source, item, f"v{rng.randrange(4)}")
            for source, item, __ in rng.sample(rows, len(rows) // 3)
        ]
        rng.shuffle(rows)
        in_memory = ClaimSet()
        for source, item, value in rows:
            if in_memory.value_of(source, item) is None:
                in_memory.add(Claim(source, item, value))
        budget = MemoryBudget(limit)
        spilled = SpillableClaimGroups(
            RunStore(tmp_path_factory.mktemp("claims"), durable=False), budget
        )
        for row in rows:
            spilled.add(*row)

        def document(result):
            assert not result.copy_probability
            return json.dumps(
                [
                    list(result.chosen.items()),
                    list(result.confidence.items()),
                    list(result.source_accuracy.items()),
                    result.iterations,
                ]
            )

        for make in (
            VotingFuser,
            lambda: AccuVote(n_false_values=4),
            lambda: AccuVote(known_accuracies={"s0": 0.9, "s1": 0.6}),
            TruthFinder,
            lambda: TruthFinder(
                implication_weight=0.5, similarity=levenshtein_similarity
            ),
        ):
            assert document(make().fuse(spilled)) == document(
                make().fuse(in_memory)
            )
        if limit == 300 and len(rows) > 1:
            assert budget.spill_count > 0


class TestTextInvariants:
    @given(st.text(max_size=30))
    @settings(max_examples=50)
    def test_canonical_value_idempotent(self, value):
        once = canonical_value(value)
        assert canonical_value(once) == once

    @given(st.text(max_size=30))
    @settings(max_examples=50)
    def test_normalize_attribute_name_idempotent(self, name):
        once = normalize_attribute_name(name)
        assert normalize_attribute_name(once) == once

    @given(
        st.floats(min_value=0.1, max_value=1000, allow_nan=False),
    )
    @settings(max_examples=30)
    def test_unit_round_trip_inches(self, value):
        a = canonical_value(f"{value:.6f} in")
        b = canonical_value(f"{value * 2.54:.6f} cm")
        # 4 significant digits of slack from canonical formatting.
        assert a.split()[-1] == b.split()[-1] == "cm"
        assert float(a.split()[0]) == pytest.approx(
            float(b.split()[0]), rel=2e-3
        )


class TestSimilarityInvariants:
    """Metric axioms every string-similarity measure must satisfy for
    arbitrary inputs: symmetry, identity, and the [0, 1] range."""

    @staticmethod
    def _measures():
        from repro.text.similarity import (
            jaccard_similarity,
            jaro_winkler_similarity,
        )
        from repro.text.tokens import qgrams

        def qgram_similarity(a, b):
            return jaccard_similarity(qgrams(a), qgrams(b))

        return [
            jaccard_similarity,
            jaro_winkler_similarity,
            qgram_similarity,
        ]

    @given(a=st.text(max_size=20), b=st.text(max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, a, b):
        for measure in self._measures():
            assert measure(a, b) == measure(b, a)

    @given(a=st.text(min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_identity(self, a):
        for measure in self._measures():
            assert measure(a, a) == pytest.approx(1.0)

    @given(a=st.text(max_size=20), b=st.text(max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_bounded_unit_interval(self, a, b):
        for measure in self._measures():
            score = measure(a, b)
            assert 0.0 <= score <= 1.0


class TestClusteringInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=30)
    def test_components_partition(self, edges):
        pairs = [(f"r{a}", f"r{b}") for a, b in edges if a != b]
        all_ids = [f"r{i}" for i in range(13)]
        clusters = connected_components(pairs, all_ids)
        flattened = sorted(m for c in clusters for m in c)
        assert flattened == sorted(all_ids)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=4),
            min_size=1,
        )
    )
    @settings(max_examples=30)
    def test_bcubed_perfect_for_true_clustering(self, mapping):
        truth = GroundTruth(
            {f"r{k}": f"e{v}" for k, v in mapping.items()}
        )
        quality = bcubed_quality(truth.true_clusters(), truth)
        assert quality.precision == pytest.approx(1.0)
        assert quality.recall == pytest.approx(1.0)


class TestCanonicalPairOrder:
    @given(
        st.sets(
            st.frozensets(st.text(max_size=4), min_size=2, max_size=2),
            max_size=40,
        )
    )
    @settings(max_examples=80)
    def test_canonical_pairs_are_sorted_oriented_tuples(self, pairs):
        # The one order every engine run — serial, streamed, sharded —
        # scores candidates in; chunk checkpoints line up only if every
        # path agrees on it.
        from repro.linkage.resolver import _canonical_pairs

        assert _canonical_pairs(pairs) == sorted(
            tuple(sorted(pair)) for pair in pairs
        )

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefg"), max_size=6),
            max_size=8,
        )
    )
    @settings(max_examples=80)
    def test_block_pairs_are_deduped_once_for_both_views(self, blocks):
        # Overlapping blocks and a record repeated inside one block (a
        # repeated key): both views come from the one pair loop, and
        # the ordered one is exactly the canonical order of the set.
        from repro.linkage.resolver import _canonical_pairs

        collection = BlockCollection(
            Block(f"k{index}", tuple(ids)) for index, ids in enumerate(blocks)
        )
        naive = {
            frozenset((left, right))
            for ids in blocks
            for left in ids
            for right in ids
            if left != right
        }
        assert collection.candidate_pairs() == naive
        assert collection.ordered_pairs() == _canonical_pairs(naive)


# --- fault-tolerance invariants --------------------------------------


@st.composite
def fault_plans(draw):
    """Records, their pair list, and an arbitrary fault pattern:
    up to 3 persistent poison pairs plus transient chunk crashes."""
    n = draw(st.integers(min_value=2, max_value=12))
    records = [
        Record(
            f"r{index}",
            f"s{index % 2}",
            {"name": draw(short_word), "color": draw(short_word)},
        )
        for index in range(n)
    ]
    ids = [record.record_id for record in records]
    pairs = [
        (ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    ]
    n_chunks = math.ceil(len(pairs) / 4)
    poison = draw(
        st.lists(
            st.sampled_from(pairs), unique=True, min_size=0, max_size=3
        )
    )
    transient = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_chunks - 1),
            unique=True,
            max_size=3,
        )
    )
    return records, pairs, poison, transient


class TestResilienceInvariants:
    """For *any* fault pattern, a ``failure="skip"`` run must degrade
    gracefully: quarantined and processed work partition the input,
    and no match appears that the fault-free run would not produce."""

    @staticmethod
    def _config(poison, transient):
        from repro.obs import ManualClock
        from repro.resilience import ResilienceConfig, RetryPolicy
        from repro.resilience.testing import FaultInjector, crash

        clock = ManualClock(tick=0.0)
        specs = [crash(item=pair) for pair in poison]
        specs += [crash(chunk=index, attempts=1) for index in transient]
        return ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=1.0),
            failure="skip",
            clock=clock,
            sleep=clock.advance,
            fault_injector=FaultInjector(*specs),
        )

    @staticmethod
    def _engine(resilience=None):
        from repro.linkage import (
            FieldComparator,
            ParallelComparisonEngine,
            RecordComparator,
        )
        from repro.text import exact_similarity

        comparator = RecordComparator(
            fields=[
                FieldComparator("name", exact_similarity, weight=2.0),
                FieldComparator("color", exact_similarity),
            ]
        )
        return ParallelComparisonEngine(
            comparator, n_workers=1, chunk_size=4, resilience=resilience
        )

    @given(plan=fault_plans())
    @settings(max_examples=25, deadline=None)
    def test_processed_and_quarantined_partition_pairs(self, plan):
        records, pairs, poison, transient = plan
        engine = self._engine(self._config(poison, transient))
        vectors = engine.compare_pairs(records, pairs)
        processed = [(v.left_id, v.right_id) for v in vectors]
        quarantined = engine.dead_letters.quarantined_items()
        assert set(processed) | set(quarantined) == set(pairs)
        assert set(processed) & set(quarantined) == set()
        assert len(processed) + len(quarantined) == len(pairs)
        assert set(quarantined) == set(poison)

    @given(plan=fault_plans())
    @settings(max_examples=25, deadline=None)
    def test_skip_matches_subset_of_fault_free_matches(self, plan):
        from repro.linkage import ThresholdClassifier

        records, pairs, poison, transient = plan
        classifier = ThresholdClassifier(0.9)
        clean = self._engine().match_pairs(records, pairs, classifier)
        run = self._engine(self._config(poison, transient)).match_pairs(
            records, pairs, classifier
        )
        assert run.match_pairs <= clean.match_pairs
        missing = clean.match_pairs - run.match_pairs
        assert missing <= {frozenset(pair) for pair in poison}


# --- recovery invariants ---------------------------------------------


@st.composite
def kill_plans(draw):
    """A workload plus an arbitrary kill point: the chunk size and the
    chunk index at which the run dies mid-flight."""
    n = draw(st.integers(min_value=4, max_value=10))
    records = [
        Record(
            f"r{index}",
            f"s{index % 2}",
            {"name": draw(short_word), "color": draw(short_word)},
        )
        for index in range(n)
    ]
    ids = [record.record_id for record in records]
    pairs = [
        (ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    ]
    chunk_size = draw(st.integers(min_value=2, max_value=6))
    n_chunks = math.ceil(len(pairs) / chunk_size)
    kill_chunk = draw(st.integers(min_value=0, max_value=n_chunks - 1))
    return records, pairs, chunk_size, kill_chunk


class TestRecoveryInvariants:
    """Resume idempotence: for *any* workload and *any* kill point, a
    run aborted at a chunk boundary and resumed from its checkpoints
    produces exactly the output of a single uninterrupted run."""

    @staticmethod
    def _engine(chunk_size, execution="serial", resilience=None,
                checkpoint=None):
        from repro.linkage import (
            FieldComparator,
            ParallelComparisonEngine,
            RecordComparator,
        )
        from repro.text import exact_similarity

        comparator = RecordComparator(
            fields=[
                FieldComparator("name", exact_similarity, weight=2.0),
                FieldComparator("color", exact_similarity, weight=1.0),
            ]
        )
        return ParallelComparisonEngine(
            comparator,
            execution=execution,
            n_workers=1 if execution == "serial" else 2,
            chunk_size=chunk_size,
            resilience=resilience,
            checkpoint=checkpoint,
        )

    def _check_resume_equals_single_run(self, plan, execution):
        import tempfile

        from repro.linkage import ThresholdClassifier
        from repro.recovery import RunStore
        from repro.resilience import (
            ChunkExecutionError,
            ResilienceConfig,
            RetryPolicy,
        )
        from repro.resilience.testing import FaultInjector, crash

        records, pairs, chunk_size, kill_chunk = plan
        classifier = ThresholdClassifier(0.9)
        single = self._engine(chunk_size, execution).match_pairs(
            records, pairs, classifier
        )
        with tempfile.TemporaryDirectory() as root:
            # The "kill": abort hard at the chosen chunk, leaving only
            # the chunks completed before it checkpointed.
            abort = ResilienceConfig(
                retry=RetryPolicy(max_attempts=1, base_delay=0.0),
                failure="fail",
                fault_injector=FaultInjector(crash(chunk=kill_chunk)),
            )
            with pytest.raises(ChunkExecutionError):
                self._engine(
                    chunk_size,
                    execution,
                    resilience=abort,
                    checkpoint=RunStore(root),
                ).match_pairs(records, pairs, classifier)
            resumed = self._engine(
                chunk_size, execution, checkpoint=RunStore(root)
            ).match_pairs(records, pairs, classifier)
        assert resumed.match_pairs == single.match_pairs
        assert resumed.scored_edges == single.scored_edges
        assert resumed.completed_chunks == resumed.n_chunks

    @given(plan=kill_plans())
    @settings(max_examples=25, deadline=None)
    def test_resume_equals_single_run_serial(self, plan):
        self._check_resume_equals_single_run(plan, "serial")

    @pytest.mark.slow
    @given(plan=kill_plans())
    @settings(max_examples=5, deadline=None)
    def test_resume_equals_single_run_process(self, plan):
        self._check_resume_equals_single_run(plan, "process")


class TestShardedKillResumeInvariants:
    """Sharded resume idempotence, with a *real* process kill.

    For any corpus, shard count, and chunk size: kill one shard's
    worker mid-matching (``tests/dist_driver.py`` dies hard with
    ``os._exit``), resume against the same checkpoint store, and the
    merged output is byte-identical to a serial run that never died —
    with exactly the killed shard replaying chunks and exactly the
    shards that finished before it reused from their result artifacts.
    """

    @staticmethod
    def _run_driver(*args, expect=0):
        import json
        import os
        import subprocess
        import sys
        import tempfile

        driver = os.path.join(os.path.dirname(__file__), "dist_driver.py")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(
                None,
                [
                    os.path.join(os.path.dirname(driver), "..", "src"),
                    env.get("PYTHONPATH", ""),
                ],
            )
        )
        # Files, not pipes: a killed driver may orphan inherited fds,
        # and waiting on pipe EOF would hang (see test_recovery.py).
        with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile(
            "w+"
        ) as err:
            process = subprocess.Popen(
                [sys.executable, driver, *args],
                stdout=out,
                stderr=err,
                text=True,
                env=env,
            )
            try:
                returncode = process.wait(timeout=300)
            except subprocess.TimeoutExpired:
                process.kill()
                raise
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        assert returncode == expect, (
            f"driver exited {returncode}, expected {expect}\n{stderr}"
        )
        return json.loads(stdout) if expect == 0 and stdout.strip() else None

    @pytest.mark.slow
    @given(
        n_entities=st.integers(min_value=16, max_value=28),
        seed=st.integers(min_value=0, max_value=40),
        n_shards=st.integers(min_value=2, max_value=4),
        chunk_size=st.sampled_from([32, 64]),
    )
    @settings(max_examples=3, deadline=None)
    def test_kill_one_shard_resume_only_that_shard(
        self, n_entities, seed, n_shards, chunk_size
    ):
        import tempfile

        from hypothesis import assume

        from tests.dist_driver import choose_kill, make_corpus, run_serial

        records, blocker, __, __ = make_corpus(n_entities, seed)
        kill = choose_kill(records, blocker, n_shards, chunk_size)
        assume(kill is not None)
        kill_shard, kill_chunk, n_chunks = kill
        serial = run_serial(n_entities, seed)
        with tempfile.TemporaryDirectory() as root:
            common = [
                "sharded",
                root,
                "--entities", str(n_entities),
                "--seed", str(seed),
                "--shards", str(n_shards),
                "--chunk-size", str(chunk_size),
            ]
            self._run_driver(
                *common,
                "--kill-shard", str(kill_shard),
                "--kill-chunk", str(kill_chunk),
                expect=137,
            )
            document = self._run_driver(*common)
        shards = document.pop("shards")
        counters = document.pop("counters")
        assert document == serial
        by_shard = {entry["shard"]: entry for entry in shards}
        assert set(by_shard) == set(range(n_shards))
        for shard, entry in by_shard.items():
            assert entry["completed_chunks"] == entry["n_chunks"]
            if shard == kill_shard:
                # The killed shard alone replays its checkpointed
                # chunks — at least the ones completed before death.
                assert not entry["resumed"]
                assert entry["replayed_chunks"] >= kill_chunk > 0
                assert entry["replayed_chunks"] < entry["n_chunks"]
            elif shard < kill_shard:
                # Inline backend runs shards in order: earlier shards
                # finished and persisted, so resume reuses them whole.
                assert entry["resumed"]
                assert entry["replayed_chunks"] == 0
            else:
                # Later shards never started before the kill.
                assert not entry["resumed"]
                assert entry["replayed_chunks"] == 0
        assert counters.get("dist.shard.resumed", 0) == kill_shard
        assert counters.get("dist.shard.replayed_chunks", 0) == by_shard[
            kill_shard
        ]["replayed_chunks"]
