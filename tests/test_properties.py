"""Library-wide property-based tests (hypothesis).

These check structural invariants that must hold for *any* input, not
just the curated fixtures: blocking soundness, meta-blocking
containment, fusion posterior normalization, canonicalization
idempotence, and clustering partition properties.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
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
        for item, values, supporters, __ in claims.groups():
            posteriors = score_item(values, supporters)
            assert tuple(values) == claims.values_for(item)
            assert len(posteriors) == len(values)
            assert math.fsum(posteriors) == pytest.approx(1.0)

    @given(
        claims=claim_sets(),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=25, deadline=None)
    def test_fusers_equal_the_claim_walk(
        self, tmp_path_factory, claims, seed
    ):
        # The oracle is the claim walk every fuser ran before the value
        # table: each golden configuration, over any claims in any
        # arrival order, in memory and spilled, must return its whole
        # result — dict order and the last bit of every float.
        import json

        from repro.outofcore import MemoryBudget, SpillableClaimGroups
        from repro.recovery import RunStore
        from tests.oracle import naive_fusion
        from tests.test_fusion import GOLDEN_FUSERS, result_document

        arrival = list(claims)
        random.Random(seed).shuffle(arrival)
        in_memory = ClaimSet(arrival)
        spilled = SpillableClaimGroups(
            RunStore(tmp_path_factory.mktemp("claims"), durable=False),
            MemoryBudget(300),
        )
        for claim in arrival:
            spilled.add(claim.source_id, claim.item_id, claim.value)

        def document(result):
            return json.dumps(result_document(result))

        for name, make in GOLDEN_FUSERS.items():
            with naive_fusion():
                expected = document(make().fuse(in_memory))
            assert document(make().fuse(in_memory)) == expected, name
            if name != "accucopy":
                assert document(make().fuse(spilled)) == expected, name

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


#: Claim triples over few sources and items, so a (source, item) pair is
#: often claimed again, with the same value or another.
claim_triples = st.lists(
    st.tuples(
        st.sampled_from(["s0", "s1", "s2", "s3"]),
        st.sampled_from(["i0", "i1", "i2", "i3", "i4", "i5"]),
        st.sampled_from(["v0", "v1", "v2"]),
    ),
    max_size=40,
)


class TestClaimStore:
    @given(triples=claim_triples, kept=st.sets(st.sampled_from(["s0", "s2"])))
    @settings(max_examples=60, deadline=None)
    def test_offered_columns_equal_the_claim_walk(self, triples, kept):
        # The oracle is the claim index as it was built over one Claim
        # object per claim: offered triples, first claim per (source,
        # item) winning, must read back as that index over those claims.
        from tests.oracle import reference_claim_index

        claims = ClaimSet()
        first: dict[tuple[str, str], Claim] = {}
        for source, item, value in triples:
            assert claims.offer(source, item, value) == (
                (source, item) not in first
            )
            first.setdefault((source, item), Claim(source, item, value))
        walk = list(first.values())
        reference = reference_claim_index(walk)
        assert len(claims) == reference.n_claims == len(walk)
        assert claims.claims == tuple(walk) and list(claims) == walk
        assert claims.items() == tuple(reference._by_item)
        assert claims.sources() == tuple(reference._by_source)
        index = claims.index()
        assert index.value_table == reference.value_table
        assert index.group_slots == reference.group_slots
        assert index.bitsets == reference.bitsets
        for item in ("i0", "i1", "i2", "i3", "i4", "i5"):
            about = reference._by_item.get(item, [])
            assert claims.claims_for(item) == tuple(about)
            values = tuple(dict.fromkeys(claim.value for claim in about))
            assert claims.values_for(item) == values
            for value in ("v0", "v1", "v2"):
                assert claims.supporters(item, value) == tuple(
                    claim.source_id for claim in about if claim.value == value
                )
        for source in ("s0", "s1", "s2", "s3"):
            made = reference._by_source.get(source, [])
            assert claims.claims_by(source) == tuple(made)
            for item in ("i0", "i1", "i2", "i3", "i4", "i5"):
                claim = first.get((source, item))
                assert claims.value_of(source, item) == (
                    claim and claim.value
                )
            for other in ("s0", "s1", "s2", "s3"):
                theirs = [
                    claim.item_id
                    for claim in reference._by_source.get(other, [])
                ]
                assert claims.shared_items(other, source) == tuple(
                    claim.item_id for claim in made if claim.item_id in theirs
                )
        assert claims.restricted_to_sources(kept).claims == tuple(
            claim for claim in walk if claim.source_id in kept
        )

    def test_a_second_claim_and_an_empty_id_are_refused(self):
        from repro.core.errors import DataModelError

        claims = ClaimSet([Claim("s", "i", "v")])
        for value in ("v", "w"):
            with pytest.raises(DataModelError, match="already claims"):
                claims.add(Claim("s", "i", value))
            assert not claims.offer("s", "i", value)
        for source, item in (("", "i"), ("s", ""), ("", "")):
            with pytest.raises(DataModelError, match="non-empty"):
                claims.offer(source, item, "v")
            with pytest.raises(DataModelError, match="non-empty"):
                Claim(source, item, "v")
        assert claims.claims == (Claim("s", "i", "v"),)
        assert claims.items() == ("i",) and claims.sources() == ("s",)

    def test_no_object_per_claim(self):
        # 20,000 claims over 2,000 items and 40 sources: the cyclic
        # collector tracks an object per source (its item list) and a
        # handful per set, never one per claim.
        import gc

        triples = [
            (f"s{s}", f"i{i}", f"v{s * i % 5}")
            for i in range(2_000)
            for s in range(40)
            if (s + i) % 4 == 0
        ]
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            claims = ClaimSet()
            for triple in triples:
                claims.offer(*triple)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(claims) == 20_000
        assert added <= len(claims.items()) + len(claims.sources()) + 10


#: Claimed measurements: units that convert into one another, a decimal
#: comma, a bare number and a value that is no number at all.
MEASUREMENTS = ("10 g", "10,5 g", "0.0105 kg", "12 g", "12", "40 g",
                "1 in", "2,54 cm", "black")


@st.composite
def measurement_claim_sets(draw):
    """:func:`claim_sets`, each claim one of :data:`MEASUREMENTS`."""
    n_sources = draw(st.integers(min_value=1, max_value=5))
    n_items = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=999)))
    claims = ClaimSet()
    for s in range(n_sources):
        for i in range(n_items):
            if rng.random() < 0.8:
                claims.add(Claim(f"s{s}", f"i{i}", rng.choice(MEASUREMENTS)))
    if len(claims) == 0:
        claims.add(Claim("s0", "i0", MEASUREMENTS[0]))
    return claims


def spilled_claims(tmp_path_factory, arrival):
    """``arrival``'s claims as spilled groups, under a budget they exceed."""
    from repro.outofcore import MemoryBudget, SpillableClaimGroups
    from repro.recovery import RunStore

    spilled = SpillableClaimGroups(
        RunStore(tmp_path_factory.mktemp("claims"), durable=False),
        MemoryBudget(300),
    )
    for claim in arrival:
        spilled.add(claim.source_id, claim.item_id, claim.value)
    return spilled


def exact(floats):
    return {key: value.hex() for key, value in floats.items()}


def interleaved(claims, rng):
    """``claims`` re-dealt across items at random, each item's own claims
    still in their order: item and source first-seen order move, and
    what any one item saw does not."""
    queues = {}
    for claim in claims:
        queues.setdefault(claim.item_id, []).append(claim)
    dealt = [claim.item_id for claim in claims]
    rng.shuffle(dealt)
    return [queues[item].pop(0) for item in dealt]


class TestClaimOrderIsNotAnInput:
    @given(
        claims=claim_sets(),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=25, deadline=None)
    def test_fused_numbers_do_not_depend_on_claim_order(
        self, tmp_path_factory, claims, seed
    ):
        # Every fusion sum is exact, so nothing fused depends on the
        # order claims arrive in (compared as mappings: dict order
        # follows arrival). Two parts:
        # - claims re-interleaved across items, each item's claims in
        #   their order: every fuser, in memory and spilled;
        # - any permutation: AccuVote and TruthFinder ± implication.
        #   Vote and AccuCopy are left out, and only for Vote's
        #   documented tie rule — the first value in claim order wins a
        #   tied count — which AccuCopy inherits by bootstrapping its
        #   truths from Vote.
        from tests.test_fusion import GOLDEN_FUSERS

        def fused(name, arrival):
            """The result as mappings, the same in memory and spilled."""
            make = GOLDEN_FUSERS[name]
            sources = [ClaimSet(arrival)]
            if name != "accucopy":
                sources.append(spilled_claims(tmp_path_factory, arrival))
            results = [make().fuse(source) for source in sources]
            documents = [
                (
                    dict(result.chosen),
                    exact(result.confidence),
                    exact(result.source_accuracy),
                    exact(result.copy_probability),
                    result.iterations,
                )
                for result in results
            ]
            assert all(d == documents[0] for d in documents), name
            return documents[0]

        rng = random.Random(seed)
        arrival = list(claims)
        permuted = rng.sample(arrival, len(arrival))
        for name in GOLDEN_FUSERS:
            expected = fused(name, arrival)
            assert fused(name, interleaved(arrival, rng)) == expected, name
            if name not in ("vote", "accucopy"):
                assert fused(name, permuted) == expected, name

    @given(
        claims=measurement_claim_sets(),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=25, deadline=None)
    def test_crh_does_not_depend_on_claim_order(
        self, tmp_path_factory, claims, seed
    ):
        # CRH reads the same groups as every other fuser, and its sums,
        # weighted median included, are exact: any permutation of the
        # claims, in memory and spilled, fuses to the same truths,
        # weights and iterations.
        from repro.fusion import CRHNumericFuser

        def fused(loss, arrival):
            documents = []
            for source in (
                ClaimSet(arrival),
                spilled_claims(tmp_path_factory, arrival),
            ):
                result = CRHNumericFuser(loss=loss).fuse(source)
                documents.append(
                    (
                        dict(result.chosen),
                        exact(result.source_accuracy),
                        result.iterations,
                    )
                )
            assert documents[0] == documents[1], loss
            return documents[0]

        arrival = list(claims)
        permuted = random.Random(seed).sample(arrival, len(arrival))
        for loss in ("absolute", "squared"):
            assert fused(loss, permuted) == fused(loss, arrival), loss


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


#: Product-like names from a few brand words, model numbers a digit
#: apart and measurements, or short text over a few characters: where
#: model-number partners and greedy window matching have choices.
NAMES = st.one_of(
    st.lists(
        st.sampled_from(
            ["canon", "cannon", "pro", "123", "124", "132", "x1", "1x",
             "12.5", "cm", "in", "kg", "5"]
        ),
        max_size=5,
    ).map(" ".join),
    st.text(alphabet="ab1 .", max_size=10),
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

    @given(a=NAMES, b=NAMES)
    @example("canon 123 124", "canon 123")
    @settings(max_examples=150, deadline=None)
    def test_every_registered_similarity_is_bitwise_symmetric(self, a, b):
        # What lets the token tier and NameScores key a pair by value
        # order, and keeps a linkage decision from depending on which
        # record is the left argument: raw strings and prepared payloads.
        from repro.linkage.comparison import _SIMILARITY_SPECS

        for function, spec in _SIMILARITY_SPECS.items():
            name = function.__name__
            assert function(a, b) == function(b, a), name
            left, right = spec.prepare(a), spec.prepare(b)
            assert spec.similarity(left, right) == spec.similarity(
                right, left
            ), name

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
            st.lists(
                st.sampled_from(
                    (*"abcdefg", "r9", "r10", "r100", "é", "z\u00e9", "日本")
                ),
                max_size=6,
            ),
            max_size=8,
        )
    )
    @example([])
    @example([["r9", "r10"], ["r10", "r100", "r9"]])
    @settings(max_examples=80)
    def test_block_pairs_are_deduped_once_for_both_views(self, blocks):
        # Overlapping blocks and a record repeated inside one block (a
        # repeated key): each pair is kept once, the unordered view
        # equals the naive set, and the ordered one is exactly its
        # canonical order.
        # Ids order as strings ("r10" < "r9"), past ASCII too.
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
