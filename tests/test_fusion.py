"""Tests for all fusion algorithms and copy detection."""

import pytest

from repro.core import ConfigurationError, EmptyInputError
from repro.fusion import (
    AccuCopy,
    AccuVote,
    Claim,
    ClaimSet,
    CopyDetector,
    CRHNumericFuser,
    OnlineFusion,
    TruthFinder,
    VotingFuser,
)
from repro.quality import copy_detection_quality, fusion_accuracy
from repro.synth import ClaimWorldConfig, generate_claims


def claim_set(rows):
    return ClaimSet(Claim(s, i, v) for s, i, v in rows)


@pytest.fixture(scope="module")
def copier_world():
    return generate_claims(
        ClaimWorldConfig(
            n_items=250,
            n_independent=8,
            n_copiers=8,
            accuracy_range=(0.45, 0.75),
            copy_rate=0.9,
            n_false_values=3,
            parent_pool=2,
            parent_accuracy=0.35,
            seed=21,
        )
    )


@pytest.fixture(scope="module")
def clean_world():
    return generate_claims(
        ClaimWorldConfig(
            n_items=250,
            n_independent=10,
            accuracy_range=(0.55, 0.95),
            n_false_values=5,
            seed=22,
        )
    )


class TestVoting:
    def test_majority_wins(self):
        claims = claim_set(
            [("s1", "i", "x"), ("s2", "i", "x"), ("s3", "i", "y")]
        )
        result = VotingFuser().fuse(claims)
        assert result.chosen["i"] == "x"
        assert result.confidence["i"] == pytest.approx(2 / 3)

    def test_deterministic_tie_break(self):
        claims = claim_set([("s1", "i", "x"), ("s2", "i", "y")])
        assert VotingFuser().fuse(claims).chosen["i"] == "x"

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            VotingFuser().fuse(ClaimSet())


class TestTruthFinder:
    def test_beats_voting_with_skewed_accuracy(self, clean_world):
        vote = fusion_accuracy(
            VotingFuser().fuse(clean_world.claims), clean_world.truth
        )
        tf = fusion_accuracy(
            TruthFinder().fuse(clean_world.claims), clean_world.truth
        )
        assert tf >= vote - 0.02

    def test_trust_ordering_tracks_planted_accuracy(self, clean_world):
        result = TruthFinder().fuse(clean_world.claims)
        sources = sorted(
            clean_world.accuracies,
            key=lambda s: clean_world.accuracies[s],
        )
        worst, best = sources[0], sources[-1]
        assert result.source_accuracy[best] > result.source_accuracy[worst]

    def test_converges(self, clean_world):
        result = TruthFinder(max_iterations=50).fuse(clean_world.claims)
        assert result.iterations < 50

    def test_implication_requires_similarity(self):
        with pytest.raises(ConfigurationError):
            TruthFinder(implication_weight=0.5)

    def test_implication_boosts_similar_values(self):
        from repro.text import levenshtein_similarity

        claims = claim_set(
            [
                ("s1", "i", "12.5 cm"),
                ("s2", "i", "12.5cm"),
                ("s3", "i", "99"),
                ("s4", "i", "99"),
            ]
        )
        plain = TruthFinder().fuse(claims)
        with_implication = TruthFinder(
            implication_weight=0.8, similarity=levenshtein_similarity
        ).fuse(claims)
        # The two near-identical readings support each other.
        assert (
            with_implication.confidence.get("i", 0.0) > 0.0
        )
        assert with_implication.chosen["i"] in {"12.5 cm", "12.5cm", "99"}


class TestAccuVote:
    def test_recovers_planted_accuracies(self, clean_world):
        result = AccuVote(n_false_values=5).fuse(clean_world.claims)
        errors = [
            abs(result.source_accuracy[s] - clean_world.accuracies[s])
            for s in clean_world.accuracies
        ]
        assert sum(errors) / len(errors) < 0.1

    def test_known_accuracies_skip_iteration(self, clean_world):
        result = AccuVote(
            n_false_values=5, known_accuracies=clean_world.accuracies
        ).fuse(clean_world.claims)
        assert result.iterations == 1
        assert fusion_accuracy(result, clean_world.truth) > 0.85

    def test_beats_voting(self, clean_world):
        vote = fusion_accuracy(
            VotingFuser().fuse(clean_world.claims), clean_world.truth
        )
        accu = fusion_accuracy(
            AccuVote(n_false_values=5).fuse(clean_world.claims),
            clean_world.truth,
        )
        assert accu >= vote

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            AccuVote(n_false_values=0)
        with pytest.raises(ConfigurationError):
            AccuVote(initial_accuracy=1.0)


class TestCopyDetection:
    def test_detects_planted_copiers(self, copier_world):
        accuracies = dict(copier_world.accuracies)
        detector = CopyDetector(n_false_values=3)
        detected = detector.detect(
            copier_world.claims, copier_world.truth, accuracies
        )
        quality = copy_detection_quality(
            detected, copier_world.copier_of, include_siblings=True
        )
        assert quality.recall > 0.8

    def test_independent_pairs_mostly_clear(self, clean_world):
        detector = CopyDetector(n_false_values=5)
        detected = detector.detect(
            clean_world.claims, clean_world.truth, clean_world.accuracies
        )
        flagged = [p for p, prob in detected.items() if prob >= 0.5]
        n_pairs = len(clean_world.claims.sources())
        n_pairs = n_pairs * (n_pairs - 1) // 2
        assert len(flagged) / n_pairs < 0.2

    def test_min_overlap_guard(self):
        detector = CopyDetector(min_overlap=5)
        claims = claim_set([("s1", "i", "x"), ("s2", "i", "x")])
        assert (
            detector.pair_probability(
                claims, "s1", "s2", {"i": "x"}, {"s1": 0.8, "s2": 0.8}
            )
            == 0.0
        )

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            CopyDetector(copy_rate=0.0)
        with pytest.raises(ConfigurationError):
            CopyDetector(prior=1.0)


class TestAccuCopy:
    def test_immune_to_copier_cabal(self, copier_world):
        vote = fusion_accuracy(
            VotingFuser().fuse(copier_world.claims), copier_world.truth
        )
        accuvote = fusion_accuracy(
            AccuVote(n_false_values=3).fuse(copier_world.claims),
            copier_world.truth,
        )
        accucopy = fusion_accuracy(
            AccuCopy(n_false_values=3).fuse(copier_world.claims),
            copier_world.truth,
        )
        assert accucopy > vote
        assert accucopy > accuvote
        assert accucopy > 0.8

    def test_copy_probabilities_reported(self, copier_world):
        result = AccuCopy(n_false_values=3).fuse(copier_world.claims)
        assert result.copy_probability
        quality = copy_detection_quality(
            result.copy_probability,
            copier_world.copier_of,
            include_siblings=True,
        )
        assert quality.recall > 0.7

    def test_no_copiers_matches_accuvote(self, clean_world):
        accuvote = AccuVote(n_false_values=5).fuse(clean_world.claims)
        accucopy = AccuCopy(n_false_values=5).fuse(clean_world.claims)
        agreement = sum(
            1
            for item in clean_world.claims.items()
            if accuvote.chosen[item] == accucopy.chosen[item]
        ) / len(clean_world.claims.items())
        assert agreement > 0.95


class TestOnlineFusion:
    def test_matches_batch_answers(self, clean_world):
        online = OnlineFusion(clean_world.accuracies, n_false_values=5)
        result, trace = online.run(clean_world.claims)
        batch = AccuVote(
            n_false_values=5, known_accuracies=clean_world.accuracies
        ).fuse(clean_world.claims)
        agreement = sum(
            1
            for item in clean_world.claims.items()
            if result.chosen[item] == batch.chosen[item]
        ) / len(clean_world.claims.items())
        assert agreement > 0.97

    def test_termination_monotone(self, clean_world):
        online = OnlineFusion(clean_world.accuracies, n_false_values=5)
        __, trace = online.run(clean_world.claims)
        assert list(trace.terminated) == sorted(trace.terminated)
        assert trace.terminated[-1] > 0.9

    def test_probe_order_by_accuracy(self, clean_world):
        online = OnlineFusion(clean_world.accuracies)
        order = online.probe_order(clean_world.claims)
        accuracies = [clean_world.accuracies[s] for s in order]
        assert accuracies == sorted(accuracies, reverse=True)

    def test_early_expected_correctness_rises(self, clean_world):
        online = OnlineFusion(clean_world.accuracies, n_false_values=5)
        __, trace = online.run(clean_world.claims)
        assert trace.expected_correctness[-1] >= trace.expected_correctness[0]

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            OnlineFusion({})
        with pytest.raises(ConfigurationError):
            OnlineFusion({"s": 0.9}, stop_posterior=0.3)


class TestOnlineFusionSparseClaims:
    """Degenerate claim sets the serving layer feeds per entity:
    single-source entities and sources that abstain on most items."""

    def test_single_source_takes_every_claim(self):
        claims = claim_set(
            [("s1", "brand", "canon"), ("s1", "zoom", "4x")]
        )
        online = OnlineFusion({"s1": 0.8})
        result, trace = online.run(claims)
        assert result.chosen == {"brand": "canon", "zoom": "4x"}
        # An unopposed claim still carries real (sub-certain) posterior.
        assert all(0.5 < result.confidence[i] <= 1.0 for i in result.chosen)
        assert trace.probe_order == ("s1",)

    def test_single_claim_single_item(self):
        online = OnlineFusion({"only": 0.9})
        result, __ = online.run(claim_set([("only", "item", "value")]))
        assert result.chosen == {"item": "value"}

    def test_mostly_abstaining_sources(self):
        # Three sources, three items, but each source claims only one
        # item — every item is effectively single-source.
        claims = claim_set(
            [("s1", "a", "1"), ("s2", "b", "2"), ("s3", "c", "3")]
        )
        online = OnlineFusion({"s1": 0.9, "s2": 0.8, "s3": 0.7})
        result, __ = online.run(claims)
        assert result.chosen == {"a": "1", "b": "2", "c": "3"}

    def test_abstention_does_not_vote(self):
        # s2 abstains on "a": s1's unopposed claim must win even though
        # s2 is the more accurate source overall.
        claims = claim_set(
            [
                ("s1", "a", "canon"),
                ("s1", "b", "4x"),
                ("s2", "b", "9x"),
            ]
        )
        online = OnlineFusion({"s1": 0.6, "s2": 0.95})
        result, __ = online.run(claims)
        assert result.chosen["a"] == "canon"
        assert result.chosen["b"] == "9x"

    def test_empty_claim_set_rejected(self):
        online = OnlineFusion({"s1": 0.8})
        with pytest.raises(EmptyInputError):
            online.run(ClaimSet())


# --- golden digests: the whole FusionResult, to the last float -------


def _golden_world(n_copiers):
    """A seeded planted world with its claims in a fixed shuffled order
    (arrival order drives value first-seen order and float sum order)."""
    import random

    planted = generate_claims(
        ClaimWorldConfig(
            n_items=120,
            n_independent=8,
            n_copiers=n_copiers,
            coverage=0.7,
            n_false_values=4,
            seed=1900 + n_copiers,
        )
    )
    arrival = list(planted.claims)
    random.Random(19).shuffle(arrival)
    return ClaimSet(arrival)


def _rank_similarity(a, b):
    """Planted values are ``<item>/v<k>``; nearby ranks imply each other."""
    rank_a, rank_b = int(a.rsplit("v", 1)[1]), int(b.rsplit("v", 1)[1])
    return 1.0 / (1.0 + abs(rank_a - rank_b))


GOLDEN_FUSERS = {
    "vote": VotingFuser,
    "accuvote": lambda: AccuVote(n_false_values=4),
    "truthfinder": TruthFinder,
    "truthfinder-implication": lambda: TruthFinder(
        implication_weight=0.5, similarity=_rank_similarity
    ),
    "accucopy": lambda: AccuCopy(n_false_values=4),
}

#: sha256 of :func:`result_document` as canonical JSON, recorded at the
#: parent of the PR that put every fuser on one sweep and one loop
#: (f6baee5), before any edit. Floats serialize by ``repr``, so a digest
#: moves if any low bit of any confidence or accuracy does.
GOLDEN_DIGESTS = {
    ("clean", "vote"): (
        "f6a217f0ed15ec283149782d5f05338917dacbf7a4d5ba2345b1094dd1e40270"
    ),
    ("clean", "accuvote"): (
        "42177bbbbcbd4359bacf6654fbf7dbc85445db79f4916f425ef716c14decc934"
    ),
    ("clean", "truthfinder"): (
        "a6c56eae4d83416bb150864e783cb8cd581ddc8c7f37af1a04ebc66225271407"
    ),
    ("clean", "truthfinder-implication"): (
        "eb24df558129b1270e930d822b9d43847a00347233c85a1427b5e5f08ccc89d5"
    ),
    ("clean", "accucopy"): (
        "502abb8b38d88280d162646cc6a0b2e2e5afd96f087ad4ad960727d7263b0ad1"
    ),
    ("copiers", "vote"): (
        "6ab55378afaa66f73180717939e7e7379a843d2e5b760ed3db74650e55fc3ba1"
    ),
    ("copiers", "accuvote"): (
        "1233317f6058af27cf3f80f722a6a9003323f2eae58363395cceb5863a908696"
    ),
    ("copiers", "truthfinder"): (
        "6ff2c0b2c92f057933e2ee85f1e2f3e4202455d591ecb3a64a5fc4cf91eca140"
    ),
    ("copiers", "truthfinder-implication"): (
        "1eab41d726542eb54ee77e95cc904b6a55d6edf91d2ab2dd11e3a36b0116b5c1"
    ),
    ("copiers", "accucopy"): (
        "bddc7145a1bd15b3b6591973241e184cd8da8cc12f841da2ff3de16198cbef4f"
    ),
}


def result_document(result):
    """Every field of a FusionResult, dict order included."""
    return {
        "chosen": list(result.chosen.items()),
        "confidence": list(result.confidence.items()),
        "source_accuracy": list(result.source_accuracy.items()),
        "iterations": result.iterations,
        "copy_probability": [
            [a, b, p] for (a, b), p in result.copy_probability.items()
        ],
    }


def result_digest(result):
    import hashlib
    import json

    document = json.dumps(result_document(result), separators=(",", ":"))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("world, fuser", sorted(GOLDEN_DIGESTS))
    def test_whole_result_is_unchanged(self, world, fuser):
        claims = _golden_world(n_copiers=6 if world == "copiers" else 0)
        result = GOLDEN_FUSERS[fuser]().fuse(claims)
        assert result_digest(result) == GOLDEN_DIGESTS[(world, fuser)]


# --- configuration the solvers refuse ---------------------------------


def _zero_iteration_em():
    from repro.linkage import ComparisonVector, fit_fellegi_sunter

    vectors = [ComparisonVector("a", "b", (0.9, 0.1), 0.5)]
    return fit_fellegi_sunter(vectors, max_iterations=0)


class TestSolverConfiguration:
    """A solver told to run no iteration has no answer to give: it is a
    configuration error from every solver, never a ``KeyError`` out of
    the winner tail."""

    @pytest.mark.parametrize(
        "solve",
        [
            lambda claims: AccuVote(max_iterations=0).fuse(claims),
            lambda claims: TruthFinder(max_iterations=0).fuse(claims),
            lambda claims: AccuCopy(outer_iterations=0).fuse(claims),
            lambda claims: CRHNumericFuser(max_iterations=0).fuse(claims),
            lambda claims: _zero_iteration_em(),
            lambda claims: AccuCopy(initial_accuracy=1.5).fuse(claims),
        ],
        ids=[
            "accuvote",
            "truthfinder",
            "accucopy",
            "crh",
            "em",
            "accucopy-prior",
        ],
    )
    def test_refused_as_configuration_error(self, solve):
        claims = claim_set(
            [("s1", "i", "1"), ("s2", "i", "1"), ("s3", "i", "2")]
        )
        with pytest.raises(ConfigurationError):
            solve(claims)


# --- conflict-resolution edges, in memory and spilled -----------------

#: (case, claims, Vote's choice for item "i", the score-ranked fusers'
#: choice). On an exact tie Vote keeps the value claimed first; AccuVote,
#: TruthFinder and AccuCopy break equal scores toward the larger value
#: string.
EDGE_CASES = [
    ("single claim", [("s1", "i", "a")], "a", "a"),
    (
        "unanimous",
        [("s1", "i", "a"), ("s2", "i", "a"), ("s3", "i", "a")],
        "a",
        "a",
    ),
    (
        "exact 2-2 tie",
        [
            ("s1", "i", "a"),
            ("s2", "i", "b"),
            ("s3", "i", "a"),
            ("s4", "i", "b"),
        ],
        "a",
        "b",
    ),
    (
        "exact 2-2 tie, larger value claimed first",
        [
            ("s1", "i", "b"),
            ("s2", "i", "a"),
            ("s3", "i", "b"),
            ("s4", "i", "a"),
        ],
        "b",
        "b",
    ),
    ("one source only", [("s1", "i", "a"), ("s1", "j", "b")], "a", "a"),
]

#: Every fuser in memory and spilled. A fuser that reads one item's
#: claims at a time runs on either; AccuCopy's detector indexes the
#: whole ClaimSet, so on spilled claims it is the refused case.
EDGE_RUNS = [
    (fuser, source)
    for fuser in ("vote", "accuvote", "truthfinder", "accucopy")
    for source in ("memory", "spilled")
]
REFUSED_RUNS = {("accucopy", "spilled")}


def _claim_source(tmp_path, rows, source):
    """``rows`` as a ClaimSet, or spilled under a budget of a few claims."""
    if source == "memory":
        return claim_set(rows)
    from repro.outofcore import MemoryBudget, SpillableClaimGroups
    from repro.recovery import RunStore

    groups = SpillableClaimGroups(
        RunStore(tmp_path, durable=False), MemoryBudget(400)
    )
    for row in rows:
        groups.add(*row)
    return groups


class TestConflictEdges:
    @pytest.mark.parametrize("fuser, source", EDGE_RUNS)
    @pytest.mark.parametrize(
        "rows, vote, ranked",
        [case[1:] for case in EDGE_CASES],
        ids=[case[0] for case in EDGE_CASES],
    )
    def test_edge_table(self, tmp_path, rows, vote, ranked, fuser, source):
        claims = _claim_source(tmp_path, rows, source)
        if (fuser, source) in REFUSED_RUNS:
            # By name and before any pass over the spilled claims.
            claims.groups = None
            with pytest.raises(ConfigurationError, match="accucopy.*ClaimSet"):
                GOLDEN_FUSERS[fuser]().fuse(claims)
            return
        result = GOLDEN_FUSERS[fuser]().fuse(claims)
        assert result.chosen["i"] == (vote if fuser == "vote" else ranked)
        assert set(result.chosen) == {item for __, item, __ in rows}
        assert all(0.0 < c <= 1.0 for c in result.confidence.values())

    @pytest.mark.parametrize("fuser, source", EDGE_RUNS)
    def test_empty_is_refused(self, tmp_path, fuser, source):
        claims = _claim_source(tmp_path, [], source)
        refused = (fuser, source) in REFUSED_RUNS
        with pytest.raises(ConfigurationError if refused else EmptyInputError):
            GOLDEN_FUSERS[fuser]().fuse(claims)


@pytest.mark.parametrize("source", ["memory", "spilled"])
def test_sweep_adds_left_to_right(tmp_path, source):
    """A source's mean adds its scores in claim order, one by one: ten
    scores of 0.1 make 0.9999999999999999. Compensated summation (the
    builtin ``sum`` since Python 3.12) makes 1.0, and the mean 0.1."""
    from repro.fusion.base import sweep

    rows = [("s", f"i{k}", "v") for k in range(10)]
    claims = _claim_source(tmp_path, rows, source)
    __, __, means = sweep(claims, lambda values, supporters: [0.1])
    assert means == {"s": 0.09999999999999999}


@pytest.mark.parametrize("source", ["memory", "spilled"])
def test_implication_is_scored_per_item(tmp_path, source):
    """``i`` and ``j`` have one supporter pattern, ``s1`` against ``s2``,
    but values that imply each other to different degrees (ranks 1 and
    2, 1 and 5): a rule that reads values may not share its scores
    across the pattern."""
    from tests.oracle import naive_fusion

    rows = [
        ("s1", "i", "i/v1"),
        ("s2", "i", "i/v2"),
        ("s1", "j", "j/v1"),
        ("s2", "j", "j/v5"),
    ]
    make = GOLDEN_FUSERS["truthfinder-implication"]
    with naive_fusion():
        expected = result_document(make().fuse(claim_set(rows)))
    result = make().fuse(_claim_source(tmp_path, rows, source))
    assert result_document(result) == expected
    assert result.confidence["i"] != result.confidence["j"]


# --- structure: one loop ----------------------------------------------


def test_solvers_leave_resume_to_the_driver():
    """The fixed-point driver is the only place a solver state is saved
    or a resumed iteration counted: a fuser supplies its step."""
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    spellings = ("checkpoint.save(", "recovery.iterations_skipped")
    offenders = [
        str(path.relative_to(root))
        for package in ("fusion", "outofcore", "linkage/classify")
        for path in sorted((root / package).glob("*.py"))
        if any(spelling in path.read_text() for spelling in spellings)
    ]
    assert offenders == []
    driver = (root / "core" / "fixedpoint.py").read_text()
    assert all(spelling in driver for spelling in spellings)
