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
    claim_posterior,
    vote_count,
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

    def test_posterior_is_the_same_on_every_python(self):
        """The normaliser is one exact sum. Builtin ``sum`` compensates
        since Python 3.12, so with it this posterior ended in ``…86d`` on
        3.10 and 3.11 and in ``…86c`` on 3.12 and 3.13."""
        v = vote_count(0.6, 10)
        tally = {"x": v, "y": v + v, "z": v + v}
        posterior = claim_posterior(tally, "x", 10)
        assert posterior.hex() == "0x1.03c9e09bdf86cp-5"


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

#: sha256 of :func:`result_document` as canonical JSON. Recorded at
#: f6baee5, before every fuser was put on one sweep and one loop, and
#: re-recorded once when every fusion sum became ``math.fsum``: against
#: that change's parent, 02cc7f9, every ``chosen`` and ``iterations``
#: stayed equal and floats moved at most 3.0e-15 relative (confidences),
#: 9.3e-16 (accuracies) and 5.0e-14 (copy probabilities).
#: Floats serialize by ``repr``, so a digest moves if any low bit of any
#: confidence or accuracy does.
GOLDEN_DIGESTS = {
    ("clean", "vote"): (
        "f6a217f0ed15ec283149782d5f05338917dacbf7a4d5ba2345b1094dd1e40270"
    ),
    ("clean", "accuvote"): (
        "ba6104d6f7af50ff160f288ba5aa05d03bd31126aefc6f9a7fd2b4758c1524d9"
    ),
    ("clean", "truthfinder"): (
        "f501aeb3d0db210a0715187ba09c9b9911e2715e5ac32fe608b2c8af2d77b6a5"
    ),
    ("clean", "truthfinder-implication"): (
        "38f522f2b6b6709468ab05329b845f23c4b69140cfa6086a918125dc753403ad"
    ),
    ("clean", "accucopy"): (
        "1ec45d5bfb0dd080127810e0704a6c7b6b2ce3f16ff3fcda595fd7bae1ae8753"
    ),
    ("copiers", "vote"): (
        "6ab55378afaa66f73180717939e7e7379a843d2e5b760ed3db74650e55fc3ba1"
    ),
    ("copiers", "accuvote"): (
        "ae3eec1fc01b940c1019f874113da0717a48094b76c71527db2d97fbdacc180f"
    ),
    ("copiers", "truthfinder"): (
        "4c049072bdaa8354fb2a5acdc618f24dee6e3a82df6930ff9c58179837416f92"
    ),
    ("copiers", "truthfinder-implication"): (
        "798ce077e23a77a3631f3c7e8c832dd82eec0c6adb12815093f6777776ddc554"
    ),
    ("copiers", "accucopy"): (
        "7d4ea7ee7fa9c045d0b832077391bca40204e73a5f0a90f15d4cea6aca2cb3b2"
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

    def test_fellegi_sunter_fit_is_unchanged(self):
        from repro.linkage import fit_fellegi_sunter

        assert em_digest(fit_fellegi_sunter(_em_vectors())) == EM_DIGEST


def _em_vectors():
    """Seeded comparison vectors over four fields: one pair in five
    mostly agrees, and one similarity in twenty is missing."""
    import random

    from repro.linkage import ComparisonVector

    rng = random.Random(21)
    vectors = []
    for index in range(400):
        agrees = 0.85 if index % 5 == 0 else 0.15
        similarities = tuple(
            None
            if rng.random() < 0.05
            else rng.uniform(0.85, 1.0)
            if rng.random() < agrees
            else rng.uniform(0.0, 0.85)
            for __ in range(4)
        )
        vectors.append(
            ComparisonVector(f"l{index}", f"r{index}", similarities, 0.0)
        )
    return vectors


def em_digest(model):
    """sha256 of a fitted model's ``(m, u, prevalence)`` by ``repr``."""
    import hashlib

    document = repr((model.m, model.u, model.prevalence))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


#: :func:`em_digest` of the fit over :func:`_em_vectors`, recorded when
#: the EM step's sums became ``math.fsum`` (the fit over the same
#: vectors with builtin sums differs in its last bits; see the
#: changelog).
EM_DIGEST = (
    "6f4e5c7a2f8f1bf16406b5f52be672782617ca3b08898c6c9f33f083851cfaca"
)


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
        ],
        ids=[
            "accuvote",
            "truthfinder",
            "accucopy",
            "crh",
            "em",
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
def test_sweep_sums_exactly(tmp_path, source):
    """A source's mean is its scores' exact sum, rounded once, over their
    count: ten scores of 0.1 make 1.0 and the mean exactly 0.1, where
    adding them one by one makes 0.9999999999999999 and a mean an ulp
    low — on every Python, in memory and spilled."""
    from repro.fusion.base import score

    rows = [("s", f"i{k}", "v") for k in range(10)]
    claims = _claim_source(tmp_path, rows, source)
    __, means = score(claims, lambda values, supporters: [0.1])
    assert means == {"s": 0.1}


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
