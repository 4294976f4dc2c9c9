"""Copy detection and the AccuCopy discount against their naive reference.

``CopyDetector`` counts a pair's outcomes by set algebra over the claim
index and ``AccuCopy.item_scorer`` discounts through a few per-source
partner factors. The walk they replaced — every shared item of every
source pair, every earlier supporter of every vote — lives here as the
oracle, and the fast path must equal it to the last float and in dict
order (``json.dumps``, never ``approx``).
"""

import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion import AccuCopy, Claim, ClaimSet, CopyDetector, copydetect
from repro.fusion.base import softmax
from repro.fusion.online import vote_count
from repro.synth import ClaimWorldConfig, generate_claims
from tests.test_fusion import result_digest

# --- the naive reference ----------------------------------------------


def naive_outcome_counts(claims, source_a, source_b, truths):
    """(agree-true, agree-false, disagree) by walking the shared items."""
    agree_true = agree_false = disagree = 0
    for item in claims.shared_items(source_a, source_b):
        value_a = claims.value_of(source_a, item)
        value_b = claims.value_of(source_b, item)
        if value_a != value_b:
            disagree += 1
        elif truths.get(item) == value_a:
            agree_true += 1
        else:
            agree_false += 1
    return agree_true, agree_false, disagree


def naive_outcome_counter(claims, truths, sources):
    return lambda a, b: naive_outcome_counts(claims, a, b, truths)


def naive_detector():
    """The detector's likelihood code over the walked counts."""
    return mock.patch.object(
        copydetect, "_outcome_counter", naive_outcome_counter
    )


def naive_detect(detector, claims, truths, accuracies):
    """Every source pair in first-seen order, one walk each (call it
    under :func:`naive_detector`)."""
    sources = claims.sources()
    probabilities = {}
    for i, source_a in enumerate(sources):
        for source_b in sources[i + 1 :]:
            key = (min(source_a, source_b), max(source_a, source_b))
            probability = detector.pair_probability(
                claims, source_a, source_b, truths, accuracies
            )
            if probability > 0.0:
                probabilities[key] = probability
    return probabilities


def naive_item_scorer(accuracy, copy_probability, copy_rate, n_false_values):
    """The discount as the model states it: every vote scaled by
    ``1 - c * P`` for every supporter counted before it."""
    votes = {s: vote_count(a, n_false_values) for s, a in accuracy.items()}

    def score_item(item_claims):
        supporters = {}
        for claim in item_claims:
            supporters.setdefault(claim.value, []).append(claim.source_id)
        scores = {}
        for value, sources in supporters.items():
            sources.sort(key=lambda s: (-accuracy[s], s))
            score = 0.0
            counted = []
            for source in sources:
                independence = 1.0
                for earlier in counted:
                    key = (min(source, earlier), max(source, earlier))
                    independence *= 1.0 - copy_rate * copy_probability.get(
                        key, 0.0
                    )
                score += independence * votes[source]
                counted.append(source)
            scores[value] = score
        return softmax(scores)

    return score_item


# --- differential sweep -----------------------------------------------

#: Exact ties, both ends of the range, and everything between.
ACCURACIES = st.one_of(
    st.sampled_from([0.0, 0.3, 0.3, 0.8, 0.8, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
#: Down to probabilities whose discount factor ``1 - c * p`` is exactly 1.
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1e-18, 1e-17, 1e-16, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def worlds(draw):
    """Claims, believed truths, accuracies and pair probabilities."""
    sources = [f"s{k}" for k in range(draw(st.integers(2, 8)))]
    items = [f"i{k}" for k in range(draw(st.integers(1, 12)))]
    n_values = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    coverage = draw(st.sampled_from([0.3, 0.7, 1.0]))
    rows = [
        (source, item, f"v{rng.randrange(n_values)}")
        for source in sources
        for item in items
        if rng.random() < coverage
    ] or [(sources[0], items[0], "v0")]
    rng.shuffle(rows)
    claims = ClaimSet(Claim(*row) for row in rows)
    # A truth per item: a claimable value, one nobody claims, or none.
    truths = {}
    for item in items + ["unclaimed"]:
        value = draw(st.sampled_from([*range(n_values), "nobody", None]))
        if value is not None:
            truths[item] = f"v{value}"
    accuracy = {source: draw(ACCURACIES) for source in sources}
    # Pairs as ``detect`` spells them, plus what it never emits: a
    # reversed pair, a pair with itself, a pair naming an unknown source.
    names = sources + ["ghost"]
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)))
    )
    copying = {pair: draw(PROBABILITIES) for pair in pairs}
    return claims, truths, accuracy, copying


class TestAgainstTheNaiveReference:
    @given(world=worlds(), min_overlap=st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_detector_equals_the_item_walk(self, world, min_overlap):
        claims, truths, accuracy, __ = world
        detector = CopyDetector(n_false_values=3, min_overlap=min_overlap)
        names = [*claims.sources(), "ghost"]
        pairs = [(a, b) for a in names for b in names]

        def document(detect=detector.detect):
            return json.dumps(
                [
                    list(detect(claims, truths, accuracy).items()),
                    [
                        (
                            detector.pair_probability(
                                claims, a, b, truths, accuracy
                            ),
                            detector.direction(claims, a, b, truths, accuracy),
                        )
                        for a, b in pairs
                    ],
                ]
            )

        counts = copydetect._outcome_counter(claims, truths, names)
        for a, b in pairs:
            assert counts(a, b) == naive_outcome_counts(claims, a, b, truths)
        fast = document()
        with naive_detector():
            assert fast == document(
                lambda *args: naive_detect(detector, *args)
            )

    @given(world=worlds(), copy_rate=st.sampled_from([0.2, 0.8, 0.99]))
    @settings(max_examples=150, deadline=None)
    def test_discount_equals_the_nested_loop(self, world, copy_rate):
        claims, __, accuracy, copying = world
        fuser = AccuCopy(
            n_false_values=3, detector=CopyDetector(copy_rate=copy_rate)
        )
        score = fuser.item_scorer(accuracy, copying)
        naive = naive_item_scorer(accuracy, copying, copy_rate, 3)
        for __, item_claims in claims.groups():
            assert json.dumps(list(score(item_claims).items())) == json.dumps(
                list(naive(item_claims).items())
            )

    def test_discount_keeps_the_counted_order(self):
        """Float products do not reassociate: with every pair of eight
        co-supporters dependent, the factors must apply in the order the
        supporters were counted."""
        for seed in range(60):
            rng = random.Random(seed)
            sources = [f"s{k}" for k in range(8)]
            rng.shuffle(sources)
            item_claims = [Claim(s, "i", "v") for s in sources]
            item_claims.append(Claim("other", "i", "w"))
            accuracy = {
                s: rng.choice([0.5, 0.7, rng.random()]) for s in sources
            }
            accuracy["other"] = 0.6
            copying = {
                (a, b): rng.random() for a in sources for b in sources if a < b
            }
            score = AccuCopy(n_false_values=3).item_scorer(accuracy, copying)
            naive = naive_item_scorer(accuracy, copying, 0.8, 3)
            assert json.dumps(score(item_claims)) == json.dumps(
                naive(item_claims)
            )

    @given(world=worlds())
    @settings(max_examples=60, deadline=None)
    def test_whole_fuse_equals_the_item_walk(self, world):
        claims = world[0]
        fuser = AccuCopy(
            n_false_values=3, detector=CopyDetector(min_overlap=2)
        )
        fast = result_digest(fuser.fuse(claims))
        with naive_detector():
            assert fast == result_digest(fuser.fuse(claims))


# --- the hot path, pinned by count --------------------------------------


@pytest.fixture(scope="module")
def wide_world():
    """Sixty sources, a third of them copiers."""
    return generate_claims(
        ClaimWorldConfig(
            n_items=60,
            n_independent=40,
            n_copiers=20,
            coverage=0.5,
            n_false_values=4,
            seed=2100,
        )
    ).claims


class TestHotPath:
    def test_no_per_item_lookup_per_source_pair(self, wide_world):
        """1,770 source pairs: the fuse may not walk their shared items."""

        def walked(*args):
            raise AssertionError("copy detection walked a pair's items")

        expected = AccuCopy(n_false_values=4).fuse(wide_world)
        with (
            mock.patch.object(ClaimSet, "value_of", walked),
            mock.patch.object(ClaimSet, "shared_items", walked),
        ):
            result = AccuCopy(n_false_values=4).fuse(wide_world)
        assert result == expected
        assert result.copy_probability

    def test_detect_runs_once_per_round_through_the_class(self, wide_world):
        """The ledger times copy detection by wrapping
        ``CopyDetector.detect`` on the class: AccuCopy must go through
        it, once a round, or ``fusion.copydetect_s`` silently reads 0."""
        calls = []
        detect = CopyDetector.detect

        def counting(self, *args):
            calls.append(self)
            return detect(self, *args)

        with mock.patch.object(CopyDetector, "detect", counting):
            result = AccuCopy(n_false_values=4).fuse(wide_world)
        assert len(calls) == result.iterations > 1

    def test_fusion_imports_no_numpy(self):
        src = Path(__file__).parent.parent / "src"
        finished = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.fusion; print('numpy' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert finished.returncode == 0, finished.stderr
        assert finished.stdout.strip() == "False"


# --- the index is a cache: never an artifact, never stale ---------------


def _parent_shaped_state(claims):
    """``ClaimSet.__dict__`` as the commit before the index pickled it."""
    state = {
        "_claims": list(claims),
        "_by_item": {},
        "_by_source": {},
        "_value": {},
    }
    for claim in claims:
        state["_by_item"].setdefault(claim.item_id, []).append(claim)
        state["_by_source"].setdefault(claim.source_id, []).append(claim)
        state["_value"][(claim.source_id, claim.item_id)] = claim.value
    return state


class TestIndexLifetime:
    def test_pickle_carries_no_index(self, wide_world):
        claims = ClaimSet(wide_world)
        cold = pickle.dumps(claims)
        digest = result_digest(AccuCopy(n_false_values=4).fuse(claims))
        assert claims.__dict__["_index"] is not None
        assert sorted(claims.__getstate__()) == sorted(
            _parent_shaped_state(claims)
        )
        assert pickle.dumps(claims) == cold
        loaded = pickle.loads(pickle.dumps(claims))
        assert "_index" not in loaded.__dict__
        assert result_digest(AccuCopy(n_false_values=4).fuse(loaded)) == digest

    def test_state_written_before_the_index_loads(self, wide_world):
        # What unpickling does with a state and no ``__setstate__``.
        old = ClaimSet.__new__(ClaimSet)
        old.__dict__.update(_parent_shaped_state(wide_world))
        assert result_digest(
            AccuCopy(n_false_values=4).fuse(old)
        ) == result_digest(AccuCopy(n_false_values=4).fuse(wide_world))

    def test_a_claim_added_after_detect_is_seen(self):
        rows = [
            (f"s{s}", f"i{i}", "lie" if s < 2 and i < 5 else f"v{s % 2}")
            for s in range(4)
            for i in range(6)
        ]
        truths = {f"i{i}": "v0" for i in range(7)}
        accuracy = dict.fromkeys(["s0", "s1", "s2", "s3"], 0.7)
        detector = CopyDetector(min_overlap=2)
        grown = ClaimSet(Claim(*row) for row in rows)
        before = detector.detect(grown, truths, accuracy)
        late = [("s0", "i6", "lie"), ("s1", "i6", "lie"), ("s4", "i0", "lie")]
        for row in late:
            grown.add(Claim(*row))
        fresh = ClaimSet(Claim(*row) for row in rows + late)
        after = detector.detect(grown, truths, accuracy)
        assert list(after.items()) == list(
            detector.detect(fresh, truths, accuracy).items()
        )
        assert after != before
