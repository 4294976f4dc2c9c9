"""One winner per supporter pattern, against each item's own maximum.

``ClaimSet.choose`` looks at each scored pattern once and reuses the
index of its unique top score for every item of the pattern; only where
the top is not strictly unique does an item fall back to its own
``max(zip(scores, values))``. The claims drawn here make that fallback
matter: many items share a pattern under different value strings, so a
tie between values is broken differently item by item, and scores
include ``0.0`` against ``-0.0``, which compare equal. The reference is
the claim walk of ``tests/oracle.py``, compared to the last bit
(``float.hex``, which tells the zeros apart) and in dict order.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion import AccuVote, Claim, ClaimSet, TruthFinder, VotingFuser
from repro.fusion.base import choose, score
from repro.outofcore import MemoryBudget, SpillableClaimGroups
from repro.recovery import RunStore
from tests.oracle import naive_choose, naive_fusion, naive_score
from tests.test_fusion import result_document

#: Value strings an item's values are drawn from, in any order, so the
#: items of one pattern order their values differently.
ALPHABET = ["a", "b", "c", "d", "ab", "ba"]
#: Scores that tie, and the two zeros.
WEIGHTS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.5, 1.0, -1.5])


@st.composite
def patterned_claims(draw):
    """Claims whose items share a few supporter patterns; some items
    have one value."""
    n_sources = draw(st.integers(1, 5))
    # A pattern: per source, the value slot it supports, or -1.
    pattern = st.lists(
        st.integers(-1, 2), min_size=n_sources, max_size=n_sources
    ).filter(lambda row: max(row) >= 0)
    patterns = draw(st.lists(pattern, min_size=1, max_size=3))
    rows = []
    for i in range(draw(st.integers(1, 12))):
        slots = patterns[draw(st.integers(0, len(patterns) - 1))]
        names = draw(st.permutations(ALPHABET))
        rows += [
            (f"s{s}", f"i{i}", names[slot])
            for s, slot in enumerate(slots)
            if slot >= 0
        ]
    return rows


def _spilled(tmp_path_factory, rows):
    groups = SpillableClaimGroups(
        RunStore(tmp_path_factory.mktemp("claims"), durable=False),
        MemoryBudget(300),
    )
    for row in rows:
        groups.add(*row)
    return groups


def _document(chosen, confidence, means):
    return json.dumps(
        [
            list(chosen.items()),
            [(item, value.hex()) for item, value in confidence.items()],
            [(source, value.hex()) for source, value in means.items()],
        ]
    )


class TestPerPatternWinner:
    @given(
        rows=patterned_claims(),
        weights=st.lists(WEIGHTS, min_size=5, max_size=5),
        bonus=st.fixed_dictionaries({name: WEIGHTS for name in ALPHABET}),
        reads_values=st.booleans(),
        by_count=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_choose_equals_each_items_maximum(
        self, tmp_path_factory, rows, weights, bonus, reads_values, by_count
    ):
        claims = ClaimSet(Claim(*row) for row in rows)

        def rule(values, supporters):
            scores = [
                len(who) * 0.5 if by_count else weights[min(who)]
                for who in supporters
            ]
            if reads_values:
                scores = [s + bonus[v] for s, v in zip(scores, values)]
            return scores

        position = {source: p for p, source in enumerate(claims.sources())}

        def naive_rule(item_claims):
            supporters = {}
            for claim in item_claims:
                supporters.setdefault(claim.value, []).append(
                    position[claim.source_id]
                )
            values = list(supporters)
            return dict(zip(values, rule(values, list(supporters.values()))))

        table, means = naive_score(claims, naive_rule)
        expected = _document(*naive_choose(claims, table), means)
        for source in (claims, _spilled(tmp_path_factory, rows)):
            scores, means = score(source, rule, reads_values)
            assert _document(*choose(source, scores), means) == expected

    @given(rows=patterned_claims(), seed=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_fusers_equal_the_claim_walk_on_shared_patterns(
        self, tmp_path_factory, rows, seed
    ):
        fusers = {
            "vote": VotingFuser,
            "accuvote": lambda: AccuVote(n_false_values=2 + seed),
            "truthfinder": lambda: TruthFinder(max_iterations=3 + seed),
        }
        claims = ClaimSet(Claim(*row) for row in rows)
        spilled = _spilled(tmp_path_factory, rows)
        for name, make in fusers.items():
            with naive_fusion():
                expected = json.dumps(result_document(make().fuse(claims)))
            for source in (claims, spilled):
                fused = json.dumps(result_document(make().fuse(source)))
                assert fused == expected, name


class TestVoteTieRulePerPattern:
    @given(rows=patterned_claims())
    @settings(max_examples=100, deadline=None)
    def test_first_claimed_wins_a_tie(self, rows):
        claims = ClaimSet(Claim(*row) for row in rows)
        result = VotingFuser().fuse(claims)
        for item in claims.items():
            counts = {}
            for claim in claims.claims_for(item):
                counts[claim.value] = counts.get(claim.value, 0) + 1
            top = max(counts.values())
            first = next(v for v, n in counts.items() if n == top)
            assert result.chosen[item] == first
            share = top / len(claims.claims_for(item))
            assert result.confidence[item] == share

    def test_items_of_one_pattern_keep_their_own_first_value(self):
        # One pattern, s0 against s1, under value strings in both orders.
        claims = ClaimSet(
            Claim(*row)
            for row in [
                ("s0", "i", "b"),
                ("s1", "i", "a"),
                ("s0", "j", "a"),
                ("s1", "j", "b"),
            ]
        )
        assert claims.groups()[0][3] == claims.groups()[1][3]
        assert VotingFuser().fuse(claims).chosen == {"i": "b", "j": "a"}
