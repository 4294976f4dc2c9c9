"""Unit tests for attribute profiling and matchers."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, Record, Source
from repro.obs import Tracer
from repro.schema import (
    AttributeMatcher,
    AttributeProfile,
    Correspondence,
    HybridMatcher,
    InstanceMatcher,
    NameMatcher,
    build_mediated_schema,
    profile_attributes,
    score_all_pairs,
)
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro.text.normalize import normalize_attribute_name
from repro.text.tokens import word_tokens


def source_with(source_id, rows):
    records = [
        Record(f"{source_id}/{i}", source_id, row)
        for i, row in enumerate(rows)
    ]
    return Source(source_id, records)


@pytest.fixture
def dataset():
    s1 = source_with(
        "s1",
        [
            {"color": "black", "weight": "200 g", "sku": "AB-1234"},
            {"color": "red", "weight": "350 g", "sku": "CD-5678"},
            {"color": "black", "weight": "410 g", "sku": "EF-9012"},
        ],
    )
    s2 = source_with(
        "s2",
        [
            {"colour": "black", "item weight": "0.2 kg", "mpn": "AB-1234"},
            {"colour": "silver", "item weight": "0.41 kg", "mpn": "EF-9012"},
        ],
    )
    s3 = source_with(
        "s3",
        [
            {"finish": "black", "screen size": "5.5 in"},
            {"finish": "red", "screen size": "6.1 in"},
        ],
    )
    return Dataset([s1, s2, s3])


class TestProfiles:
    def test_profile_counts(self, dataset):
        profiles = profile_attributes(dataset)
        assert ("s1", "color") in profiles
        assert profiles[("s1", "color")].n_records == 3
        assert profiles[("s1", "color")].distinct_values == 2

    def test_uniqueness_high_for_identifier(self, dataset):
        profiles = profile_attributes(dataset)
        assert profiles[("s1", "sku")].uniqueness == 1.0

    def test_numeric_fraction(self, dataset):
        profiles = profile_attributes(dataset)
        assert profiles[("s1", "weight")].numeric_fraction == 1.0
        assert profiles[("s1", "color")].numeric_fraction == 0.0

    def test_numeric_values_converted_to_base_units(self, dataset):
        profiles = profile_attributes(dataset)
        grams = profiles[("s2", "item weight")].numeric_values
        assert sorted(grams) == pytest.approx([200.0, 410.0])

    def test_source_restriction(self, dataset):
        profiles = profile_attributes(dataset, sources=["s1"])
        assert all(key[0] == "s1" for key in profiles)


class TestNameMatcher:
    def test_spelling_variant(self, dataset):
        profiles = profile_attributes(dataset)
        matcher = NameMatcher()
        score = matcher.score(
            profiles[("s1", "color")], profiles[("s2", "colour")]
        )
        assert score > 0.9

    def test_unrelated_names(self, dataset):
        profiles = profile_attributes(dataset)
        matcher = NameMatcher()
        score = matcher.score(
            profiles[("s1", "sku")], profiles[("s3", "screen size")]
        )
        assert score < 0.6

    def test_token_reordering(self, dataset):
        profiles = profile_attributes(dataset)
        matcher = NameMatcher()
        score = matcher.score(
            profiles[("s1", "weight")], profiles[("s2", "item weight")]
        )
        assert score > 0.8


class TestInstanceMatcher:
    def test_synonym_found_by_values(self, dataset):
        # 'finish' vs 'color' share the value vocabulary.
        profiles = profile_attributes(dataset)
        matcher = InstanceMatcher()
        score = matcher.score(
            profiles[("s1", "color")], profiles[("s3", "finish")]
        )
        assert score > 0.5

    def test_numeric_text_gate(self, dataset):
        profiles = profile_attributes(dataset)
        matcher = InstanceMatcher()
        score = matcher.score(
            profiles[("s1", "weight")], profiles[("s1", "color")]
        )
        assert score == 0.0

    def test_numeric_scale_agreement(self, dataset):
        # weights in g and kg land on the same base-unit scale.
        profiles = profile_attributes(dataset)
        matcher = InstanceMatcher()
        score = matcher.score(
            profiles[("s1", "weight")], profiles[("s2", "item weight")]
        )
        assert score > 0.4

    def test_different_scales_penalized(self, dataset):
        profiles = profile_attributes(dataset)
        matcher = InstanceMatcher()
        score = matcher.score(
            profiles[("s1", "weight")], profiles[("s3", "screen size")]
        )
        assert score < 0.5


class TestHybridMatcher:
    def test_hybrid_finds_synonym_with_shared_values(self, dataset):
        profiles = profile_attributes(dataset)
        hybrid = HybridMatcher()
        name_only = NameMatcher()
        synonym = hybrid.score(
            profiles[("s1", "color")], profiles[("s3", "finish")]
        )
        assert synonym > name_only.score(
            profiles[("s1", "color")], profiles[("s3", "finish")]
        )

    def test_invalid_weight(self):
        from repro.core import ConfigurationError

        with pytest.raises(ConfigurationError):
            HybridMatcher(name_weight=1.5)

    def test_score_in_range(self, dataset):
        profiles = profile_attributes(dataset)
        hybrid = HybridMatcher()
        keys = list(profiles)
        for a in keys:
            for b in keys:
                assert 0.0 <= hybrid.score(profiles[a], profiles[b]) <= 1.0


# --- score_all_pairs: candidates + bounds against the all-pairs loop -------


def all_pairs_oracle(profiles, matcher, min_score=0.0, cross_source_only=True):
    """The loop ``score_all_pairs`` was before it blocked the attributes:
    ``matcher.score`` on every pair. The reference for every candidate
    index and bound; it exists only here."""
    keys = sorted(profiles)
    correspondences = []
    for i, left_key in enumerate(keys):
        left = profiles[left_key]
        for right_key in keys[i + 1 :]:
            if cross_source_only and right_key[0] == left_key[0]:
                continue
            right = profiles[right_key]
            score = matcher.score(left, right)
            if score >= min_score and score > 0.0:
                correspondences.append(
                    Correspondence(left_key, right_key, score)
                )
    return correspondences


class SharedInitial(AttributeMatcher):
    """A user matcher that overrides only ``score``."""

    def score(self, a, b):
        return 0.7 if a.attribute[:1] == b.attribute[:1] else 0.2


class HalvedHybrid(HybridMatcher):
    """Overrides only ``score`` — of a matcher that has an index."""

    def score(self, a, b):
        return super().score(a, b) / 2 + 0.1


MATCHERS = [
    NameMatcher(),
    InstanceMatcher(),
    *(HybridMatcher(name_weight=w) for w in (0.0, 0.3, 0.45, 0.6, 1.0)),
    SharedInitial(),
    HalvedHybrid(),
]
MIN_SCORES = [0.0, 0.3, 0.45, 0.6, 0.8]


def assert_equals_oracle(profiles, matchers=MATCHERS):
    for matcher in matchers:
        for min_score in MIN_SCORES:
            for cross_source_only in (True, False):
                assert score_all_pairs(
                    profiles, matcher, min_score, cross_source_only
                ) == all_pairs_oracle(
                    profiles, matcher, min_score, cross_source_only
                ), (matcher, min_score, cross_source_only)


def wide_corpus(n_sources, entities=30, seed=3000, **corpus):
    """The ledger's ``batch_wide`` shape (generated here, not imported)."""
    shape = dict(
        dialect_noise=0.8, format_noise=0.5, tail_attribute_rate=0.5,
        error_rate=0.1, max_custom_attributes=4,
    )
    world = generate_world(
        WorldConfig(
            ("camera", "notebook", "headphone"),
            entities_per_category=entities,
            seed=seed,
        )
    )
    return generate_dataset(
        world,
        CorpusConfig(
            n_sources=n_sources, max_source_size=20, seed=seed + 1,
            **{**shape, **corpus},
        ),
    )


BENCHMARK_CORPORA = ["linkage_corpus", "batch_wide at smoke size"]


def benchmark_corpus_named(name):
    """The corpora the schema builders are pinned to the oracle on."""
    if name != "linkage_corpus":
        return wide_corpus(8)
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "benchmarks")
        )
        from bench_common import linkage_corpus
    return linkage_corpus()


def built(source_id, attribute, values):
    profile = AttributeProfile(
        source_id,
        attribute,
        normalize_attribute_name(attribute),
        tuple(word_tokens(normalize_attribute_name(attribute))),
    )
    for value in values:
        profile.observe(value)
    return profile


def edge_profiles():
    """Hand-built profiles, one per edge of the candidate index."""
    profiles = [
        built("a", "???", ["black", "red"]),  # empty normalized name
        built("a", "unseen", []),  # n_records == 0
        built("a", "rebate", ["0", "0 g"]),  # numeric, mean log is None
        built("b", "discount", ["0"]),
        built("a", "length", ["200", "350"]),  # numeric, and ...
        built("b", "depth", ["210", "340"]),  # ... close in scale only
        built("c", "mass", ["90000", "120000"]),  # ... and far
        built("b", "rating", ["5", "7", "great", "poor"]),  # on the gate
        built("c", "stars", ["5", "7", "9"]),  # past it, shared tokens
        built("a", "warranty", ["--", "--"]),  # no tokens at all
        built("b", "weight", ["??", "??"]),
        built("c", "guarantee", ["--"]),  # ... but a shared value
        built("b", "colour", ["black", "silver"]),
        built("c", "color", ["matte black", "red"]),
    ]
    return {profile.key: profile for profile in profiles}


class TestScoreAllPairs:
    def test_fixed_corpus_every_matcher_floor_and_scope(self, dataset):
        assert_equals_oracle(profile_attributes(dataset))
        assert_equals_oracle(profile_attributes(wide_corpus(6, entities=8)))

    @given(
        seed=st.integers(0, 10_000),
        n_sources=st.integers(2, 16),
        dialect_noise=st.sampled_from([0.0, 0.4, 0.8, 1.0]),
        format_noise=st.sampled_from([0.0, 0.5, 1.0]),
        tail_attribute_rate=st.sampled_from([0.0, 0.5, 1.0]),
        matcher=st.sampled_from(MATCHERS),
        min_score=st.sampled_from(MIN_SCORES),
        cross_source_only=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_sweep_equals_all_pairs_loop(
        self, seed, n_sources, matcher, min_score, cross_source_only, **corpus
    ):
        profiles = profile_attributes(
            wide_corpus(n_sources, entities=6, seed=seed, **corpus)
        )
        assert score_all_pairs(
            profiles, matcher, min_score, cross_source_only
        ) == all_pairs_oracle(profiles, matcher, min_score, cross_source_only)

    def test_edge_profiles(self):
        profiles = edge_profiles()
        assert_equals_oracle(profiles)
        instance = InstanceMatcher()
        # Scale agreement alone carries a numeric pair with no shared
        # token, so the index must not wait for one.
        survivors = score_all_pairs(profiles, instance, min_score=0.3)
        assert Correspondence(("a", "length"), ("b", "depth"), 0.5) in [
            Correspondence(c.left, c.right, round(c.score, 1))
            for c in survivors
        ]
        assert instance.score(
            profiles["a", "length"], profiles["c", "mass"]
        ) == 0.0
        assert instance.score(
            profiles["a", "rebate"], profiles["b", "discount"]
        ) == 0.5  # shared value "0"; no scale to agree on

    def test_observe_after_scoring_is_seen(self):
        matcher = HybridMatcher()
        scored, fresh = edge_profiles(), edge_profiles()
        before = score_all_pairs(scored, matcher)
        for profiles in (scored, fresh):
            for value in ("black", "silver", "red"):
                profiles["a", "unseen"].observe(value)
                profiles["b", "weight"].observe(value)
        after = score_all_pairs(scored, matcher)
        assert after == all_pairs_oracle(fresh, matcher) != before
        assert {("a", "unseen"), ("b", "weight")} <= {
            key for c in after for key in (c.left, c.right)
        }

    def test_counts_reported(self, dataset):
        profiles = profile_attributes(dataset)
        tracer = Tracer()
        with tracer.span("caller") as span:
            score_all_pairs(profiles, HybridMatcher(), 0.6, tracer=tracer)
        counts = {
            name: tracer.counter(f"schema.{name}").value
            for name in (
                "attributes", "pairs_possible", "candidate_pairs",
                "pairs_name_scored", "name_pairs_distinct",
            )
        }
        # 3 + 3 + 2 attributes; C(8, 2) - (3 + 3 + 1) cross-source pairs.
        assert counts["attributes"] == 8 and counts["pairs_possible"] == 21
        assert (
            counts["name_pairs_distinct"]
            <= counts["pairs_name_scored"]
            <= counts["candidate_pairs"]
            < counts["pairs_possible"]
        )
        assert {f"schema.{name}": n for name, n in counts.items()} == {
            key: value
            for key, value in span.attributes.items()
            if key.startswith("schema.")
        }

    def test_name_scoring_stays_a_small_share_as_sources_grow(self):
        """Counts, not time: on the ``batch_wide`` shape at most a tenth
        of the possible pairs pay for a name score, and distinct name
        evaluations per possible pair fall as sources are added."""
        distinct_share = []
        for n_sources in (8, 16, 32):
            tracer = Tracer()
            build_mediated_schema(
                wide_corpus(n_sources, entities=120), tracer=tracer
            )
            possible = tracer.counter("schema.pairs_possible").value
            scored = tracer.counter("schema.pairs_name_scored").value
            assert scored / possible <= 0.10, (n_sources, scored, possible)
            distinct_share.append(
                tracer.counter("schema.name_pairs_distinct").value / possible
            )
        assert distinct_share == sorted(distinct_share, reverse=True)
        assert distinct_share[0] > distinct_share[-1]


class TestPlaceholderColumns:
    """Two columns of token-less placeholders share no evidence."""

    def test_instance_score_is_zero(self):
        profiles = edge_profiles()
        matcher = InstanceMatcher()
        assert matcher.score(
            profiles["a", "warranty"], profiles["b", "weight"]
        ) == 0.0
        # A literally shared value still counts, through value overlap.
        assert matcher.score(
            profiles["a", "warranty"], profiles["c", "guarantee"]
        ) == 1.0

    def test_not_merged_into_one_mediated_attribute(self):
        names = ["alpha one", "beta two", "gamma three", "delta four",
                 "epsilon five"]
        a = source_with("a", [{"name": n, "warranty": "--"} for n in names])
        b = source_with("b", [{"name": n, "weight": "??"} for n in names])
        schema = build_mediated_schema(Dataset([a, b]))
        assert schema.mediated_for("a", "warranty") is not (
            schema.mediated_for("b", "weight")
        )
        assert schema.mediated_for("a", "name") is (
            schema.mediated_for("b", "name")
        )
