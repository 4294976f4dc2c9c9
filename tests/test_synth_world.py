"""Unit tests for world generation and vocabularies."""

import random

import pytest

from repro.core import ConfigurationError
from repro.synth import WorldConfig, category, generate_world
from repro.synth.vocab import _BUILTIN
from repro.synth.world import zipf_weights


class TestVocab:
    def test_catalog_has_expected_categories(self):
        assert {"camera", "notebook", "headphone", "book", "flight"} <= set(
            _BUILTIN
        )

    def test_unknown_category_raises(self):
        with pytest.raises(ConfigurationError):
            category("spaceship")

    def test_every_category_has_identifier(self):
        for vocab in _BUILTIN.values():
            kinds = [spec.kind for spec in vocab.attributes]
            assert "identifier" in kinds

    def test_head_and_tail_split(self):
        vocab = category("camera")
        heads = vocab.head_attributes()
        tails = vocab.tail_attributes()
        assert heads and tails
        assert set(heads) | set(tails) == set(vocab.attributes)

    def test_dialects_include_variants(self):
        vocab = category("notebook")
        spec = vocab.spec("screen size")
        assert len(spec.dialects) >= 2

    def test_draw_categorical_value_in_pool(self):
        vocab = category("camera")
        spec = vocab.spec("color")
        rng = random.Random(1)
        for _ in range(10):
            assert spec.draw_true_value(rng, 0) in spec.values

    def test_draw_numeric_value_in_range(self):
        vocab = category("camera")
        spec = vocab.spec("resolution")
        rng = random.Random(1)
        value = float(spec.draw_true_value(rng, 0).split()[0])
        assert spec.low <= value <= spec.high

    def test_identifier_is_per_entity(self):
        vocab = category("camera")
        spec = vocab.spec("product id")
        rng = random.Random(1)
        id_a = spec.draw_true_value(rng, 1)
        id_b = spec.draw_true_value(rng, 2)
        assert id_a != id_b
        assert "000001" in id_a


class TestZipf:
    def test_weights_sum_to_one(self):
        weights = zipf_weights(100, 1.0)
        assert sum(weights) == pytest.approx(1.0)

    def test_weights_monotone(self):
        weights = zipf_weights(10, 1.0)
        assert weights == sorted(weights, reverse=True)

    def test_zero_exponent_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert all(w == pytest.approx(0.25) for w in weights)


class TestGenerateWorld:
    def test_deterministic(self):
        config = WorldConfig(entities_per_category=20, seed=5)
        w1 = generate_world(config)
        w2 = generate_world(config)
        assert [e.entity_id for e in w1.entities] == [
            e.entity_id for e in w2.entities
        ]
        assert [dict(e.true_values) for e in w1.entities] == [
            dict(e.true_values) for e in w2.entities
        ]

    def test_seed_changes_world(self):
        w1 = generate_world(WorldConfig(entities_per_category=20, seed=5))
        w2 = generate_world(WorldConfig(entities_per_category=20, seed=6))
        assert [dict(e.true_values) for e in w1.entities] != [
            dict(e.true_values) for e in w2.entities
        ]

    def test_entity_counts(self):
        world = generate_world(
            WorldConfig(categories=("camera", "book"), entities_per_category=7)
        )
        assert len(world) == 14
        assert len(world.entities_in("camera")) == 7

    def test_every_entity_has_all_attributes(self):
        world = generate_world(WorldConfig(entities_per_category=5))
        for entity in world.entities:
            vocab = world.vocabulary(entity.category)
            for spec in vocab.attributes:
                assert spec.name in entity.true_values

    def test_names_unique_within_category(self):
        world = generate_world(WorldConfig(entities_per_category=50))
        for cat in world.categories:
            names = [e.name for e in world.entities_in(cat)]
            assert len(names) == len(set(names))

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(categories=())
        with pytest.raises(ConfigurationError):
            WorldConfig(entities_per_category=0)
        with pytest.raises(ConfigurationError):
            WorldConfig(zipf_exponent=-1)

    def test_entity_lookup(self):
        world = generate_world(WorldConfig(entities_per_category=3))
        entity = world.entities[0]
        assert world.entity(entity.entity_id) is entity
        with pytest.raises(ConfigurationError):
            world.entity("ghost")

    def test_true_values_read_only(self):
        world = generate_world(WorldConfig(entities_per_category=3))
        with pytest.raises(TypeError):
            world.entities[0].true_values["color"] = "purple"
