"""Ground-truth world generation.

A *world* is the set of real entities that exist, before any source
describes them: each entity has a category, a human-style name, a true
value for every mediated attribute of its category, and a Zipf
popularity weight that drives which sources cover it (head entities
appear in many sources, tail entities in few).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.synth.vocab import CategoryVocabulary, category as builtin_category

__all__ = ["Entity", "World", "WorldConfig", "generate_world"]

_MODEL_WORDS = (
    "pro", "max", "air", "ultra", "plus", "mini", "neo", "prime",
    "elite", "core", "edge", "flex", "nova", "zoom", "swift", "apex",
)


@dataclass(frozen=True)
class Entity:
    """One real-world entity with its true attribute values."""

    entity_id: str
    category: str
    name: str
    true_values: Mapping[str, str]
    popularity: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "true_values", MappingProxyType(dict(self.true_values))
        )


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for world generation.

    Parameters
    ----------
    categories:
        Names of built-in categories to populate (see
        :func:`repro.synth.vocab.category`).
    entities_per_category:
        How many entities each category gets.
    zipf_exponent:
        Skew of the entity-popularity distribution; ``0`` makes all
        entities equally popular, ``1`` is the classic web-like skew.
    seed:
        Seed for the world's private random generator.
    """

    categories: Sequence[str] = ("camera", "notebook", "headphone")
    entities_per_category: int = 100
    zipf_exponent: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.categories:
            raise ConfigurationError("at least one category is required")
        if self.entities_per_category < 1:
            raise ConfigurationError("entities_per_category must be >= 1")
        if self.zipf_exponent < 0:
            raise ConfigurationError("zipf_exponent must be >= 0")


class World:
    """The generated ground-truth world."""

    def __init__(
        self,
        entities: Sequence[Entity],
        vocabularies: Mapping[str, CategoryVocabulary],
        config: WorldConfig,
    ) -> None:
        self._entities = tuple(entities)
        self._by_id = {entity.entity_id: entity for entity in self._entities}
        if len(self._by_id) != len(self._entities):
            raise ConfigurationError("duplicate entity ids in world")
        self._vocabularies = dict(vocabularies)
        self._config = config

    @property
    def entities(self) -> tuple[Entity, ...]:
        """All entities, most popular first within each category."""
        return self._entities

    @property
    def config(self) -> WorldConfig:
        """The configuration this world was generated from."""
        return self._config

    @property
    def categories(self) -> tuple[str, ...]:
        """Category names present in this world."""
        return tuple(self._vocabularies)

    def vocabulary(self, category_name: str) -> CategoryVocabulary:
        """The vocabulary of ``category_name``."""
        try:
            return self._vocabularies[category_name]
        except KeyError:
            raise ConfigurationError(
                f"world has no category {category_name!r}"
            ) from None

    def entity(self, entity_id: str) -> Entity:
        """The entity with ``entity_id``."""
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise ConfigurationError(
                f"world has no entity {entity_id!r}"
            ) from None

    def entities_in(self, category_name: str) -> tuple[Entity, ...]:
        """Entities of one category, most popular first."""
        return tuple(
            e for e in self._entities if e.category == category_name
        )

    def with_entities(self, entities: Sequence[Entity]) -> "World":
        """A copy of this world with a replaced entity list.

        Used by temporal evolution to produce later snapshots of the
        same world.
        """
        return World(entities, self._vocabularies, self._config)

    def __len__(self) -> int:
        return len(self._entities)

    def __repr__(self) -> str:
        return (
            f"World(entities={len(self._entities)}, "
            f"categories={list(self._vocabularies)})"
        )


def zipf_weights(n: int, exponent: float) -> list[float]:
    """Normalized Zipf weights for ranks ``1..n``."""
    raw = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def _entity_name(
    vocabulary: CategoryVocabulary, rng: random.Random, index: int
) -> str:
    brand = rng.choice(vocabulary.brands)
    word = rng.choice(_MODEL_WORDS)
    number = rng.randint(10, 9999)
    return f"{brand} {word} {number}"


def generate_world(config: WorldConfig | None = None) -> World:
    """Generate a deterministic world from ``config``.

    The same config (including seed) always yields the identical world:
    same entity ids, names, true values, and popularity weights.
    """
    config = config or WorldConfig()
    rng = random.Random(config.seed)
    vocabularies = {name: builtin_category(name) for name in config.categories}
    entities: list[Entity] = []
    for category_name in config.categories:
        vocabulary = vocabularies[category_name]
        weights = zipf_weights(
            config.entities_per_category, config.zipf_exponent
        )
        seen_names: set[str] = set()
        for index in range(config.entities_per_category):
            name = _entity_name(vocabulary, rng, index)
            while name in seen_names:
                name = _entity_name(vocabulary, rng, index)
            seen_names.add(name)
            brand_token = name.split()[0]
            true_values = {"name": name}
            for spec in vocabulary.attributes:
                if set(spec.values) == set(vocabulary.brands):
                    # The brand-like attribute must agree with the
                    # brand token leading the entity's name.
                    true_values[spec.name] = brand_token
                else:
                    true_values[spec.name] = spec.draw_true_value(rng, index)
            entities.append(
                Entity(
                    entity_id=f"{category_name}:{index:05d}",
                    category=category_name,
                    name=name,
                    true_values=true_values,
                    popularity=weights[index],
                )
            )
    return World(entities, vocabularies, config)
