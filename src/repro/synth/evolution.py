"""Temporal evolution: evolving worlds and time-stamped record streams.

Three consumers need time in the corpus:

* **Temporal record linkage** (E7) needs streams of observations of
  entities whose discriminative attributes *change over time* — the
  setting where decay-based matching beats static matching.
* **Velocity maintenance** (E14) needs successive *snapshots* of a
  product world where entities appear, disappear, and change values.
* **Continuous ingestion** (E26) needs the *unbounded* versions of
  both: generator-based streams that never materialize a corpus, so a
  streaming pipeline can run for as long as the experiment demands.

All are generated here, deterministically from a seed. The bounded
outputs are exact prefixes of the unbounded generators: consuming the
first ``n_epochs`` worth of :func:`stream_temporal_observations` (or
the first ``n_snapshots`` of :func:`stream_world_snapshots`) yields
byte-for-byte the records/snapshots of :func:`generate_temporal_dataset`
(resp. :func:`evolve_world`) for the same config — which is how the
bounded functions are implemented, and what the streaming differential
tests pin.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from repro.core.dataset import Dataset
from repro.core.errors import ConfigurationError
from repro.core.ground_truth import GroundTruth
from repro.core.record import Record
from repro.core.source import Source
from repro.synth.world import Entity, World

__all__ = [
    "EvolvingWorldConfig",
    "evolve_world",
    "stream_world_snapshots",
    "TemporalStreamConfig",
    "generate_temporal_dataset",
    "stream_temporal_observations",
]

#: Records each entity of a temporal stream emits per epoch.
OBSERVATIONS_PER_EPOCH = 2


@dataclass(frozen=True)
class EvolvingWorldConfig:
    """Knobs for snapshot-to-snapshot world evolution.

    Per snapshot step, each *mutable* attribute of each entity changes
    its true value with probability ``change_rate``; identifier
    attributes and the entity name never change. Entities churn:
    ``death_rate`` of entities disappear per step and are replaced by
    fresh ones when ``replace=True``.
    """

    n_snapshots: int = 4
    change_rate: float = 0.15
    death_rate: float = 0.05
    replace: bool = True
    seed: int = 19

    def __post_init__(self) -> None:
        if self.n_snapshots < 1:
            raise ConfigurationError("n_snapshots must be >= 1")
        if not 0.0 <= self.change_rate <= 1.0:
            raise ConfigurationError("change_rate must be in [0, 1]")
        if not 0.0 <= self.death_rate <= 1.0:
            raise ConfigurationError("death_rate must be in [0, 1]")


def evolve_world(
    world: World, config: EvolvingWorldConfig | None = None
) -> list[World]:
    """Produce ``n_snapshots`` successive snapshots of ``world``.

    Snapshot 0 is the input world itself. Entity ids are stable across
    snapshots (the same id denotes the same entity); fresh replacement
    entities get ids suffixed with the snapshot index. The returned
    list is exactly the first ``n_snapshots`` elements of
    :func:`stream_world_snapshots` for the same config.
    """
    config = config or EvolvingWorldConfig()
    return list(
        itertools.islice(
            stream_world_snapshots(world, config), config.n_snapshots
        )
    )


def stream_world_snapshots(
    world: World, config: EvolvingWorldConfig | None = None
) -> Iterator[World]:
    """Unbounded world evolution: snapshots forever, one per step.

    The generator-based counterpart of :func:`evolve_world` —
    ``n_snapshots`` is ignored, every other knob applies per step. The
    RNG is private to each returned iterator and seeded from
    ``config.seed``, so every fresh iterator replays the identical
    snapshot sequence (the restartability the streaming checkpoint
    resume leans on), and the bounded function's output is a prefix of
    this stream by construction.
    """
    config = config or EvolvingWorldConfig()
    rng = random.Random(config.seed)
    yield world
    current = list(world.entities)
    next_fresh = 0
    for step in itertools.count(1):
        evolved: list[Entity] = []
        for entity in current:
            if rng.random() < config.death_rate:
                if config.replace:
                    vocabulary = world.vocabulary(entity.category)
                    fresh_values = {"name": f"fresh item {step}-{next_fresh}"}
                    for spec in vocabulary.attributes:
                        fresh_values[spec.name] = spec.draw_true_value(
                            rng, 500_000 + next_fresh
                        )
                    evolved.append(
                        Entity(
                            entity_id=(
                                f"{entity.category}:fresh{step}-{next_fresh:04d}"
                            ),
                            category=entity.category,
                            name=fresh_values["name"],
                            true_values=fresh_values,
                            popularity=entity.popularity,
                        )
                    )
                    next_fresh += 1
                continue
            vocabulary = world.vocabulary(entity.category)
            new_values = dict(entity.true_values)
            for spec in vocabulary.attributes:
                if spec.kind == "identifier":
                    continue
                if rng.random() < config.change_rate:
                    new_values[spec.name] = spec.draw_true_value(
                        rng, rng.randrange(1_000_000)
                    )
            evolved.append(
                Entity(
                    entity_id=entity.entity_id,
                    category=entity.category,
                    name=entity.name,
                    true_values=new_values,
                    popularity=entity.popularity,
                )
            )
        yield world.with_entities(evolved)
        current = evolved


@dataclass(frozen=True)
class TemporalStreamConfig:
    """Knobs for the temporal-linkage record stream (the E7 workload).

    ``n_entities`` evolving entities are observed over ``n_epochs``
    epochs; at each epoch each entity emits :data:`OBSERVATIONS_PER_EPOCH`
    records carrying its *current* attribute values. Each mutable
    attribute changes between epochs with probability
    ``evolution_rate``. ``namesake_fraction`` of entities share their
    name with another entity (the confusable distractors that punish
    naive link-everything matchers). ``missing_rate`` hides attribute
    values at observation time.
    """

    n_entities: int = 50
    n_epochs: int = 5
    evolution_rate: float = 0.3
    namesake_fraction: float = 0.2
    missing_rate: float = 0.15
    seed: int = 23

    def __post_init__(self) -> None:
        if self.n_entities < 2:
            raise ConfigurationError("n_entities must be >= 2")
        if self.n_epochs < 1:
            raise ConfigurationError("n_epochs must be >= 1")
        for name in ("evolution_rate", "namesake_fraction", "missing_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")


_FIRST_NAMES = (
    "wei", "james", "maria", "olga", "ahmed", "yuki", "carlos",
    "fatima", "ivan", "chen", "anna", "david", "lin", "sara", "paulo",
)
_LAST_NAMES = (
    "li", "smith", "garcia", "kim", "mueller", "rossi", "tanaka",
    "kumar", "santos", "novak", "dubois", "wang", "okafor", "larsen",
)
_AFFILIATIONS = tuple(
    f"univ-{city}" for city in (
        "rome", "berlin", "kyoto", "austin", "lagos", "lima", "oslo",
        "seoul", "cairo", "delhi", "quito", "turin", "leeds", "basel",
    )
)
_TOPICS = (
    "databases", "networks", "graphics", "security", "theory",
    "systems", "vision", "robotics", "compilers", "hci",
)
_CITIES = (
    "rome", "berlin", "kyoto", "austin", "lagos", "lima", "oslo",
    "seoul", "cairo", "delhi", "quito", "turin", "leeds", "basel",
)


def stream_temporal_observations(
    config: TemporalStreamConfig | None = None,
) -> Iterator[tuple[Record, str]]:
    """Unbounded evolving-entity observations: ``(record, entity_id)``.

    The generator-based counterpart of
    :func:`generate_temporal_dataset` — ``n_epochs`` is ignored and
    epochs run forever; every other knob applies per epoch. Each fresh
    iterator owns a private RNG seeded from ``config.seed``, so the
    stream replays identically (restartable), and the bounded dataset
    is an exact prefix: its records are the first
    ``n_epochs * n_entities * OBSERVATIONS_PER_EPOCH`` yields for the
    same config.
    """
    config = config or TemporalStreamConfig()
    rng = random.Random(config.seed)

    names: list[str] = []
    for index in range(config.n_entities):
        if names and rng.random() < config.namesake_fraction:
            names.append(rng.choice(names))
        else:
            names.append(
                f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)} "
                f"{index % 7}"
            )

    state = {
        f"person:{i:04d}": {
            "name": names[i],
            "affiliation": rng.choice(_AFFILIATIONS),
            "city": rng.choice(_CITIES),
            "topic": rng.choice(_TOPICS),
        }
        for i in range(config.n_entities)
    }

    counter = 0
    for epoch in itertools.count():
        if epoch > 0:
            for values in state.values():
                for attribute in ("affiliation", "city", "topic"):
                    if rng.random() < config.evolution_rate:
                        pool = {
                            "affiliation": _AFFILIATIONS,
                            "city": _CITIES,
                            "topic": _TOPICS,
                        }[attribute]
                        values[attribute] = rng.choice(pool)
        for entity_id, values in state.items():
            for __ in range(OBSERVATIONS_PER_EPOCH):
                attributes = {"name": values["name"]}
                for attribute in ("affiliation", "city", "topic"):
                    if rng.random() >= config.missing_rate:
                        attributes[attribute] = values[attribute]
                record = Record(
                    record_id=f"stream.example.org/{counter:06d}",
                    source_id="stream.example.org",
                    attributes=attributes,
                    timestamp=float(epoch),
                )
                yield record, entity_id
                counter += 1


def generate_temporal_dataset(
    config: TemporalStreamConfig | None = None,
) -> Dataset:
    """Generate the evolving-entity record stream for temporal linkage.

    Entities model researchers: a stable ``name`` (sometimes shared
    with a namesake), and mutable ``affiliation``, ``city``, and
    ``topic`` attributes that evolve between epochs. Records carry a
    ``timestamp`` equal to their epoch index.

    Implemented as the first ``n_epochs`` epochs of the unbounded
    :func:`stream_temporal_observations`, so the bounded dataset is an
    exact prefix of the stream by construction.
    """
    config = config or TemporalStreamConfig()
    n_records = config.n_epochs * config.n_entities * OBSERVATIONS_PER_EPOCH
    source = Source("stream.example.org")
    record_to_entity: dict[str, str] = {}
    for record, entity_id in itertools.islice(
        stream_temporal_observations(config), n_records
    ):
        source.add(record)
        record_to_entity[record.record_id] = entity_id

    truth = GroundTruth(record_to_entity)
    return Dataset([source], truth, name="temporal-stream")
