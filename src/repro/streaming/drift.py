"""Drift-injecting unbounded record streams (the E26 workload).

The continuous-ingestion experiments need a stream where the *world
model drifts while integration is running*: source accuracies flip
mid-stream, a copier source appears and starts republishing a parent,
true values churn. This generator plants all of it, deterministically
from a seed, so the tracking behaviour of the decayed fusion layer and
the drift monitors can be scored exactly.

The corpus-level model follows :mod:`repro.synth`: entities with a
stable identifying ``name`` (the linkage signal — always reported
correctly, so linkage quality is held fixed while *fusion* inputs
drift) plus conflict attributes whose reported values are true with
probability equal to the source's *current* planted accuracy,
otherwise one of ``n_false_values`` planted wrong values (the
uniform-false-value model of :mod:`repro.synth.claims`). The copier
re-publishes the parent's emitted values per item with probability
``copy_rate`` — the record-level analogue of
:mod:`repro.synth.copiers`. Truth churn reuses the evolution idiom of
:mod:`repro.synth.evolution`: per tick, each (entity, attribute) truth
changes with probability ``truth_change_rate``.

Two RNGs keep the planted world replayable: a *truth* RNG drives truth
evolution only, so :meth:`DriftWorld.truth_at` can replay the truth
schedule for any tick without disturbing emission noise, and an
*emission* RNG drives coverage/noise/copying. Each
:meth:`DriftWorld.stream` call builds fresh RNGs, so every pass over
the stream is identical — the restartability checkpoint resume relies
on.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record

__all__ = [
    "CONFLICT_ATTRIBUTES",
    "DriftStreamConfig",
    "DriftWorld",
    "projection_accuracy",
]

#: The fused-and-scored attributes; ``name`` is identity, not content.
CONFLICT_ATTRIBUTES: tuple[str, ...] = ("price", "color", "stock")

_BRANDS = (
    "acme", "borealis", "cirrus", "dynamo", "ember",
    "flux", "gale", "helix", "ion", "junction",
)


@dataclass(frozen=True)
class DriftStreamConfig:
    """Knobs for the drifting unbounded stream.

    Sources ``src00..`` get planted accuracies linearly spaced from
    ``accuracy_high`` down to ``accuracy_low``. At event time
    ``flip_at`` (a tick index), source ``flip_source``'s accuracy
    becomes ``flip_to`` — the mid-stream quality flip the decayed
    posteriors must track. At ``copier_at``, source ``cop00`` appears
    and republishes ``copier_parent``'s emitted values with
    probability ``copy_rate`` per item (answering independently with
    accuracy ``copier_accuracy`` otherwise) — the relationship drift
    the match-rate monitor must flag.
    """

    n_entities: int = 12
    n_sources: int = 5
    accuracy_high: float = 0.9
    accuracy_low: float = 0.6
    flip_at: float | None = None
    flip_source: int = 0
    flip_to: float = 0.25
    copier_at: float | None = None
    copier_parent: int = 0
    copy_rate: float = 0.9
    copier_accuracy: float = 0.5
    coverage: float = 0.6
    missing_rate: float = 0.1
    n_false_values: int = 4
    truth_change_rate: float = 0.0
    seed: int = 29

    def __post_init__(self) -> None:
        if self.n_entities < 1 or self.n_sources < 1:
            raise ConfigurationError("need >= 1 entity and source")
        for name in (
            "accuracy_high", "accuracy_low", "flip_to", "copier_accuracy",
        ):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1)")
        if self.accuracy_low > self.accuracy_high:
            raise ConfigurationError(
                "accuracy_low must be <= accuracy_high"
            )
        for name in (
            "copy_rate", "coverage", "missing_rate", "truth_change_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if not 0 <= self.flip_source < self.n_sources:
            raise ConfigurationError(
                "flip_source must index a planted source"
            )
        if not 0 <= self.copier_parent < self.n_sources:
            raise ConfigurationError(
                "copier_parent must index a planted source"
            )
        if self.n_false_values < 1:
            raise ConfigurationError("n_false_values must be >= 1")


class DriftWorld:
    """The planted drifting world behind one unbounded stream.

    Everything about the stream — the truth schedule, the accuracy
    schedule, the copier edge — is queryable, so experiments can score
    fused values and accuracy estimates against what was planted at
    any tick.
    """

    def __init__(self, config: DriftStreamConfig | None = None) -> None:
        self.config = config or DriftStreamConfig()

    # --- planted schedules -------------------------------------------

    @property
    def sources(self) -> tuple[str, ...]:
        """Independent source ids (the copier, if any, excluded)."""
        return tuple(
            f"src{index:02d}" for index in range(self.config.n_sources)
        )

    @property
    def copier_id(self) -> str | None:
        return "cop00" if self.config.copier_at is not None else None

    @property
    def copier_of(self) -> dict[str, str]:
        """The planted ``copier -> parent`` edge (empty without a copier)."""
        if self.config.copier_at is None:
            return {}
        return {"cop00": f"src{self.config.copier_parent:02d}"}

    def base_accuracy(self, source_index: int) -> float:
        """A source's pre-flip planted accuracy."""
        config = self.config
        if config.n_sources == 1:
            return config.accuracy_high
        step = (config.accuracy_high - config.accuracy_low) / (
            config.n_sources - 1
        )
        return config.accuracy_high - step * source_index

    def accuracy_at(self, source_id: str, tick: float) -> float:
        """The planted accuracy of ``source_id`` at event time ``tick``."""
        config = self.config
        if source_id == "cop00":
            return config.copier_accuracy
        index = int(source_id.removeprefix("src"))
        if (
            config.flip_at is not None
            and tick >= config.flip_at
            and index == config.flip_source
        ):
            return config.flip_to
        return self.base_accuracy(index)

    def accuracies_at(self, tick: float) -> dict[str, float]:
        """Planted accuracies of the independent sources at ``tick``."""
        return {
            source: self.accuracy_at(source, tick)
            for source in self.sources
        }

    def entity_name(self, entity: int) -> str:
        return f"{_BRANDS[entity % len(_BRANDS)]} unit {entity:04d}"

    @staticmethod
    def entity_index_of(record_id: str) -> int:
        """The planted entity index a record id encodes."""
        return int(record_id.rsplit("-", 1)[1])

    def _true_value(self, entity: int, attribute: str, version: int) -> str:
        return f"{attribute}-{entity:04d}-v{version}"

    def _false_values(
        self, entity: int, attribute: str, version: int
    ) -> list[str]:
        return [
            f"{attribute}-{entity:04d}-v{version}-f{j}"
            for j in range(self.config.n_false_values)
        ]

    def _truth_schedule(self) -> Iterator[dict[tuple[int, str], int]]:
        """Per tick: the (entity, attribute) -> truth-version map.

        Driven by a private truth RNG, so it replays identically for
        :meth:`stream` and :meth:`truth_at`.
        """
        config = self.config
        rng = random.Random(config.seed)
        versions = {
            (entity, attribute): 0
            for entity in range(config.n_entities)
            for attribute in CONFLICT_ATTRIBUTES
        }
        while True:
            yield dict(versions)
            if config.truth_change_rate > 0.0:
                for key in versions:
                    if rng.random() < config.truth_change_rate:
                        versions[key] += 1

    def truth_at(self, tick: float) -> dict[str, str]:
        """Planted truth at ``tick``: ``"<entity>.<attr>" -> value``."""
        index = max(0, int(tick))
        versions = next(
            itertools.islice(self._truth_schedule(), index, None)
        )
        return {
            f"{entity:04d}.{attribute}": self._true_value(
                entity, attribute, version
            )
            for (entity, attribute), version in versions.items()
        }

    # --- the stream ---------------------------------------------------

    def stream(self) -> Iterator[Record]:
        """A fresh, unbounded, deterministic pass over the stream.

        One tick of event time per iteration of the outer loop; every
        record of tick ``t`` carries ``timestamp=float(t)``. Sources
        emit in source order, entities in entity order, so the stream
        arrives in-order (feed it through an arrival-order shuffle to
        exercise the windower's out-of-order handling).
        """
        config = self.config
        emit_rng = random.Random(config.seed + 1)
        truth = self._truth_schedule()
        for tick in itertools.count():
            versions = next(truth)
            copying = (
                config.copier_at is not None and tick >= config.copier_at
            )
            parent_id = f"src{config.copier_parent:02d}"
            parent_emitted: list[Record] = []
            for index in range(config.n_sources):
                source_id = f"src{index:02d}"
                accuracy = self.accuracy_at(source_id, tick)
                for entity in range(config.n_entities):
                    if emit_rng.random() >= config.coverage:
                        continue
                    attributes = {"name": self.entity_name(entity)}
                    for attribute in CONFLICT_ATTRIBUTES:
                        if emit_rng.random() < config.missing_rate:
                            continue
                        version = versions[(entity, attribute)]
                        if emit_rng.random() < accuracy:
                            attributes[attribute] = self._true_value(
                                entity, attribute, version
                            )
                        else:
                            attributes[attribute] = emit_rng.choice(
                                self._false_values(
                                    entity, attribute, version
                                )
                            )
                    record = Record(
                        record_id=f"{source_id}/{tick:06d}-{entity:04d}",
                        source_id=source_id,
                        attributes=attributes,
                        timestamp=float(tick),
                    )
                    if copying and source_id == parent_id:
                        parent_emitted.append(record)
                    yield record
            if copying:
                for parent_record in parent_emitted:
                    entity = self.entity_index_of(parent_record.record_id)
                    attributes = {"name": self.entity_name(entity)}
                    for attribute in CONFLICT_ATTRIBUTES:
                        parent_value = parent_record.attributes.get(
                            attribute
                        )
                        if (
                            parent_value is not None
                            and emit_rng.random() < config.copy_rate
                        ):
                            attributes[attribute] = parent_value
                            continue
                        version = versions[(entity, attribute)]
                        if emit_rng.random() < config.copier_accuracy:
                            attributes[attribute] = self._true_value(
                                entity, attribute, version
                            )
                        else:
                            attributes[attribute] = emit_rng.choice(
                                self._false_values(
                                    entity, attribute, version
                                )
                            )
                    yield Record(
                        record_id=f"cop00/{tick:06d}-{entity:04d}",
                        source_id="cop00",
                        attributes=attributes,
                        timestamp=float(tick),
                    )

    def take(self, n_records: int) -> list[Record]:
        """The first ``n_records`` of a fresh pass (test convenience)."""
        return list(itertools.islice(self.stream(), n_records))


def projection_accuracy(
    world: DriftWorld,
    entities: Mapping[str, Mapping] | Sequence[Mapping],
    tick: float,
) -> float:
    """Score a projection's fused conflict values against planted truth.

    ``entities`` is the canonical projection shape (``members`` +
    ``attributes`` per entity, as produced by the streaming runtime and
    the serving layer). Each projected entity is attributed to the
    planted entity the majority of its members describe; every fused
    conflict attribute then scores against the truth at ``tick``.
    Returns the fraction correct (``nan`` with nothing to score).
    """
    truth = world.truth_at(tick)
    if not isinstance(entities, (list, tuple)):
        entities = list(entities.values())
    correct = 0
    scored = 0
    for entity in entities:
        members = entity["members"]
        counts: dict[int, int] = {}
        for member in members:
            planted = world.entity_index_of(member)
            counts[planted] = counts.get(planted, 0) + 1
        planted_entity = max(
            counts, key=lambda index: (counts[index], -index)
        )
        for attribute in CONFLICT_ATTRIBUTES:
            fused = entity["attributes"].get(attribute)
            if fused is None:
                continue
            scored += 1
            if fused == truth[f"{planted_entity:04d}.{attribute}"]:
                correct += 1
    return correct / scored if scored else math.nan
