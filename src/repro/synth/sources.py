"""Source generation: rendering a world through heterogeneous sources.

This is the library's stand-in for the web. Each generated source

* covers a subset of entities, sampled by popularity — source sizes are
  Zipf-distributed, so a few *head* sources cover many entities and a
  long tail of sources covers a handful each;
* renders attributes through its own *schema dialect* (its own attribute
  names) and *format conventions* (its preferred units, decimal comma,
  upper/lower case) — the variety dimension;
* injects *typos* (surface corruption of a correct value) and *errors*
  (a semantically wrong value) at configurable rates — the veracity
  dimension;
* publishes the category's identifier attribute only with some
  probability — the hook for identifier-based linkage.

Everything is driven by one :class:`random.Random` seeded from the
config, so the same config yields byte-identical corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.dataset import Dataset
from repro.core.errors import ConfigurationError
from repro.core.ground_truth import GroundTruth
from repro.core.record import Record
from repro.core.source import Source
from repro.synth.vocab import AttributeSpec, CategoryVocabulary
from repro.synth.world import Entity, World, zipf_weights
from repro.text.normalize import parse_measurement, to_base_unit

__all__ = [
    "CorpusConfig",
    "SourceProfile",
    "build_source_profiles",
    "generate_dataset",
    "render_value",
]

_NAME_DIALECTS = ("name", "title", "product name", "model", "item name")
_KEYBOARD_NEIGHBORS = {
    "a": "sq", "b": "vn", "c": "xv", "d": "sf", "e": "wr", "f": "dg",
    "g": "fh", "h": "gj", "i": "uo", "j": "hk", "k": "jl", "l": "k",
    "m": "n", "n": "bm", "o": "ip", "p": "o", "q": "wa", "r": "et",
    "s": "ad", "t": "ry", "u": "yi", "v": "cb", "w": "qe", "x": "zc",
    "y": "tu", "z": "x",
}


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs for corpus generation — one knob per big-data dimension.

    Volume: ``n_sources`` and ``source_size_zipf`` (source-size skew).
    Variety: ``dialect_noise`` (chance a source picks a non-canonical
    attribute name), ``format_noise`` (chance it renders numeric values
    in an alternate unit), ``tail_attribute_rate`` (fraction of tail
    attributes a source renders).
    Veracity: ``typo_rate`` (surface corruption), ``error_rate``
    (semantically wrong values), ``missing_rate`` (dropped attributes),
    ``source_accuracy_range`` (planted per-source accuracy band from
    which error behaviour is drawn).
    Identifier availability: ``identifier_probability``.
    Attribute long tail: each source additionally invents up to
    ``max_custom_attributes`` source-local attributes (shipping notes,
    warranty text, …) that correspond to nothing anywhere else —
    reproducing the web statistic that most attribute names appear in
    almost no sources.
    """

    n_sources: int = 20
    min_source_size: int = 5
    max_source_size: int = 200
    source_size_zipf: float = 1.0
    dialect_noise: float = 0.5
    format_noise: float = 0.3
    tail_attribute_rate: float = 0.3
    typo_rate: float = 0.05
    error_rate: float = 0.05
    missing_rate: float = 0.1
    identifier_probability: float = 0.8
    source_accuracy_range: tuple[float, float] = (0.7, 0.99)
    max_custom_attributes: int = 0
    seed: int = 11

    def __post_init__(self) -> None:
        if self.n_sources < 1:
            raise ConfigurationError("n_sources must be >= 1")
        if not 1 <= self.min_source_size <= self.max_source_size:
            raise ConfigurationError(
                "need 1 <= min_source_size <= max_source_size"
            )
        for name in (
            "dialect_noise",
            "format_noise",
            "tail_attribute_rate",
            "typo_rate",
            "error_rate",
            "missing_rate",
            "identifier_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        low, high = self.source_accuracy_range
        if not 0.0 < low <= high <= 1.0:
            raise ConfigurationError(
                "source_accuracy_range must satisfy 0 < low <= high <= 1"
            )
        if self.max_custom_attributes < 0:
            raise ConfigurationError(
                "max_custom_attributes must be >= 0"
            )


@dataclass(frozen=True)
class SourceProfile:
    """One source's rendering conventions (its 'template').

    ``dialect`` maps mediated attribute → this source's attribute name.
    ``unit_preference`` maps numeric mediated attributes → the unit this
    source renders them in. ``accuracy`` is the planted probability that
    a rendered value is semantically correct (before typos).
    ``custom_attributes`` maps this source's invented attribute names to
    their value pools — the long tail of attributes nobody else has.
    """

    source_id: str
    dialect: Mapping[str, str]
    unit_preference: Mapping[str, str]
    rendered_attributes: tuple[str, ...]
    publishes_identifier: bool
    uppercase: bool
    decimal_comma: bool
    accuracy: float
    custom_attributes: Mapping[str, tuple[str, ...]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.custom_attributes is None:
            object.__setattr__(self, "custom_attributes", {})


_CUSTOM_ATTRIBUTE_HEADS = (
    "shipping", "warranty", "availability", "condition", "rating",
    "stock", "delivery", "packaging", "origin", "bundle", "promo",
    "listing", "return", "payment", "seller", "handling",
)
_CUSTOM_ATTRIBUTE_TAILS = (
    "info", "notes", "policy", "status", "time", "details", "class",
    "terms", "code", "level", "options", "region",
)
_CUSTOM_VALUE_POOL = (
    "yes", "no", "free", "standard", "express", "2-5 days", "in stock",
    "limited", "new", "refurbished", "eu only", "worldwide", "30 days",
    "1 year", "2 years", "prepaid", "on request", "bulk", "fragile",
)


def _draw_custom_attributes(
    rng: random.Random, max_custom: int
) -> dict[str, tuple[str, ...]]:
    """Invent this source's local attributes and their value pools."""
    count = rng.randint(0, max_custom) if max_custom else 0
    custom: dict[str, tuple[str, ...]] = {}
    for __ in range(count):
        name = (
            f"{rng.choice(_CUSTOM_ATTRIBUTE_HEADS)} "
            f"{rng.choice(_CUSTOM_ATTRIBUTE_TAILS)}"
        )
        if name in custom:
            continue
        pool = tuple(
            rng.sample(_CUSTOM_VALUE_POOL, k=rng.randint(2, 5))
        )
        custom[name] = pool
    return custom


def _make_typo(value: str, rng: random.Random) -> str:
    """Apply one character-level corruption to ``value``."""
    if not value:
        return value
    position = rng.randrange(len(value))
    char = value[position]
    operation = rng.choice(("substitute", "delete", "insert", "transpose"))
    if operation == "substitute":
        neighbors = _KEYBOARD_NEIGHBORS.get(char.lower(), "abcdefghijklmnop")
        replacement = rng.choice(neighbors)
        return value[:position] + replacement + value[position + 1 :]
    if operation == "delete" and len(value) > 1:
        return value[:position] + value[position + 1 :]
    if operation == "insert":
        neighbors = _KEYBOARD_NEIGHBORS.get(char.lower(), "abcdefghijklmnop")
        return value[:position] + rng.choice(neighbors) + value[position:]
    if operation == "transpose" and position + 1 < len(value):
        return (
            value[:position]
            + value[position + 1]
            + value[position]
            + value[position + 2 :]
        )
    return value


def render_value(
    spec: AttributeSpec | None,
    true_value: str,
    profile: SourceProfile,
) -> str:
    """Render a true value through a source's format conventions.

    Numeric values are converted into the source's preferred unit;
    casing and decimal-comma conventions are applied. The rendered
    value stays *semantically* equal to the truth — typos and errors
    are injected separately.
    """
    rendered = true_value
    if spec is not None and spec.kind == "numeric" and spec.unit:
        preferred = profile.unit_preference.get(spec.name, spec.unit)
        if preferred != spec.unit:
            measurement = parse_measurement(true_value)
            if measurement is not None and measurement.unit:
                base = to_base_unit(measurement.value, measurement.unit)
                target = to_base_unit(1.0, preferred)
                if base is not None and target is not None:
                    __, base_value = base
                    __, per_unit = target
                    converted = base_value / per_unit
                    rendered = f"{converted:.5g} {preferred}"
    if profile.decimal_comma:
        rendered = _apply_decimal_comma(rendered)
    if profile.uppercase:
        rendered = rendered.upper()
    return rendered


def _apply_decimal_comma(value: str) -> str:
    """Replace decimal points inside numbers with commas."""
    out: list[str] = []
    for i, char in enumerate(value):
        is_decimal_point = (
            char == "."
            and 0 < i < len(value) - 1
            and value[i - 1].isdigit()
            and value[i + 1].isdigit()
        )
        out.append("," if is_decimal_point else char)
    return "".join(out)


def _build_profile(
    source_index: int,
    vocabulary: CategoryVocabulary,
    config: CorpusConfig,
    rng: random.Random,
) -> SourceProfile:
    dialect: dict[str, str] = {}
    if rng.random() < config.dialect_noise:
        dialect["name"] = rng.choice(_NAME_DIALECTS[1:])
    else:
        dialect["name"] = "name"
    unit_preference: dict[str, str] = {}
    for spec in vocabulary.attributes:
        if rng.random() < config.dialect_noise and len(spec.dialects) > 1:
            dialect[spec.name] = rng.choice(spec.dialects[1:])
        else:
            dialect[spec.name] = spec.dialects[0]
        if (
            spec.kind == "numeric"
            and spec.alt_units
            and rng.random() < config.format_noise
        ):
            unit_preference[spec.name] = rng.choice(spec.alt_units)
    rendered = [spec.name for spec in vocabulary.head_attributes()]
    for spec in vocabulary.tail_attributes():
        if rng.random() < config.tail_attribute_rate:
            rendered.append(spec.name)
    low, high = config.source_accuracy_range
    return SourceProfile(
        source_id=f"src{source_index:04d}.example.com",
        dialect=dialect,
        unit_preference=unit_preference,
        rendered_attributes=tuple(rendered),
        publishes_identifier=rng.random() < config.identifier_probability,
        uppercase=rng.random() < 0.3 * config.format_noise,
        decimal_comma=rng.random() < 0.4 * config.format_noise,
        accuracy=rng.uniform(low, high),
        custom_attributes=_draw_custom_attributes(
            rng, config.max_custom_attributes
        ),
    )


def _wrong_value(
    spec: AttributeSpec, true_value: str, rng: random.Random
) -> str:
    """A semantically wrong value for ``spec`` (never the truth)."""
    for _ in range(20):
        candidate = spec.draw_true_value(rng, rng.randrange(1_000_000))
        if candidate != true_value:
            return candidate
    return true_value + " x"  # pathological spec; still wrong


def _render_record(
    entity: Entity,
    profile: SourceProfile,
    vocabulary: CategoryVocabulary,
    config: CorpusConfig,
    rng: random.Random,
    local_index: int,
    value_corrections: dict[tuple[str, str], str],
) -> tuple[Record, dict[tuple[str, str], str]]:
    """Render one record; return it plus its (source attr → mediated) map."""
    attributes: dict[str, str] = {}
    attribute_map: dict[tuple[str, str], str] = {}

    # The entity name is always rendered (it is the record's title).
    name_attr = profile.dialect.get("name", "name")
    name_value = entity.name
    if rng.random() < config.typo_rate:
        name_value = _make_typo(name_value, rng)
    if profile.uppercase:
        name_value = name_value.upper()
    attributes[name_attr] = name_value
    attribute_map[(profile.source_id, name_attr)] = "name"

    for mediated_name in profile.rendered_attributes:
        spec = vocabulary.spec(mediated_name)
        if spec.kind == "identifier" and not profile.publishes_identifier:
            continue
        if rng.random() < config.missing_rate:
            continue
        true_value = entity.true_values[mediated_name]
        is_error = (
            spec.kind != "identifier"
            and rng.random() > profile.accuracy * (1.0 - config.error_rate)
        )
        if is_error:
            key = (entity.entity_id, mediated_name)
            semantic_value = value_corrections.get(key)
            if semantic_value is None:
                semantic_value = _wrong_value(spec, true_value, rng)
        else:
            semantic_value = true_value
        rendered = render_value(spec, semantic_value, profile)
        if spec.kind != "identifier" and rng.random() < config.typo_rate:
            rendered = _make_typo(rendered, rng)
        source_attr = profile.dialect[mediated_name]
        attributes[source_attr] = rendered
        attribute_map[(profile.source_id, source_attr)] = mediated_name

    # Source-local custom attributes: present on most pages, mapped to
    # a mediated attribute unique to this source (they truly correspond
    # to nothing elsewhere).
    for custom_name, pool in profile.custom_attributes.items():
        if custom_name in attributes or rng.random() < 0.3:
            continue
        attributes[custom_name] = rng.choice(pool)
        attribute_map[(profile.source_id, custom_name)] = (
            f"custom::{profile.source_id}::{custom_name}"
        )

    record = Record(
        record_id=f"{profile.source_id}/{local_index:05d}",
        source_id=profile.source_id,
        attributes=attributes,
    )
    return record, attribute_map


def build_source_profiles(
    world: World,
    config: CorpusConfig,
    n_profiles: int | None = None,
    id_offset: int = 0,
) -> list[SourceProfile]:
    """Draw source rendering profiles without rendering any records.

    Used by the velocity substrate, which needs the *same* source
    templates across corpus snapshots (a website keeps its layout even
    as its catalog changes). ``id_offset`` shifts source numbering so
    replacement sources get fresh ids.
    """
    rng = random.Random(config.seed + 1_000_003 * (id_offset + 1))
    categories = world.categories
    count = n_profiles if n_profiles is not None else config.n_sources
    profiles = []
    for index in range(count):
        category = categories[(index + id_offset) % len(categories)]
        vocabulary = world.vocabulary(category)
        profiles.append(
            _build_profile(index + id_offset, vocabulary, config, rng)
        )
    return profiles


def generate_dataset(
    world: World,
    config: CorpusConfig | None = None,
) -> Dataset:
    """Render ``world`` through ``config.n_sources`` heterogeneous sources.

    Returns a :class:`Dataset` whose ground truth carries the exact
    record→entity mapping, the exact (source attribute → mediated
    attribute) mapping, and the true value of every (entity, mediated
    attribute) data item.
    """
    config = config or CorpusConfig()
    rng = random.Random(config.seed)
    categories = world.categories
    size_weights = zipf_weights(config.n_sources, config.source_size_zipf)
    max_span = config.max_source_size - config.min_source_size

    sources: list[Source] = []
    record_to_entity: dict[str, str] = {}
    attribute_to_mediated: dict[tuple[str, str], str] = {}
    true_values: dict[tuple[str, str], str] = {}

    for entity in world.entities:
        for attr, value in entity.true_values.items():
            true_values[(entity.entity_id, attr)] = value

    for source_index in range(config.n_sources):
        source_category = categories[source_index % len(categories)]
        vocabulary = world.vocabulary(source_category)
        profile = _build_profile(source_index, vocabulary, config, rng)
        relative = size_weights[source_index] / size_weights[0]
        size = config.min_source_size + round(max_span * relative)
        candidates = world.entities_in(source_category)
        size = min(size, len(candidates))
        weights = [e.popularity for e in candidates]
        chosen = _sample_without_replacement(candidates, weights, size, rng)

        source = Source(
            profile.source_id,
            cost=1.0 + rng.random(),
            metadata={
                "category": source_category,
                "planted_accuracy": f"{profile.accuracy:.4f}",
            },
        )
        for local_index, entity in enumerate(chosen):
            record, attribute_map = _render_record(
                entity, profile, vocabulary, config, rng, local_index, {}
            )
            source.add(record)
            record_to_entity[record.record_id] = entity.entity_id
            attribute_to_mediated.update(attribute_map)
        sources.append(source)

    truth = GroundTruth(record_to_entity, true_values, attribute_to_mediated)
    return Dataset(sources, truth, name="synthetic-corpus")


def _sample_without_replacement(
    population: Sequence[Entity],
    weights: Sequence[float],
    k: int,
    rng: random.Random,
) -> list[Entity]:
    """Weighted sampling without replacement (Efraimidis-Spirakis keys)."""
    if k >= len(population):
        return list(population)
    keyed = []
    for item, weight in zip(population, weights):
        if weight <= 0:
            continue
        keyed.append((rng.random() ** (1.0 / weight), item))
    keyed.sort(key=lambda pair: pair[0], reverse=True)
    return [item for __, item in keyed[:k]]
