"""One-call corpus construction with 4-V knobs.

:func:`build_corpus` wires the world generator, the source renderer,
and (optionally) copier injection into a single call parameterized by
the four big-data dimensions, so examples and benchmarks can say
"give me a corpus with high variety and moderate veracity problems"
in one line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.dataset import Dataset
from repro.core.errors import ConfigurationError
from repro.synth.copiers import CopierConfig, add_copier_sources
from repro.synth.sources import CorpusConfig, generate_dataset
from repro.synth.world import World, WorldConfig, generate_world

__all__ = ["FourVKnobs", "build_corpus", "BuiltCorpus"]


@dataclass(frozen=True)
class FourVKnobs:
    """The 4-V dials, each in ``[0, 1]``, mapped onto generator configs.

    * ``volume`` scales the number of sources (5 → 55) and entities
      per category (40 → 400).
    * ``variety`` scales dialect noise, format noise, and tail-attribute
      prevalence.
    * ``veracity`` scales typo, error, and missing rates downward from
      clean (0 = clean corpus, 1 = very dirty) and adds copier sources.

    Velocity is the velocity substrate's (``repro.velocity``), not a
    dial here.
    """

    volume: float = 0.3
    variety: float = 0.5
    veracity: float = 0.3
    seed: int = 29

    def __post_init__(self) -> None:
        for name in ("volume", "variety", "veracity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")

    def world_config(self) -> WorldConfig:
        """WorldConfig implied by these knobs."""
        return WorldConfig(
            categories=("camera", "notebook", "headphone"),
            entities_per_category=int(40 + 360 * self.volume),
            zipf_exponent=1.0,
            seed=self.seed,
        )

    def corpus_config(self) -> CorpusConfig:
        """CorpusConfig implied by these knobs."""
        return CorpusConfig(
            n_sources=int(5 + 50 * self.volume),
            min_source_size=5,
            max_source_size=int(40 + 260 * self.volume),
            dialect_noise=0.2 + 0.7 * self.variety,
            format_noise=0.1 + 0.6 * self.variety,
            tail_attribute_rate=0.1 + 0.5 * self.variety,
            typo_rate=0.1 * self.veracity,
            error_rate=0.12 * self.veracity,
            missing_rate=0.05 + 0.2 * self.veracity,
            identifier_probability=max(0.4, 0.95 - 0.4 * self.variety),
            source_accuracy_range=(
                max(0.5, 0.95 - 0.45 * self.veracity),
                0.99,
            ),
            seed=self.seed + 1,
        )

    def copier_config(self) -> CopierConfig | None:
        """CopierConfig implied by these knobs (None when veracity ~ 0)."""
        n_copiers = int(round(4 * self.veracity))
        if n_copiers == 0:
            return None
        return CopierConfig(
            n_copiers=n_copiers,
            copy_fraction=0.8,
            perturbation_rate=0.05,
            seed=self.seed + 2,
        )


@dataclass(frozen=True)
class BuiltCorpus:
    """A generated corpus and the generation artifacts behind it."""

    dataset: Dataset
    world: World
    knobs: FourVKnobs
    copier_of: dict[str, str]


def build_corpus(knobs: FourVKnobs | None = None) -> BuiltCorpus:
    """Build a full corpus from 4-V knobs (deterministic in the seed)."""
    knobs = knobs or FourVKnobs()
    world = generate_world(knobs.world_config())
    dataset = generate_dataset(world, knobs.corpus_config())
    copier_config = knobs.copier_config()
    copier_of: dict[str, str] = {}
    if copier_config is not None:
        dataset, copier_of = add_copier_sources(dataset, copier_config)
    return BuiltCorpus(
        dataset=dataset, world=world, knobs=knobs, copier_of=copier_of
    )


def scaled(knobs: FourVKnobs, **overrides: float) -> FourVKnobs:
    """A copy of ``knobs`` with some dials replaced (sweep helper)."""
    return replace(knobs, **overrides)
