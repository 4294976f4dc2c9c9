"""Planted claim-matrix generation for fusion experiments.

This generator reproduces the experimental setup of the canonical
fusion studies: a set of data items with a known true value, a set of
*independent* sources each with a planted accuracy (a source provides
the true value with probability equal to its accuracy, otherwise one of
``n_false_values`` uniformly chosen wrong values), and a set of
*copiers*, each copying a parent source's value with probability
``copy_rate`` per item and answering independently otherwise.

Because the truth, the accuracies, and the copier DAG are all planted,
fusion algorithms can be scored exactly — including copy detection
precision/recall against the planted edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import ConfigurationError
from repro.fusion.base import ClaimSet

__all__ = [
    "ClaimWorldConfig",
    "NumericClaimWorldConfig",
    "PlantedClaims",
    "PlantedNumericClaims",
    "generate_claims",
    "generate_numeric_claims",
]


@dataclass(frozen=True)
class ClaimWorldConfig:
    """Knobs for planted claim generation.

    Parameters
    ----------
    n_items:
        Number of data items.
    n_independent:
        Number of independent sources.
    n_copiers:
        Number of copier sources. Each copier picks one parent among
        the independent sources (or, with ``copier_chains=True``,
        possibly another copier created earlier).
    accuracy_range:
        Planted accuracies of independent sources are drawn uniformly
        from this band. Copiers' *independent-answer* accuracy is drawn
        from the same band.
    copy_rate:
        Per-item probability that a copier copies its parent instead of
        answering independently.
    coverage:
        Per-(source, item) probability that the source claims the item
        at all.
    n_false_values:
        Size of the wrong-value pool per item; false values are shared
        across sources (uniform-false-value model).
    copier_chains:
        Allow copiers to copy from earlier copiers, forming chains.
    parent_pool:
        When set, copiers pick parents only among the first
        ``parent_pool`` independent sources (plus earlier copiers when
        chaining) — concentrating the copying, which is the regime
        where copy-unaware fusion visibly breaks.
    parent_accuracy:
        When set, overrides the planted accuracy of the parent-pool
        sources (e.g. a low value plants a popular-but-wrong source).
    seed:
        Seed for the generator's private RNG.
    """

    n_items: int = 100
    n_independent: int = 10
    n_copiers: int = 0
    accuracy_range: tuple[float, float] = (0.6, 0.95)
    copy_rate: float = 0.8
    coverage: float = 1.0
    n_false_values: int = 10
    copier_chains: bool = False
    parent_pool: int | None = None
    parent_accuracy: float | None = None
    seed: int = 13

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise ConfigurationError("n_items must be >= 1")
        if self.n_independent < 1:
            raise ConfigurationError("n_independent must be >= 1")
        if self.n_copiers < 0:
            raise ConfigurationError("n_copiers must be >= 0")
        low, high = self.accuracy_range
        if not 0.0 < low <= high <= 1.0:
            raise ConfigurationError(
                "accuracy_range must satisfy 0 < low <= high <= 1"
            )
        if not 0.0 <= self.copy_rate <= 1.0:
            raise ConfigurationError("copy_rate must be in [0, 1]")
        if not 0.0 < self.coverage <= 1.0:
            raise ConfigurationError("coverage must be in (0, 1]")
        if self.n_false_values < 1:
            raise ConfigurationError("n_false_values must be >= 1")
        if self.parent_pool is not None and not (
            1 <= self.parent_pool <= self.n_independent
        ):
            raise ConfigurationError(
                "parent_pool must be in [1, n_independent]"
            )
        if self.parent_accuracy is not None and not (
            0.0 < self.parent_accuracy <= 1.0
        ):
            raise ConfigurationError("parent_accuracy must be in (0, 1]")


@dataclass(frozen=True)
class PlantedClaims:
    """A claim set together with everything that was planted in it."""

    claims: ClaimSet
    truth: Mapping[str, str]
    accuracies: Mapping[str, float]
    copier_of: Mapping[str, str]

    @property
    def independent_sources(self) -> tuple[str, ...]:
        """Sources that answer independently (non-copiers)."""
        return tuple(
            source
            for source in self.claims.sources()
            if source not in self.copier_of
        )


def generate_claims(config: ClaimWorldConfig | None = None) -> PlantedClaims:
    """Generate a planted claim world from ``config`` (deterministic)."""
    config = config or ClaimWorldConfig()
    rng = random.Random(config.seed)
    low, high = config.accuracy_range

    items = [f"item{i:05d}" for i in range(config.n_items)]
    truth = {item: f"{item}/v0" for item in items}
    false_pools = {
        item: [f"{item}/v{j}" for j in range(1, config.n_false_values + 1)]
        for item in items
    }

    independent = [f"ind{i:03d}" for i in range(config.n_independent)]
    copiers = [f"cop{i:03d}" for i in range(config.n_copiers)]
    accuracies = {source: rng.uniform(low, high) for source in independent}
    accuracies.update({source: rng.uniform(low, high) for source in copiers})
    pool_size = config.parent_pool or config.n_independent
    if config.parent_accuracy is not None:
        for source in independent[:pool_size]:
            accuracies[source] = config.parent_accuracy

    copier_of: dict[str, str] = {}
    for index, copier in enumerate(copiers):
        parents = independent[:pool_size]
        if config.copier_chains:
            parents = parents + copiers[:index]
        copier_of[copier] = rng.choice(parents)

    def independent_answer(source: str, item: str) -> str:
        if rng.random() < accuracies[source]:
            return truth[item]
        return rng.choice(false_pools[item])

    claim_set = ClaimSet()
    answers: dict[tuple[str, str], str] = {}

    for source in independent:
        for item in items:
            if rng.random() >= config.coverage:
                continue
            value = independent_answer(source, item)
            answers[(source, item)] = value
            claim_set.offer(source, item, value)

    # Copiers are materialized in creation order so chain parents are
    # already answered when a chained copier consults them.
    for copier in copiers:
        parent = copier_of[copier]
        for item in items:
            if rng.random() >= config.coverage:
                continue
            parent_value = answers.get((parent, item))
            if parent_value is not None and rng.random() < config.copy_rate:
                value = parent_value
            else:
                value = independent_answer(copier, item)
            answers[(copier, item)] = value
            claim_set.offer(copier, item, value)

    return PlantedClaims(
        claims=claim_set,
        truth=truth,
        accuracies=accuracies,
        copier_of=copier_of,
    )


@dataclass(frozen=True)
class NumericClaimWorldConfig:
    """Knobs for planted *numeric* claim generation (the CRH setting).

    Each item has a true value uniform in ``value_range``; each source
    observes it with Gaussian noise whose standard deviation is drawn
    (per source) from ``noise_range``, expressed as a fraction of the
    value range's width. ``outlier_sources`` sources additionally
    suffer ``outlier_rate`` gross errors (uniform anywhere in range) —
    the heavy tails that separate robust from mean-based aggregation.
    """

    n_items: int = 100
    n_sources: int = 10
    value_range: tuple[float, float] = (0.0, 1000.0)
    noise_range: tuple[float, float] = (0.005, 0.05)
    outlier_sources: int = 0
    outlier_rate: float = 0.3
    coverage: float = 1.0
    seed: int = 37

    def __post_init__(self) -> None:
        if self.n_items < 1 or self.n_sources < 1:
            raise ConfigurationError("need >= 1 item and source")
        low, high = self.value_range
        if low >= high:
            raise ConfigurationError("value_range must satisfy low < high")
        nlow, nhigh = self.noise_range
        if not 0.0 < nlow <= nhigh:
            raise ConfigurationError("noise_range must satisfy 0 < low <= high")
        if not 0 <= self.outlier_sources <= self.n_sources:
            raise ConfigurationError(
                "outlier_sources must be in [0, n_sources]"
            )
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ConfigurationError("outlier_rate must be in [0, 1]")
        if not 0.0 < self.coverage <= 1.0:
            raise ConfigurationError("coverage must be in (0, 1]")


@dataclass(frozen=True)
class PlantedNumericClaims:
    """Numeric claims plus everything planted in them."""

    claims: Mapping[tuple[str, str], float]
    truth: Mapping[str, float]
    noise_levels: Mapping[str, float]
    outlier_sources: tuple[str, ...]


def generate_numeric_claims(
    config: NumericClaimWorldConfig | None = None,
) -> PlantedNumericClaims:
    """Generate a planted numeric claim world (deterministic)."""
    config = config or NumericClaimWorldConfig()
    rng = random.Random(config.seed)
    low, high = config.value_range
    width = high - low
    items = [f"item{i:05d}" for i in range(config.n_items)]
    truth = {item: rng.uniform(low, high) for item in items}
    sources = [f"num{i:03d}" for i in range(config.n_sources)]
    nlow, nhigh = config.noise_range
    noise = {source: rng.uniform(nlow, nhigh) * width for source in sources}
    outliers = tuple(sources[: config.outlier_sources])
    claims: dict[tuple[str, str], float] = {}
    for source in sources:
        for item in items:
            if rng.random() >= config.coverage:
                continue
            if source in outliers and rng.random() < config.outlier_rate:
                claims[(source, item)] = rng.uniform(low, high)
            else:
                claims[(source, item)] = rng.gauss(
                    truth[item], noise[source]
                )
    return PlantedNumericClaims(
        claims=claims,
        truth=truth,
        noise_levels=noise,
        outlier_sources=outliers,
    )
