"""Probabilistic mediated schemas and p-mappings (pay-as-you-go alignment).

Automatic attribute matching is uncertain: some correspondences are
clearly right, some clearly wrong, and a gray zone in between. The
probabilistic mediated schema keeps that uncertainty instead of
thresholding it away: *certain* edges are merged outright, while each
plausible resolution of the *uncertain* edges yields a candidate
mediated schema with a probability. Query answers are then weighted by
the total probability of the schemas that support them, which is what
lifts recall (gray-zone synonyms still contribute) without the
precision collapse of simply lowering the threshold.

The construction follows Das Sarma, Dong & Halevy (SIGMOD'08) adapted
to this library's matcher scores: edge probability is the matcher score
rescaled over the uncertain band, parallel uncertain edges between the
same certain clusters combine by noisy-or, and the top-K most probable
edge subsets (enumerated best-first) become the candidate schemas.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.dataset import Dataset
from repro.core.errors import ConfigurationError
from repro.core.unionfind import UnionFind
from repro.schema.attribute_stats import SourceAttribute, profile_attributes
from repro.schema.correspondence import Correspondence, score_all_pairs
from repro.schema.matchers import AttributeMatcher, HybridMatcher
from repro.schema.mediated import (
    MediatedAttribute,
    MediatedSchema,
    canonical_name,
)

__all__ = [
    "CandidateSchema",
    "ProbabilisticMediatedSchema",
    "build_probabilistic_mediated_schema",
]


@dataclass(frozen=True)
class CandidateSchema:
    """One candidate mediated schema with its probability."""

    schema: MediatedSchema
    probability: float


class ProbabilisticMediatedSchema:
    """A distribution over candidate mediated schemas."""

    def __init__(self, candidates: Sequence[CandidateSchema]) -> None:
        if not candidates:
            raise ConfigurationError(
                "a probabilistic schema needs at least one candidate"
            )
        total = sum(c.probability for c in candidates)
        if total <= 0:
            raise ConfigurationError("candidate probabilities must sum > 0")
        self._candidates = tuple(
            CandidateSchema(c.schema, c.probability / total)
            for c in candidates
        )

    @property
    def candidates(self) -> tuple[CandidateSchema, ...]:
        """Candidate schemas, probabilities normalized to sum to 1."""
        return self._candidates

    def most_probable(self) -> MediatedSchema:
        """The single most probable candidate schema."""
        return max(self._candidates, key=lambda c: c.probability).schema

    def mapping_probability(
        self, a: SourceAttribute, b: SourceAttribute
    ) -> float:
        """Total probability that ``a`` and ``b`` share a mediated
        attribute (the p-mapping weight of the correspondence)."""
        probability = 0.0
        for candidate in self._candidates:
            mediated_a = candidate.schema.mediated_for(*a)
            mediated_b = candidate.schema.mediated_for(*b)
            if (
                mediated_a is not None
                and mediated_b is not None
                and mediated_a is mediated_b
            ):
                probability += candidate.probability
        return probability

    def __len__(self) -> int:
        return len(self._candidates)

    def __repr__(self) -> str:
        return (
            f"ProbabilisticMediatedSchema(candidates={len(self._candidates)})"
        )


def _certain_clusters(
    certain: Sequence[Correspondence],
    all_attributes: Sequence[SourceAttribute],
) -> tuple[dict[SourceAttribute, int], list[list[SourceAttribute]]]:
    """Merge certain edges; return (attribute → cluster index, clusters)."""
    uf: UnionFind[SourceAttribute] = UnionFind(all_attributes)
    for correspondence in certain:
        uf.union(correspondence.left, correspondence.right)
    clusters = uf.groups()
    index_of: dict[SourceAttribute, int] = {}
    for index, cluster in enumerate(clusters):
        for attribute in cluster:
            index_of[attribute] = index
    return index_of, clusters


def _uncertain_cluster_edges(
    uncertain: Sequence[Correspondence],
    index_of: Mapping[SourceAttribute, int],
    low: float,
    high: float,
    max_edges: int,
) -> list[tuple[int, int, float]]:
    """Collapse uncertain correspondences onto certain-cluster pairs.

    Parallel edges between the same cluster pair combine by noisy-or;
    only the ``max_edges`` most probable cluster edges are kept (the
    rest are treated as absent, i.e. resolved to "no merge").
    """
    combined: dict[tuple[int, int], float] = {}
    band = max(high - low, 1e-9)
    for correspondence in uncertain:
        a = index_of[correspondence.left]
        b = index_of[correspondence.right]
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        p = min(0.99, max(0.01, (correspondence.score - low) / band))
        previous = combined.get(key, 0.0)
        combined[key] = 1.0 - (1.0 - previous) * (1.0 - p)
    edges = sorted(
        ((a, b, p) for (a, b), p in combined.items()),
        key=lambda edge: (-edge[2], edge[0], edge[1]),
    )
    return edges[:max_edges]


def _top_k_subsets(
    probabilities: Sequence[float], k: int
) -> list[tuple[float, tuple[bool, ...]]]:
    """The ``k`` most probable on/off assignments of independent edges.

    Best-first search over the binary choice tree: start from the
    maximum-probability assignment (each edge takes its more likely
    state) and expand by flipping edges in increasing cost order.
    """
    n = len(probabilities)
    if n == 0:
        return [(1.0, ())]
    best = [p >= 0.5 for p in probabilities]
    # Cost of flipping edge i away from its best state, in log-odds terms.
    flip_ratio = [
        (min(p, 1 - p) / max(p, 1 - p)) if 0 < p < 1 else 0.0
        for p in probabilities
    ]
    base = 1.0
    for p, state in zip(probabilities, best):
        base *= p if state else (1 - p)
    order = sorted(range(n), key=lambda i: -flip_ratio[i])
    # Nodes: (negative probability, tiebreak, flipped index frontier, flips)
    counter = itertools.count()
    heap: list[tuple[float, int, int, frozenset[int]]] = [
        (-base, next(counter), 0, frozenset())
    ]
    seen: set[frozenset[int]] = {frozenset()}
    results: list[tuple[float, tuple[bool, ...]]] = []
    while heap and len(results) < k:
        negative, __, frontier, flips = heapq.heappop(heap)
        probability = -negative
        assignment = tuple(
            (not best[i]) if i in flips else best[i] for i in range(n)
        )
        results.append((probability, assignment))
        for position in range(frontier, n):
            edge = order[position]
            if edge in flips or flip_ratio[edge] == 0.0:
                continue
            new_flips = flips | {edge}
            if new_flips in seen:
                continue
            seen.add(new_flips)
            heapq.heappush(
                heap,
                (
                    -(probability * flip_ratio[edge]),
                    next(counter),
                    position + 1,
                    new_flips,
                ),
            )
    return results


def _schema_from_assignment(
    clusters: Sequence[Sequence[SourceAttribute]],
    edges: Sequence[tuple[int, int, float]],
    assignment: Sequence[bool],
) -> MediatedSchema:
    uf: UnionFind[int] = UnionFind(range(len(clusters)))
    for (a, b, __), on in zip(edges, assignment):
        if on:
            uf.union(a, b)
    merged: dict[int, list[SourceAttribute]] = {}
    for index, cluster in enumerate(clusters):
        merged.setdefault(uf.find(index), []).extend(cluster)
    from collections import Counter

    used: Counter[str] = Counter()
    mediated: list[MediatedAttribute] = []
    for members in sorted(merged.values(), key=lambda m: sorted(m)[0]):
        name = canonical_name(members)
        used[name] += 1
        if used[name] > 1:
            name = f"{name} ({used[name]})"
        mediated.append(MediatedAttribute(name, tuple(sorted(members))))
    return MediatedSchema(mediated)


def build_probabilistic_mediated_schema(
    dataset: Dataset,
    matcher: AttributeMatcher | None = None,
    certain_threshold: float = 0.8,
    uncertain_threshold: float = 0.45,
    max_schemas: int = 8,
    max_uncertain_edges: int = 12,
    one_to_one: bool = True,
    tracer=None,
) -> ProbabilisticMediatedSchema:
    """Build a probabilistic mediated schema over ``dataset``.

    Correspondences scoring ≥ ``certain_threshold`` are merged in every
    candidate; those in ``[uncertain_threshold, certain_threshold)``
    become probabilistic edges; lower scores are discarded. The top
    ``max_schemas`` edge resolutions (by probability) become the
    candidate schemas. ``tracer`` receives the ``schema.*`` pair counts.
    """
    if not 0 <= uncertain_threshold < certain_threshold <= 1:
        raise ConfigurationError(
            "need 0 <= uncertain_threshold < certain_threshold <= 1"
        )
    matcher = matcher or HybridMatcher()
    profiles = profile_attributes(dataset)
    scored = score_all_pairs(
        profiles, matcher, min_score=uncertain_threshold, tracer=tracer
    )
    if one_to_one:
        from repro.schema.correspondence import select_correspondences

        scored = select_correspondences(
            scored, threshold=uncertain_threshold, one_to_one=True
        )
    certain = [c for c in scored if c.score >= certain_threshold]
    uncertain = [c for c in scored if c.score < certain_threshold]
    all_attributes = sorted(profiles.keys())
    index_of, clusters = _certain_clusters(certain, all_attributes)
    edges = _uncertain_cluster_edges(
        uncertain,
        index_of,
        uncertain_threshold,
        certain_threshold,
        max_uncertain_edges,
    )
    subsets = _top_k_subsets([p for __, __, p in edges], max_schemas)
    candidates = [
        CandidateSchema(
            _schema_from_assignment(clusters, edges, assignment),
            probability,
        )
        for probability, assignment in subsets
    ]
    return ProbabilisticMediatedSchema(candidates)
