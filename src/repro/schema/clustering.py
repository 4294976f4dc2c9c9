"""Attribute clustering: from pairwise correspondences to clusters.

Selected correspondences form a graph over source attributes; its
connected components are the attribute clusters that become mediated
attributes. :func:`cluster_attributes` is the standard transitive
closure; :func:`cluster_attributes_robust` additionally breaks
low-cohesion components (a guard against a single spurious
correspondence chaining two real clusters together).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.unionfind import UnionFind
from repro.schema.attribute_stats import SourceAttribute
from repro.schema.correspondence import Correspondence

__all__ = ["cluster_attributes", "cluster_attributes_robust"]

#: The share of a clique's pairs a component must hold to stay whole.
MIN_COHESION = 0.3


def cluster_attributes(
    correspondences: Iterable[Correspondence],
    all_attributes: Iterable[SourceAttribute] = (),
) -> list[list[SourceAttribute]]:
    """Connected components over the correspondence graph.

    ``all_attributes`` adds isolated attributes as singleton clusters so
    the clustering covers the whole corpus.
    """
    uf: UnionFind[SourceAttribute] = UnionFind(all_attributes)
    for correspondence in correspondences:
        uf.union(correspondence.left, correspondence.right)
    return uf.groups()


def cluster_attributes_robust(
    correspondences: Sequence[Correspondence],
    all_attributes: Iterable[SourceAttribute] = (),
) -> list[list[SourceAttribute]]:
    """Connected components, then split low-cohesion components.

    A component's *cohesion* is its number of internal correspondences
    divided by the pairs a clique would have. Components below
    :data:`MIN_COHESION` are re-clustered keeping only their
    above-median-score edges — a cheap approximation of correlation
    clustering that reliably severs single-edge bridges.
    """
    components = cluster_attributes(correspondences, all_attributes)
    by_pair: dict[frozenset[SourceAttribute], float] = {
        c.as_pair(): c.score for c in correspondences
    }
    result: list[list[SourceAttribute]] = []
    for component in components:
        if len(component) <= 2:
            result.append(component)
            continue
        internal = [
            (a, b, by_pair[frozenset((a, b))])
            for i, a in enumerate(component)
            for b in component[i + 1 :]
            if frozenset((a, b)) in by_pair
        ]
        possible = len(component) * (len(component) - 1) // 2
        cohesion = len(internal) / possible if possible else 1.0
        if cohesion >= MIN_COHESION or not internal:
            result.append(component)
            continue
        scores = sorted(score for __, __, score in internal)
        median = scores[len(scores) // 2]
        uf: UnionFind[SourceAttribute] = UnionFind(component)
        for a, b, score in internal:
            if score >= median:
                uf.union(a, b)
        result.extend(uf.groups())
    result.sort(key=lambda group: group[0])
    return result
