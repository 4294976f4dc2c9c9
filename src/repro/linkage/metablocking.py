"""Meta-blocking: pruning redundancy-heavy block collections.

Token and q-gram blocking achieve recall through massive redundancy —
true matches co-occur in *many* blocks, random pairs in few. Meta-
blocking (Papadakis et al.) exploits exactly that: build the *blocking
graph* whose nodes are records and whose edges connect records sharing
at least one block, weight each edge by co-occurrence evidence, and
prune weak edges. The four canonical pruning schemes are provided:

* **WEP** — weighted edge pruning: keep edges above the global mean
  weight;
* **CEP** — cardinality edge pruning: keep the globally top-K edges;
* **WNP** — weighted node pruning: per record, keep edges above that
  record's local mean;
* **CNP** — cardinality node pruning: per record, keep its top-k edges.

Edge weights: **CBS** (common blocks — raw co-occurrence count), **JS**
(Jaccard of the two records' block sets), and **ARCS** (sum of
1/‖block‖ over shared blocks, discounting stop-word blocks).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Literal

from repro.core.errors import ConfigurationError
from repro.linkage.blocking.base import BlockCollection
from repro.obs import NULL_TRACER, observe_candidate_pruning

__all__ = ["BlockingGraph", "build_blocking_graph", "meta_block"]

WeightScheme = Literal["cbs", "js", "arcs"]
PruningScheme = Literal["wep", "cep", "wnp", "cnp"]

Edge = frozenset[str]


class BlockingGraph:
    """The weighted blocking graph of a block collection."""

    def __init__(self, weights: dict[Edge, float]) -> None:
        self._weights = weights
        self._adjacency: dict[str, dict[str, float]] = defaultdict(dict)
        for edge, weight in weights.items():
            a, b = sorted(edge)
            self._adjacency[a][b] = weight
            self._adjacency[b][a] = weight

    @property
    def weights(self) -> dict[Edge, float]:
        """Copy of edge → weight."""
        return dict(self._weights)

    @property
    def n_edges(self) -> int:
        """Number of distinct edges (candidate pairs before pruning)."""
        return len(self._weights)

    def neighbors(self, record_id: str) -> dict[str, float]:
        """Neighbor → weight for one record."""
        return dict(self._adjacency.get(record_id, {}))

    def nodes(self) -> list[str]:
        """All record ids participating in at least one edge."""
        return sorted(self._adjacency)

    def mean_weight(self) -> float:
        """Global mean edge weight (the WEP threshold)."""
        if not self._weights:
            return 0.0
        return math.fsum(self._weights.values()) / len(self._weights)


def build_blocking_graph(
    blocks: BlockCollection, weight: WeightScheme = "cbs"
) -> BlockingGraph:
    """Build the blocking graph with the chosen edge-weight scheme."""
    common: dict[Edge, float] = defaultdict(float)
    arcs: dict[Edge, float] = defaultdict(float)
    for block in blocks:
        ids = block.record_ids
        contribution = 1.0 / len(ids) if ids else 0.0
        for i, left in enumerate(ids):
            for right in ids[i + 1 :]:
                if left == right:
                    continue
                edge = frozenset((left, right))
                common[edge] += 1.0
                arcs[edge] += contribution
    if weight == "cbs":
        return BlockingGraph(dict(common))
    if weight == "arcs":
        return BlockingGraph(dict(arcs))
    if weight == "js":
        weights: dict[Edge, float] = {}
        for edge, shared in common.items():
            a, b = tuple(edge)
            total = (
                len(blocks.blocks_of(a))
                + len(blocks.blocks_of(b))
                - shared
            )
            weights[edge] = shared / total if total else 0.0
        return BlockingGraph(weights)
    raise ConfigurationError(f"unknown weight scheme {weight!r}")


def _prune_wep(graph: BlockingGraph) -> set[Edge]:
    threshold = graph.mean_weight()
    return {
        edge
        for edge, weight in graph.weights.items()
        if weight >= threshold
    }


def _prune_cep(graph: BlockingGraph, budget: int) -> set[Edge]:
    ranked = sorted(
        graph.weights.items(),
        key=lambda kv: (-kv[1], tuple(sorted(kv[0]))),
    )
    return {edge for edge, __ in ranked[:budget]}


def _prune_wnp(graph: BlockingGraph) -> set[Edge]:
    kept: set[Edge] = set()
    for node in graph.nodes():
        neighbors = graph.neighbors(node)
        if not neighbors:
            continue
        local_mean = math.fsum(neighbors.values()) / len(neighbors)
        for other, weight in neighbors.items():
            if weight >= local_mean:
                kept.add(frozenset((node, other)))
    return kept


def _prune_cnp(graph: BlockingGraph, k: int) -> set[Edge]:
    kept: set[Edge] = set()
    for node in graph.nodes():
        neighbors = sorted(
            graph.neighbors(node).items(),
            key=lambda kv: (-kv[1], kv[0]),
        )
        for other, __ in neighbors[:k]:
            kept.add(frozenset((node, other)))
    return kept


def meta_block(
    blocks: BlockCollection,
    weight: WeightScheme = "cbs",
    pruning: PruningScheme = "wep",
    cardinality_ratio: float = 0.05,
    node_degree: int | None = None,
    tracer=None,
) -> set[frozenset[str]]:
    """Prune a block collection down to strong candidate pairs.

    Parameters
    ----------
    blocks:
        The (redundancy-positive) input block collection.
    weight:
        Edge weighting scheme: ``"cbs"``, ``"js"``, or ``"arcs"``.
    pruning:
        ``"wep"``, ``"cep"``, ``"wnp"``, or ``"cnp"``.
    cardinality_ratio:
        For CEP: the edge budget as a fraction of the graph's edges.
    node_degree:
        For CNP: per-node edge budget; defaults to
        ``max(1, round(avg block membership))`` following the original
        heuristic.
    tracer:
        An :class:`repro.obs.Tracer` (default no-op) recording a span
        plus retained/pruned-pair counters.

    Returns the retained candidate pairs.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span(
        "metablocking.meta_block", weight=weight, pruning=pruning
    ) as span:
        graph = build_blocking_graph(blocks, weight=weight)
        if pruning == "wep":
            kept = _prune_wep(graph)
        elif pruning == "cep":
            if not 0.0 < cardinality_ratio <= 1.0:
                raise ConfigurationError(
                    "cardinality_ratio must be in (0, 1]"
                )
            budget = max(1, math.ceil(graph.n_edges * cardinality_ratio))
            kept = _prune_cep(graph, budget)
        elif pruning == "wnp":
            kept = _prune_wnp(graph)
        elif pruning == "cnp":
            if node_degree is None:
                nodes = graph.nodes()
                total_memberships = sum(
                    len(blocks.blocks_of(node)) for node in nodes
                )
                node_degree = max(
                    1, round(total_memberships / max(1, len(nodes)))
                )
            if node_degree < 1:
                raise ConfigurationError("node_degree must be >= 1")
            kept = _prune_cnp(graph, node_degree)
        else:
            raise ConfigurationError(f"unknown pruning scheme {pruning!r}")
        observe_candidate_pruning(tracer, graph.n_edges, len(kept))
        span.set("n_edges", graph.n_edges)
        span.set("n_retained", len(kept))
    return kept
