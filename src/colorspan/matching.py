"""General-graph matching operations.

Four queries on weighted undirected graphs back every solver in this
package: perfect-matching existence, minimum-weight perfect matching,
bottleneck perfect matching (minimize the largest edge) and threshold
perfect matching (maximize the smallest edge).

The weighted optimum comes from the integer blossom engine: every float
weight is an integer over a power-of-two denominator, so multiplying by
the largest such denominator turns all weights into ints without
rounding, and negating and shifting them makes minimizing total weight
maximizing it.  The answer is exactly the float optimum, with no rational
arithmetic anywhere.  The bottleneck and threshold variants share one
binary search over the sorted distinct edge weights, testing
perfect-matching existence on the subgraph of edges at most
(respectively at least) the probed threshold; the search rests on the
monotonicity of existence in the edge set.  An existence test on a graph
with a vertex on no edge fails before the blossom runs, since an isolated
vertex is an odd component in Tutte's condition.

Infeasibility (no perfect matching) is reported by returning ``None``;
malformed graphs raise :class:`~colorspan.errors.InvalidInstanceError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from ._blossom import maximum_weight_matching
from .errors import InvalidInstanceError


@dataclass(frozen=True)
class WeightedGraph:
    """A simple undirected graph with non-negative real edge weights.

    Edges are normalized to ``u < v``, sorted, and parallel input edges
    collapse to their minimum weight.  Self-loops, vertex ids outside
    ``[0, num_vertices)``, and negative or non-finite weights are rejected.
    """

    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int, float]] = ()):
        if num_vertices < 0:
            raise InvalidInstanceError("vertex count must be non-negative")
        collapsed: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            if u == v:
                raise InvalidInstanceError(f"self-loop at vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise InvalidInstanceError(f"edge ({u}, {v}) references a missing vertex")
            w = float(w)
            if not math.isfinite(w) or w < 0:
                raise InvalidInstanceError(f"edge ({u}, {v}) has invalid weight {w}")
            key = (u, v) if u < v else (v, u)
            if key not in collapsed or w < collapsed[key]:
                collapsed[key] = w
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(
            self, "edges", tuple((u, v, collapsed[(u, v)]) for u, v in sorted(collapsed))
        )

    @cached_property
    def weight_map(self) -> dict[tuple[int, int], float]:
        return {(u, v): w for u, v, w in self.edges}

    def weight(self, u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        try:
            return self.weight_map[key]
        except KeyError:
            raise InvalidInstanceError(f"graph has no edge ({u}, {v})") from None

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self.weight_map

    def filtered(self, min_weight: float | None = None, max_weight: float | None = None) -> "WeightedGraph":
        """Subgraph keeping edges with weight inside the given bounds."""
        kept = [
            (u, v, w)
            for u, v, w in self.edges
            if (min_weight is None or w >= min_weight)
            and (max_weight is None or w <= max_weight)
        ]
        return WeightedGraph(self.num_vertices, kept)


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges plus its weight statistics.

    Edges are stored as sorted ``(u, v)`` pairs with ``u < v``; the three
    statistics are always recomputed from the edge list in that order, so
    equal edge sets produce bit-identical statistics.  An empty matching
    reports zeros.
    """

    edges: tuple[tuple[int, int], ...]
    total_weight: float
    min_edge_weight: float
    max_edge_weight: float

    @classmethod
    def empty(cls) -> "Matching":
        return cls(edges=(), total_weight=0.0, min_edge_weight=0.0, max_edge_weight=0.0)

    @classmethod
    def from_weighted_edges(cls, weighted_edges: Iterable[tuple[int, int, float]]) -> "Matching":
        canon = sorted((min(u, v), max(u, v), float(w)) for u, v, w in weighted_edges)
        if not canon:
            return cls.empty()
        seen: set[int] = set()
        for u, v, _ in canon:
            if u in seen or v in seen or u == v:
                raise InvalidInstanceError("matching edges must be vertex-disjoint")
            seen.update((u, v))
        weights = [w for _, _, w in canon]
        return cls(
            edges=tuple((u, v) for u, v, _ in canon),
            total_weight=sum(weights),
            min_edge_weight=min(weights),
            max_edge_weight=max(weights),
        )

    @classmethod
    def from_edges(cls, graph: WeightedGraph, edges: Iterable[tuple[int, int]]) -> "Matching":
        return cls.from_weighted_edges((u, v, graph.weight(u, v)) for u, v in edges)

    def __len__(self) -> int:
        return len(self.edges)


def _mate_to_pairs(mate: dict[int, int]) -> list[tuple[int, int]]:
    return sorted((u, v) for u, v in mate.items() if u < v)


def _perfect_matching_pairs(g: WeightedGraph) -> list[tuple[int, int]] | None:
    """A perfect matching of g as vertex pairs, or None if none exists."""
    n = g.num_vertices
    if n == 0:
        return []
    # A vertex on no edge is an odd component, so no perfect matching
    # exists (Tutte 1947); n covered vertices need at least n / 2 edges.
    if n % 2 or len({x for u, v, _ in g.edges for x in (u, v)}) < n:
        return None
    unit = {(u, v): 1 for u, v, _ in g.edges}
    mate = maximum_weight_matching(n, unit, max_cardinality=True)
    if len(mate) < n:
        return None
    return _mate_to_pairs(mate)


def has_perfect_matching(g: WeightedGraph) -> bool:
    """True iff some matching covers every vertex (vacuously true for 0)."""
    return _perfect_matching_pairs(g) is not None


def min_weight_perfect_matching(g: WeightedGraph) -> Matching | None:
    """A perfect matching of minimum total weight, or None if infeasible."""
    n = g.num_vertices
    if n == 0:
        return Matching.empty()
    if n % 2 or len(g.edges) < n // 2:
        return None
    # Scale to ints exactly: each weight is num / den with den a power of
    # two, so den divides the largest denominator and num * (scale // den)
    # is the weight times scale.  Then negate and shift so the
    # maximum-weight engine minimizes the total; all perfect matchings
    # have the same cardinality, so any shift works.
    ratios = [w.as_integer_ratio() for _, _, w in g.edges]
    scale = max(den for _, den in ratios)
    scaled = [num * (scale // den) for num, den in ratios]
    top = max(scaled)
    transformed = {(u, v): top - iw for (u, v, _), iw in zip(g.edges, scaled)}
    mate = maximum_weight_matching(n, transformed, max_cardinality=True)
    if len(mate) < n:
        return None
    return Matching.from_edges(g, _mate_to_pairs(mate))


def _threshold_perfect_matching(g: WeightedGraph, minimize_max: bool) -> Matching | None:
    """A perfect matching optimizing its extreme edge weight.

    With ``minimize_max`` the largest edge is minimized, otherwise the
    smallest edge is maximized.  The distinct weights are sorted from the
    most to the least restrictive threshold (ascending, respectively
    descending), and a binary search finds the first threshold whose
    subgraph of edges on the permitted side still has a perfect matching.
    """
    if g.num_vertices == 0:
        return Matching.empty()
    levels = sorted({w for _, _, w in g.edges}, reverse=not minimize_max)
    if not levels or not has_perfect_matching(g):
        return None

    def within(level: float) -> WeightedGraph:
        if minimize_max:
            return g.filtered(max_weight=level)
        return g.filtered(min_weight=level)

    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if has_perfect_matching(within(levels[mid])):
            hi = mid
        else:
            lo = mid + 1
    pairs = _perfect_matching_pairs(within(levels[lo]))
    assert pairs is not None
    return Matching.from_edges(g, pairs)


def bottleneck_perfect_matching(g: WeightedGraph) -> Matching | None:
    """A perfect matching minimizing its maximum edge weight.

    The returned matching's ``max_edge_weight`` is the smallest threshold
    whose at-most-threshold subgraph still has a perfect matching.
    """
    return _threshold_perfect_matching(g, minimize_max=True)


def maxmin_perfect_matching(g: WeightedGraph) -> Matching | None:
    """A perfect matching maximizing its minimum edge weight.

    The returned matching's ``min_edge_weight`` is the largest threshold
    whose at-least-threshold subgraph still has a perfect matching.
    """
    return _threshold_perfect_matching(g, minimize_max=False)
