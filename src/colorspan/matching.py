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
arithmetic anywhere.

Perfect-matching existence is Edmonds' cardinality search (1965) on
adjacency lists, with no weights and no duals: a greedy start, then one
alternating tree with blossom shrinking from each vertex left free,
stopping at the first tree that finds no augmenting path.  The bottleneck
and threshold variants share one binary search over the distinct edge
weights (the threshold problems of Gabow and Tarjan, 1988).  The edges are
sorted once in threshold order, so the subgraph within a probed level is a
prefix of that order, and each probe runs the cardinality search on a
prefix; the search rests on the monotonicity of existence in the edge set.
Only the witness comes from the blossom engine: one unit-weight,
maximum-cardinality run on the graph of the prefix found.  That graph
normalizes to the same edge tuple as the subgraph filtered from the input
by weight, so the witness is the one a blossom-probed search would return.
A minimum-weight solve on a graph with a vertex on no edge fails before the
blossom runs, since an isolated vertex is an odd component in Tutte's
condition.

Infeasibility (no perfect matching) is reported by returning ``None``;
malformed graphs raise :class:`~colorspan.errors.InvalidInstanceError`.

:class:`Matching` is the result type of every solver and oracle, on
graphs and on point sets (there its edges are pairs of point indexes).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable

from ._blossom import maximum_weight_matching
from .errors import InvalidInstanceError


class Objective(enum.Enum):
    """Matching statistics that can be optimized.

    ``maxsum`` exists only for exhaustive cross-checks; no polynomial
    pipeline for it ships here.
    """

    MINSUM = "minsum"
    MAXMIN = "maxmin"
    MINMAX = "minmax"
    MAXSUM = "maxsum"

    @classmethod
    def from_string(cls, name: str) -> "Objective":
        try:
            return cls(name.lower())
        except ValueError:
            raise InvalidInstanceError(
                f"unknown objective {name!r}; expected one of "
                + ", ".join(o.value for o in cls)
            ) from None


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
        total = sum(weights)
        if not math.isfinite(total):
            raise InvalidInstanceError("the total edge weight exceeds the float range")
        return cls(
            edges=tuple((u, v) for u, v, _ in canon),
            total_weight=total,
            min_edge_weight=min(weights),
            max_edge_weight=max(weights),
        )

    @classmethod
    def from_edges(cls, graph: WeightedGraph, edges: Iterable[tuple[int, int]]) -> "Matching":
        return cls.from_weighted_edges((u, v, graph.weight(u, v)) for u, v in edges)

    def value(self, objective: Objective) -> float:
        """The statistic this matching is scored by under ``objective``."""
        if objective in (Objective.MINSUM, Objective.MAXSUM):
            return self.total_weight
        if objective is Objective.MAXMIN:
            return self.min_edge_weight
        return self.max_edge_weight


def _mate_to_pairs(mate: dict[int, int]) -> list[tuple[int, int]]:
    return sorted((u, v) for u, v in mate.items() if u < v)


def _has_uncovered_vertex(g: WeightedGraph) -> bool:
    """True iff some vertex is on no edge.

    Such a vertex is an odd component, so g has no perfect matching
    (Tutte 1947); this subsumes "fewer than n / 2 edges".
    """
    return len({x for u, v, _ in g.edges for x in (u, v)}) < g.num_vertices


def _perfect_matching_pairs(g: WeightedGraph) -> list[tuple[int, int]]:
    """A perfect matching of g, which must have one, as vertex pairs."""
    unit = {(u, v): 1 for u, v, _ in g.edges}
    mate = maximum_weight_matching(g.num_vertices, unit)
    assert len(mate) == g.num_vertices
    return _mate_to_pairs(mate)


def has_perfect_matching(g: WeightedGraph) -> bool:
    """True iff some matching covers every vertex (vacuously true for 0)."""
    return _perfect_matching_exists(g.num_vertices, g.edges)


def _perfect_matching_exists(n: int, edges: Iterable[tuple[int, int, float]]) -> bool:
    """Edmonds' cardinality search for a perfect matching of the simple
    graph on ``n`` vertices with these edges (weights are ignored).

    A greedy pass over the edges starts the matching; then one
    alternating tree is grown from each vertex it leaves free.  If a tree
    finds no augmenting path, no perfect matching exists: in the symmetric
    difference with a perfect matching, the path from that root would be
    one.
    """
    if n % 2:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    mate = [-1] * n
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
        if mate[u] < 0 and mate[v] < 0:
            mate[u] = v
            mate[v] = u
    if not all(adj):
        return False
    return all(mate[r] >= 0 or _augment(r, adj, mate) for r in range(n))


def _augment(root: int, adj: list[list[int]], mate: list[int]) -> bool:
    """Grow an alternating tree from the free vertex ``root``, shrinking
    each blossom (odd cycle) it closes into its base.  At the first free
    vertex reached, flip the path to it in ``mate`` and return True;
    return False if the tree stops growing first.

    ``parent`` links each inner (odd) vertex to the outer vertex that
    reached it, and each outer vertex inside a blossom to the vertex that
    leads back to the base along the other side of the cycle, so
    ``parent[mate[x]]`` steps two levels up from an outer vertex ``x``.
    """
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    outer[root] = True
    queue = [root]

    def common_base(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while not on_path[base[b]]:
            b = parent[mate[base[b]]]
        return base[b]

    def mark_path(v: int, b: int, child: int, shrunk: list[bool]) -> None:
        while base[v] != b:
            shrunk[base[v]] = shrunk[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:  # the loop also visits vertices appended below
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # w is outer too: the edge closes a blossom.
                b = common_base(v, w)
                shrunk = [False] * n
                mark_path(v, b, w, shrunk)
                mark_path(w, b, v, shrunk)
                for x in range(n):
                    if shrunk[base[x]]:
                        base[x] = b
                        if not outer[x]:
                            outer[x] = True
                            queue.append(x)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    while w >= 0:
                        v = parent[w]
                        after = mate[v]
                        mate[w] = v
                        mate[v] = w
                        w = after
                    return True
                outer[mate[w]] = True
                queue.append(mate[w])
    return False


def min_weight_perfect_matching(g: WeightedGraph) -> Matching | None:
    """A perfect matching of minimum total weight, or None if infeasible."""
    n = g.num_vertices
    if n == 0:
        return Matching.empty()
    if n % 2 or _has_uncovered_vertex(g):
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
    mate = maximum_weight_matching(n, transformed)
    if len(mate) < n:
        return None
    return Matching.from_edges(g, _mate_to_pairs(mate))


def _threshold_perfect_matching(g: WeightedGraph, minimize_max: bool) -> Matching | None:
    """A perfect matching optimizing its extreme edge weight.

    With ``minimize_max`` the largest edge is minimized, otherwise the
    smallest edge is maximized.  The edges are sorted once from the most
    to the least restrictive threshold (ascending, respectively
    descending weight), so the subgraph within each distinct weight level
    is a prefix of that order.  A binary search with cardinality probes
    finds the shortest such prefix that still has a perfect matching, and
    one blossom run on it gives the witness.
    """
    n = g.num_vertices
    if n == 0:
        return Matching.empty()
    if not g.edges or not has_perfect_matching(g):
        return None
    order = sorted(g.edges, key=itemgetter(2), reverse=not minimize_max)
    # ends[i] is the length of the prefix within the i-th distinct level.
    ends = [i for i in range(1, len(order)) if order[i][2] != order[i - 1][2]]
    ends.append(len(order))
    lo, hi = 0, len(ends) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching_exists(n, order[: ends[mid]]):
            hi = mid
        else:
            lo = mid + 1
    return Matching.from_edges(g, _perfect_matching_pairs(WeightedGraph(n, order[: ends[lo]])))


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
