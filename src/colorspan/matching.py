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
arithmetic anywhere.  The engine (``_blossom``, edge-indexed lists after
van Rantwijk's ``mwmatching``) returns its final duals with the mate map.
On request, :func:`min_weight_perfect_matching` hands them back as
:class:`EdgeLimits`, which price the edges a graph lacks: the minsum
solver grows a sparse closest color graph by them.

Perfect-matching existence is Edmonds' cardinality search (1965) on
adjacency lists, with no weights and no duals: a greedy start, then one
alternating tree with blossom shrinking from each vertex left free,
stopping at the first tree that finds no augmenting path.  Each of the
three optimizing queries decides feasibility first with that search, so
the blossom engine runs only on graphs that have a perfect matching, once
per query, from one call site; it finds no edges on the empty graph.

The bottleneck and threshold variants share one binary search over the
distinct edge weights (the threshold problems of Gabow and Tarjan, 1988).
The edges are sorted once in threshold order, so the subgraph within a
probed level is a prefix of that order, and each probe runs the
cardinality search on a prefix; the search rests on the monotonicity of
existence in the edge set.  Only the witness comes from the blossom
engine: one unit-weight, maximum-cardinality run on the prefix found,
given in ``(u, v)`` order.  That is the edge order of the subgraph
filtered from the input by weight, so the witness is the one a
blossom-probed search would return.  The search alone,
``_threshold_prefix``, also gives the closest color graph builder the
bound by which minmax builds only part of that graph.

Infeasibility (no perfect matching) is reported by returning ``None``;
malformed graphs raise :class:`~colorspan.errors.InvalidInstanceError`.

:class:`Matching` is the result type of every solver and oracle, on
graphs and on point sets (there its edges are pairs of point indexes).
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from ._blossom import Duals, maximum_weight_matching
from .errors import InvalidInstanceError

if TYPE_CHECKING:
    from fractions import Fraction


class Objective(enum.Enum):
    """Matching statistics that can be optimized.

    Each member's value is its name.  It also declares the ``Matching``
    attribute it scores (``statistic``) and whether it maximizes that
    statistic (``maximize``); :meth:`Matching.value` and the oracles read
    these rather than list the members.  ``maxsum`` exists only for
    exhaustive cross-checks; no polynomial pipeline for it ships here.
    """

    MINSUM = ("minsum", "total_weight", False)
    MAXMIN = ("maxmin", "min_edge_weight", True)
    MINMAX = ("minmax", "max_edge_weight", False)
    MAXSUM = ("maxsum", "total_weight", True)

    def __new__(cls, name: str, statistic: str, maximize: bool):
        member = object.__new__(cls)
        member._value_ = name
        member.statistic = statistic
        member.maximize = maximize
        return member

    @classmethod
    def from_string(cls, name: str) -> "Objective":
        try:
            return cls(name.lower())
        except ValueError:
            raise InvalidInstanceError(
                f"unknown objective {name!r}; expected one of "
                + ", ".join(o.value for o in cls)
            ) from None


class _EdgeError(InvalidInstanceError):
    """An edge that breaks a rule, with its index in the list checked."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _edge_keys(
    num_vertices: int, edges: Sequence[tuple[int, int]], weights: Iterable[float], distinct=False
) -> list[tuple[int, int]]:
    """The ``(min, max)`` key of each edge ``(u, v)`` of ``edges``, whose
    weights ``weights`` gives in the same order.

    These are the edge rules of both graph types and of graph files: an
    edge joins two distinct vertices in ``[0, num_vertices)`` and weighs a
    finite, non-negative float; with ``distinct`` no edge appears twice,
    in either orientation.  The first edge to break a rule raises
    :class:`_EdgeError` with its index.  Each edge is checked for range,
    then self-loop, then weight, in list order; repeated keys are looked
    for once every edge has passed those.
    """
    keys = []
    for (u, v), w in zip(edges, weights):
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise _EdgeError(len(keys), f"edge ({u}, {v}) references a missing vertex")
        if u == v:
            raise _EdgeError(len(keys), f"self-loop at vertex {u}")
        if not 0.0 <= w < math.inf:
            raise _EdgeError(len(keys), f"edge ({u}, {v}) has invalid weight {w}")
        keys.append((u, v) if u < v else (v, u))
    if distinct and len(set(keys)) < len(keys):
        first: dict[tuple[int, int], int] = {}
        for i, key in enumerate(keys):
            if first.setdefault(key, i) != i:
                raise _EdgeError(i, "duplicate edge ({}, {})".format(*edges[i]))
    return keys


@dataclass(frozen=True)
class WeightedGraph:
    """A simple undirected graph with non-negative real edge weights.

    Edges are normalized to ``u < v``, sorted, and parallel input edges
    collapse to their minimum weight.  Every other edge rule of
    :func:`_edge_keys` holds: no self-loops, vertex ids in
    ``[0, num_vertices)``, finite non-negative weights.
    """

    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int, float]] = ()):
        if num_vertices < 0:
            raise InvalidInstanceError("vertex count must be non-negative")
        edges = list(edges)
        weights = [float(w) for _, _, w in edges]
        keys = _edge_keys(num_vertices, [(u, v) for u, v, _ in edges], weights)
        collapsed: dict[tuple[int, int], float] = {}
        for key, w in zip(keys, weights):
            if w < collapsed.get(key, math.inf):
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
    def from_weighted_edges(cls, weighted_edges: Iterable[tuple[int, int, float]]) -> "Matching":
        canon = sorted((min(u, v), max(u, v), float(w)) for u, v, w in weighted_edges)
        seen: set[int] = set()
        for u, v, _ in canon:
            if u in seen or v in seen or u == v:
                raise InvalidInstanceError("matching edges must be vertex-disjoint")
            seen.update((u, v))
        weights = [w for _, _, w in canon]
        total = sum(weights, 0.0)
        if not math.isfinite(total):
            raise InvalidInstanceError("the total edge weight exceeds the float range")
        return cls(
            edges=tuple((u, v) for u, v, _ in canon),
            total_weight=total,
            min_edge_weight=min(weights, default=0.0),
            max_edge_weight=max(weights, default=0.0),
        )

    def value(self, objective: Objective) -> float:
        """The statistic this matching is scored by under ``objective``."""
        return getattr(self, objective.statistic)


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


def _blossom_matching(
    n: int, edges: Sequence[tuple[int, int, float]], int_weights: Iterable[int]
) -> tuple[Matching, Duals]:
    """The blossom engine's matching of the graph on ``n`` vertices whose
    ``edges`` carry ``int_weights`` in place of their own weights, and the
    engine's final duals.

    The graph must have a perfect matching, so the engine's
    maximum-cardinality answer covers every vertex.  The result keeps the
    chosen edges' own weights.
    """
    mate, duals = maximum_weight_matching(
        n, {(u, v): iw for (u, v, _), iw in zip(edges, int_weights)}
    )
    assert len(mate) == n
    return Matching.from_weighted_edges(e for e in edges if mate[e[0]] == e[1]), duals


class EdgeLimits:
    """Prices for the edges a graph lacks, from the optimal duals of its
    minimum-weight perfect matching.

    ``limit(u, v)`` is the weight at which an edge ``(u, v)`` added to the
    graph has zero reduced cost under those duals.  At or above it the
    duals stay feasible, so the matching is still a minimum-weight one on
    the larger graph; strictly above it no minimum-weight perfect matching
    of the larger graph uses the edge (complementary slackness).
    """

    def __init__(self, duals: Duals, top: int, scale: int):
        # The engine maximized top - w * scale over edges of weight w, and
        # its duals are doubled: the reduced cost of (u, v) is
        # vertex[u] + vertex[v] + z - 2 * (top - w * scale), with z summed
        # over the blossoms that hold both ends.
        self._vertex, self._blossoms = duals
        self._top2, self._scale2 = 2 * top, 2 * scale

    @cached_property
    def _holding(self) -> list[list[tuple[frozenset[int], int]]]:
        """Per vertex, the members and dual of each blossom holding it."""
        holding: list[list[tuple[frozenset[int], int]]] = [[] for _ in self._vertex]
        for leaves, z in self._blossoms:
            if z:
                members = frozenset(leaves)
                for u in leaves:
                    holding[u].append((members, z))
        return holding

    def limit(self, u: int, v: int) -> Fraction:
        """The weight at which an edge ``(u, v)`` has zero reduced cost."""
        # Imported here: only pricing needs it, and it adds about 2 ms to
        # every start of the command line.
        from fractions import Fraction

        z = sum(z for members, z in self._holding[u] if v in members)
        return Fraction(self._top2 - self._vertex[u] - self._vertex[v] - z, self._scale2)


def min_weight_perfect_matching(g: WeightedGraph, duals=False):
    """A perfect matching of minimum total weight, or None if infeasible.

    With ``duals``, the pair of that result and the :class:`EdgeLimits`
    of the matching's optimal duals (None if infeasible).
    """
    if not has_perfect_matching(g):
        return (None, None) if duals else None
    # Scale to ints exactly: each weight is num / den with den a power of
    # two, so den divides the largest denominator and num * (scale // den)
    # is the weight times scale.  Then negate and shift so the
    # maximum-weight engine minimizes the total; all perfect matchings
    # have the same cardinality, so any shift works.
    ratios = [w.as_integer_ratio() for _, _, w in g.edges]
    scale = max((den for _, den in ratios), default=1)
    scaled = [num * (scale // den) for num, den in ratios]
    top = max(scaled, default=0)
    matched, final = _blossom_matching(g.num_vertices, g.edges, [top - iw for iw in scaled])
    return (matched, EdgeLimits(final, top, scale)) if duals else matched


def _threshold_perfect_matching(g: WeightedGraph, minimize_max: bool) -> Matching | None:
    """A perfect matching optimizing its extreme edge weight.

    With ``minimize_max`` the largest edge is minimized, otherwise the
    smallest edge is maximized.  The edges are sorted once from the most
    to the least restrictive threshold (ascending, respectively
    descending weight), so the subgraph within each distinct weight level
    is a prefix of that order.  Once the whole graph is known to have a
    perfect matching, a binary search with cardinality probes finds the
    shortest such prefix that still has one, and one unit-weight blossom
    run on it gives the witness.  The run gets the prefix re-sorted by
    ``(u, v)``, the order of ``g.edges`` and so of the level's subgraph
    filtered from it: the engine's tie-breaks, and with them the witness,
    are those of a run on that subgraph.
    """
    if not has_perfect_matching(g):
        return None
    prefix = sorted(_threshold_prefix(g.num_vertices, g.edges, minimize_max))
    return _blossom_matching(g.num_vertices, prefix, [1] * len(prefix))[0]


def _threshold_prefix(
    n: int, edges: Iterable[tuple[int, int, float]], minimize_max: bool
) -> list[tuple[int, int, float]]:
    """The edges within the first threshold level at which the graph on
    ``n`` vertices with ``edges`` has a perfect matching, in threshold
    order, so its last edge weighs the optimal threshold.  The whole graph
    must have a perfect matching.

    A binary search with cardinality probes over the distinct levels of
    ``edges`` sorted from the most to the least restrictive threshold;
    the blossom engine does not run.
    """
    order = sorted(edges, key=itemgetter(2), reverse=not minimize_max)
    # ends[i] is the length of the prefix within the i-th distinct level.
    ends = [i for i in range(1, len(order)) if order[i][2] != order[i - 1][2]]
    ends.append(len(order))
    # The first level whose prefix has a perfect matching; the last one
    # (the whole graph) has.
    level = bisect.bisect_left(
        range(len(ends) - 1), True, key=lambda i: _perfect_matching_exists(n, order[: ends[i]])
    )
    return order[: ends[level]]


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
