"""The color-spanning matching solvers.

All four solvers contract the instance to a :class:`ColorGraph`: one
vertex per color, and for each color pair a witness pair of the two
classes, whose weight is the color-graph edge.  Each then matches the
contraction's ``graph`` and expands every matched color pair back to its
witness.

* minsum:  closest color graph, then minimum-weight perfect matching;
* maxmin:  farthest color graph, then a perfect matching maximizing the
  minimum edge;
* minmax:  closest color graph, then a bottleneck perfect matching;
* colorful graph matching: the lightest cross-color edge of each color
  pair, then minimum-weight perfect matching.

The expansion step is sound because an optimal solution always exists in
which every matched pair is the bichromatic closest pair of its two colors
(for the min objectives), respectively the bichromatic farthest pair (for
maxmin); the exhaustive oracles in :mod:`colorspan.oracles` certify that
fact empirically on every random sweep.  Witnesses tie-break on the
smallest ``(weight, a, b)``, ``a`` the endpoint of the lower color (for
maxmin, the largest distance, then the smallest ``(a, b)``).

Every solver returns a :class:`~colorspan.matching.Matching`.  On a point
set its edges are point-index pairs, checked by :func:`color_spanning_matching`.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvalidInstanceError
from .geometry import (
    ColoredPointSet,
    ColorGraph,
    ColorPairWitness,
    build_closest_color_graph,
    build_farthest_color_graph,
)
from .hardness import VertexColoredGraph
from .matching import (  # Objective is re-exported for callers of this module
    Matching,
    Objective,
    bottleneck_perfect_matching,
    maxmin_perfect_matching,
    min_weight_perfect_matching,
)


def color_spanning_matching(
    point_set: ColoredPointSet, pairs: Iterable[tuple[int, int]]
) -> Matching:
    """The matching of these point-index pairs, weighted by Euclidean length.

    Raises :class:`~colorspan.errors.InvalidInstanceError` unless the pairs
    are non-empty, in range, free of self-pairs, and their endpoints' colors
    are distinct and cover every color.
    """
    canon = [(min(a, b), max(a, b)) for a, b in pairs]
    if not canon:
        raise InvalidInstanceError("a color-spanning matching cannot be empty")
    n = len(point_set)
    for a, b in canon:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise InvalidInstanceError(f"invalid point pair ({a}, {b})")
    colors = point_set.colors[[p for pair in canon for p in pair]].tolist()
    if len(set(colors)) != len(colors):
        raise InvalidInstanceError("matched endpoints must have distinct colors")
    if set(colors) != set(range(point_set.num_colors)):
        raise InvalidInstanceError("matching must cover every color exactly once")
    return Matching.from_weighted_edges((a, b, point_set.distance(a, b)) for a, b in canon)


def _require_matching_instance(point_set: ColoredPointSet) -> None:
    if point_set.num_colors % 2:
        raise InvalidInstanceError(
            f"matching instances need an even color count, got {point_set.num_colors}"
        )


def _matched_witnesses(cg: ColorGraph, match) -> list[ColorPairWitness] | None:
    """The witnesses of the color pairs ``match`` pairs up in ``cg.graph``,
    or None when it finds no perfect matching."""
    matched = match(cg.graph)
    if matched is None:
        return None
    return [cg.witnesses[key] for key in matched.edges]


def _solve_geometric(point_set: ColoredPointSet, build, match) -> Matching:
    _require_matching_instance(point_set)
    witnesses = _matched_witnesses(build(point_set), match)
    assert witnesses is not None  # complete graph on an even vertex count
    return color_spanning_matching(point_set, ((w.point_a, w.point_b) for w in witnesses))


def solve_minsum(point_set: ColoredPointSet) -> Matching:
    """Color-spanning matching minimizing the total edge length."""
    return _solve_geometric(point_set, build_closest_color_graph, min_weight_perfect_matching)


def solve_maxmin(point_set: ColoredPointSet) -> Matching:
    """Color-spanning matching maximizing the minimum edge length."""
    return _solve_geometric(point_set, build_farthest_color_graph, maxmin_perfect_matching)


def solve_minmax(point_set: ColoredPointSet) -> Matching:
    """Color-spanning matching minimizing the maximum edge length."""
    return _solve_geometric(point_set, build_closest_color_graph, bottleneck_perfect_matching)


def solve_k_multicolored_matching(g: VertexColoredGraph) -> Matching | None:
    """Minimum-weight colorful perfect matching of a vertex-colored graph.

    Contracts the graph to one color vertex per color, keeping for each
    color pair the lightest cross-color edge as witness (monochromatic
    edges are useless and skipped), then solves minimum-weight perfect
    matching on the contraction and expands witnesses back to the original
    vertices.  Returns None when the contraction has no perfect matching,
    i.e. when no colorful perfect matching exists at all.
    """
    t = g.num_colors
    if t % 2 or t < 2:
        raise InvalidInstanceError(
            f"colorful matching needs an even, positive color count, got {t}"
        )
    empty = [c for c, cls in enumerate(g.color_classes) if not cls]
    if empty:
        raise InvalidInstanceError(f"colors without vertices: {empty}")
    best: dict[tuple[int, int], tuple[float, int, int]] = {}
    for pos, (u, v) in enumerate(g.edges):
        cu, cv = g.colors[u], g.colors[v]
        if cu == cv:
            continue
        if cu > cv:
            cu, cv, u, v = cv, cu, v, u
        cand = (g.weight(pos), u, v)
        if (cu, cv) not in best or cand < best[cu, cv]:
            best[cu, cv] = cand
    witnesses = _matched_witnesses(ColorGraph(t, best), min_weight_perfect_matching)
    if witnesses is None:
        return None
    return Matching.from_weighted_edges((w.point_a, w.point_b, w.distance) for w in witnesses)
