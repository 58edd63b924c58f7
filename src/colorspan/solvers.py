"""The color-spanning matching solvers.

All four solvers contract the instance to a :class:`ColorGraph`: one
vertex per color, and for each color pair a witness tuple
``(weight, a, b)``, ``a`` of the lower color and ``b`` of the higher,
whose weight is the color-graph edge.  Each then matches the
contraction's ``graph`` and expands every matched color pair back to its
witness's ``(a, b)``, weighted by the witness's own weight, which for a
point set is the ``math.hypot`` distance of its two points.

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
set its edges are point-index pairs.
"""

from __future__ import annotations

from .geometry import (
    ColoredPointSet,
    ColorGraph,
    _require_matching_instance,
    build_closest_color_graph,
    build_farthest_color_graph,
)
from .hardness import VertexColoredGraph, _require_colorful_instance
from .matching import (
    Matching,
    bottleneck_perfect_matching,
    maxmin_perfect_matching,
    min_weight_perfect_matching,
)


def _match_color_graph(cg: ColorGraph, match) -> Matching | None:
    """The matching ``match`` finds on ``cg.graph``, each matched color
    pair expanded to its witness ``(a, b)`` with the witness's weight, or
    None when it finds no perfect matching."""
    matched = match(cg.graph)
    if matched is None:
        return None
    return Matching.from_weighted_edges(
        (a, b, w) for w, a, b in map(cg.witnesses.__getitem__, matched.edges)
    )


def _solve_geometric(point_set: ColoredPointSet, build, match) -> Matching:
    _require_matching_instance(point_set)
    # A complete color graph on an even color count always has a perfect matching.
    return _match_color_graph(build(point_set), match)


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
    _require_colorful_instance(g)
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
    return _match_color_graph(ColorGraph(g.num_colors, best), min_weight_perfect_matching)
