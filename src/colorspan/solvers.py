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
set its edges are point-index pairs.  :func:`solve_geometric` solves a
point set at several objectives at once, building each color graph at
most once (minsum and minmax share the closest one); the three
single-objective solvers call it.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InvalidInstanceError
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
    Objective,
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


def _pipeline(objective: Objective):
    """The color graph builder and matching query that solve ``objective``.

    The names are read from this module's globals at each call, so a
    wrapper put on one of them (``perfbench``'s tracer wraps all five) is
    the one that runs.
    """
    if objective is Objective.MINSUM:
        return build_closest_color_graph, min_weight_perfect_matching
    if objective is Objective.MINMAX:
        return build_closest_color_graph, bottleneck_perfect_matching
    if objective is Objective.MAXMIN:
        return build_farthest_color_graph, maxmin_perfect_matching
    raise InvalidInstanceError(f"objective {objective.value!r} has no solver")


def solve_geometric(
    point_set: ColoredPointSet, objectives: Sequence[Objective]
) -> tuple[Matching, ...]:
    """The solvers' matching of each of ``objectives``, in order.

    Each color graph is built at most once, when the first objective that
    needs it comes up, and shared by the objectives after it; so an error
    is raised where solving the objectives one by one would raise it
    first.
    """
    _require_matching_instance(point_set)
    graphs: dict = {}
    solved = []
    for objective in objectives:
        build, match = _pipeline(objective)
        if build not in graphs:
            graphs[build] = build(point_set)
        # A complete color graph on an even color count always has a perfect matching.
        solved.append(_match_color_graph(graphs[build], match))
    return tuple(solved)


def solve_minsum(point_set: ColoredPointSet) -> Matching:
    """Color-spanning matching minimizing the total edge length."""
    return solve_geometric(point_set, (Objective.MINSUM,))[0]


def solve_maxmin(point_set: ColoredPointSet) -> Matching:
    """Color-spanning matching maximizing the minimum edge length."""
    return solve_geometric(point_set, (Objective.MAXMIN,))[0]


def solve_minmax(point_set: ColoredPointSet) -> Matching:
    """Color-spanning matching minimizing the maximum edge length."""
    return solve_geometric(point_set, (Objective.MINMAX,))[0]


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
