"""The color-spanning matching solvers.

Three geometric pipelines share one shape: build the appropriate extreme
color graph, solve a matching problem on the color vertices, then expand
every matched color pair back to its stored witness point pair.

* minsum:  closest color graph, then minimum-weight perfect matching;
* maxmin:  farthest color graph, then a perfect matching maximizing the
  minimum edge;
* minmax:  closest color graph, then a bottleneck perfect matching.

The expansion step is sound because an optimal solution always exists in
which every matched pair is the bichromatic closest pair of its two colors
(for the min objectives), respectively the bichromatic farthest pair (for
maxmin); the exhaustive oracles in :mod:`colorspan.oracles` certify that
fact empirically on every random sweep.

The graph-side solver contracts a vertex-colored graph to its color graph
(minimum cross-color edge weight per color pair) and runs the same
minimum-weight matching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidInstanceError
from .geometry import (
    ColoredPointSet,
    ColorGraph,
    build_closest_color_graph,
    build_farthest_color_graph,
)
from .hardness import VertexColoredGraph
from .matching import (
    Matching,
    WeightedGraph,
    bottleneck_perfect_matching,
    maxmin_perfect_matching,
    min_weight_perfect_matching,
)


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
class ColorSpanningMatching:
    """k point pairs covering 2k distinct colors, with weight statistics.

    Pairs are index pairs into the owning point set, stored sorted with
    each pair ordered ascending; statistics recompute from the pairs'
    Euclidean distances in that canonical order.
    """

    pairs: tuple[tuple[int, int], ...]
    colors_covered: frozenset[int]
    total_weight: float
    min_edge_weight: float
    max_edge_weight: float

    @classmethod
    def from_pairs(
        cls, point_set: ColoredPointSet, pairs: Iterable[tuple[int, int]]
    ) -> "ColorSpanningMatching":
        canon = sorted((min(a, b), max(a, b)) for a, b in pairs)
        if not canon:
            raise InvalidInstanceError("a color-spanning matching cannot be empty")
        n = len(point_set)
        color_of = point_set.colors
        colors: list[int] = []
        for a, b in canon:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise InvalidInstanceError(f"invalid point pair ({a}, {b})")
            colors.append(int(color_of[a]))
            colors.append(int(color_of[b]))
        if len(set(colors)) != len(colors):
            raise InvalidInstanceError("matched endpoints must have distinct colors")
        if set(colors) != set(range(point_set.num_colors)):
            raise InvalidInstanceError("matching must cover every color exactly once")
        dists = [point_set.distance(a, b) for a, b in canon]
        return cls(
            pairs=tuple(canon),
            colors_covered=frozenset(colors),
            total_weight=sum(dists),
            min_edge_weight=min(dists),
            max_edge_weight=max(dists),
        )

    def value(self, objective: Objective) -> float:
        """The statistic this matching is scored by under ``objective``."""
        if objective in (Objective.MINSUM, Objective.MAXSUM):
            return self.total_weight
        if objective is Objective.MAXMIN:
            return self.min_edge_weight
        return self.max_edge_weight

    def __len__(self) -> int:
        return len(self.pairs)


def _require_matching_instance(point_set: ColoredPointSet) -> None:
    if point_set.num_colors % 2:
        raise InvalidInstanceError(
            f"matching instances need an even color count, got {point_set.num_colors}"
        )


def _color_graph_to_weighted(graph: ColorGraph) -> WeightedGraph:
    return WeightedGraph(
        graph.num_colors,
        [(e.color_i, e.color_j, e.distance) for e in graph.edges],
    )


def _expand(point_set: ColoredPointSet, graph: ColorGraph, matched: Matching) -> ColorSpanningMatching:
    pairs = []
    for ci, cj in matched.edges:
        w = graph.witness(ci, cj)
        pairs.append((w.point_a, w.point_b))
    return ColorSpanningMatching.from_pairs(point_set, pairs)


def solve_minsum(point_set: ColoredPointSet) -> ColorSpanningMatching:
    """Color-spanning matching minimizing the total edge length."""
    _require_matching_instance(point_set)
    graph = build_closest_color_graph(point_set)
    matched = min_weight_perfect_matching(_color_graph_to_weighted(graph))
    assert matched is not None  # complete graph on an even vertex count
    return _expand(point_set, graph, matched)


def solve_maxmin(point_set: ColoredPointSet) -> ColorSpanningMatching:
    """Color-spanning matching maximizing the minimum edge length."""
    _require_matching_instance(point_set)
    graph = build_farthest_color_graph(point_set)
    matched = maxmin_perfect_matching(_color_graph_to_weighted(graph))
    assert matched is not None
    return _expand(point_set, graph, matched)


def solve_minmax(point_set: ColoredPointSet) -> ColorSpanningMatching:
    """Color-spanning matching minimizing the maximum edge length."""
    _require_matching_instance(point_set)
    graph = build_closest_color_graph(point_set)
    matched = bottleneck_perfect_matching(_color_graph_to_weighted(graph))
    assert matched is not None
    return _expand(point_set, graph, matched)


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
        key = (cu, cv) if cu < cv else (cv, cu)
        cand = (g.weight(pos), u, v) if cu < cv else (g.weight(pos), v, u)
        if key not in best or cand < best[key]:
            best[key] = cand
    contraction = WeightedGraph(t, [(a, b, w) for (a, b), (w, _, _) in best.items()])
    matched = min_weight_perfect_matching(contraction)
    if matched is None:
        return None
    return Matching.from_weighted_edges(
        (best[key][1], best[key][2], best[key][0]) for key in matched.edges
    )
