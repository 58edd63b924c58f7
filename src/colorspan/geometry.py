"""Colored planar point sets and their extreme-pair color graphs.

The geometric solvers never touch raw points directly: each objective
reduces to a matching problem on a complete graph over the color labels,
whose edge for a color pair carries either the bichromatic closest or the
bichromatic farthest point pair of the two classes.  This module owns the
point-set model (with ``color_spanning_matching``, the matching of given
point-index pairs, and the even-color-count guard that the solvers and
the oracle share), the ``ColorGraph`` contraction (a ``WeightedGraph`` on the
colors plus one ``(weight, a, b)`` witness tuple per edge, which the
graph-side solver builds from cross-color edges too) and the two geometric
builders, which reject an instance whose extreme distance for some color
pair exceeds the float range.

Distances are Euclidean.  Every distance that ends up in a result comes
from ``math.hypot`` on the original coordinates, and only that exact final
pass decides.  The earlier passes just narrow down candidates: a small set
takes every bichromatic pair; in a larger one, closest candidates come from
dual-tree range searches bounded per color pair, farthest candidates from
the outer points of each class.  A color pair's bound is the distance of
an actual pair, found by nearest-neighbour queries from a few seeds of
each class aimed at the other: the point facing the other class's
centroid and a sparse stride sample.  The outer points come from two
passes: an octagon of extreme points drops most of a raw class, then a
32-gon of extreme points filters the distinct survivors; a ring through
any points of the class is safe.  Builders are therefore exact and
deterministic, with ties broken toward the lexicographically smallest pair
of point indexes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInstanceError
from .matching import Matching, WeightedGraph

# Relative slack used when collecting candidates from the accelerated
# passes; generous because the exact pass filters false positives anyway.
_CANDIDATE_SLACK = 1e-9
_ABS_SLACK = 1e-12
# Subnormal spacings (2^-1074 each) added to the absolute slack: exact
# distances between subnormal coordinates round to that grid and tie
# where the unit-scaled ones do not.
_SUBNORMAL_SPACINGS = 4

# A "colors never used" message lists at most this many colors.
_MISSING_SHOWN = 8

# Up to this many points both builders take every bichromatic pair as a
# candidate: below it, the per-class passes cost more than they save.
_SCAN_CUTOFF = 256
# Every this-many-th distinct point of a class seeds the per-pair bounds,
# next to the class's point facing the other class.
_SAMPLE_STRIDE = 256

# Directions, in angular order, whose extreme points span an inner polygon.
_ANGLES = np.arange(2 * 16) * (np.pi / 16)
_COS, _SIN = np.cos(_ANGLES), np.sin(_ANGLES)


class ColoredPoint(NamedTuple):
    """One row of a ``ColoredPointSet``; see ``ColoredPointSet.points``."""

    x: float
    y: float
    color: int


@dataclass(frozen=True, eq=False)
class ColoredPointSet:
    """Colored planar points using colors ``0 .. num_colors-1``.

    The points live in three parallel read-only columns: ``xs`` and ``ys``
    (float64) and ``colors`` (intp); point ``i`` is row ``i``.  Every
    coordinate must be finite, every color must occur at least once,
    ``num_colors >= 2`` and there must be at least as many points as
    colors.  Coincident points, also across different colors, are legal.
    """

    xs: np.ndarray
    ys: np.ndarray
    colors: np.ndarray
    num_colors: int

    def __init__(self, xs, ys, colors, num_colors: int):
        xs = _column(xs, np.float64, "coordinates")
        ys = _column(ys, np.float64, "coordinates")
        colors = _column(colors, np.intp, "colors")
        n = len(xs)
        if len(ys) != n or len(colors) != n:
            raise InvalidInstanceError("xs, ys and colors must have equal lengths")
        finite = np.isfinite(xs) & np.isfinite(ys)
        if not finite.all():
            i = int(np.argmin(finite))
            raise InvalidInstanceError(f"non-finite coordinates ({xs[i]}, {ys[i]})")
        num_colors = int(num_colors)
        if num_colors < 2:
            raise InvalidInstanceError("need at least two colors")
        if n < num_colors:
            raise InvalidInstanceError(f"{n} points cannot cover {num_colors} colors")
        low, high = int(colors.min()), int(colors.max())
        if low < 0:
            raise InvalidInstanceError(f"negative color id {low}")
        if high >= num_colors:
            raise InvalidInstanceError(f"color {high} out of range [0, {num_colors})")
        counts = np.bincount(colors, minlength=num_colors)
        if not counts.all():
            raise InvalidInstanceError(_never_used_message(counts))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "num_colors", num_colors)

    def __len__(self) -> int:
        return len(self.xs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredPointSet):
            return NotImplemented
        return (
            self.num_colors == other.num_colors
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
            and np.array_equal(self.colors, other.colors)
        )

    @cached_property
    def points(self) -> tuple[ColoredPoint, ...]:
        """The rows as ``(x, y, color)`` tuples, built on first use.

        No code in this package reads it: everything works on the
        columns.  It stays only because the benchmark tracer counts class
        sizes from it.
        """
        return tuple(map(ColoredPoint, self.xs.tolist(), self.ys.tolist(), self.colors.tolist()))

    def distance(self, a: int, b: int) -> float:
        """Exact Euclidean distance between points ``a`` and ``b``.

        Computed on Python floats, so a distance beyond the float range
        is ``inf`` rather than a numpy overflow warning.
        """
        xs, ys = self.xs, self.ys
        return math.hypot(float(xs[a]) - float(xs[b]), float(ys[a]) - float(ys[b]))

    @cached_property
    def _classes(self) -> tuple[np.ndarray, ...]:
        order = np.argsort(self.colors, kind="stable")
        order.flags.writeable = False
        ends = np.cumsum(np.bincount(self.colors, minlength=self.num_colors)).tolist()
        return tuple(order[start:end] for start, end in zip([0, *ends], ends))

    def color_indices(self, color: int) -> np.ndarray:
        """Indexes of the points of one color, in input order."""
        return self._classes[color]


def _never_used_message(counts: np.ndarray) -> str:
    """Names the first few colors whose count is zero, and how many more."""
    missing = np.flatnonzero(counts == 0)
    message = f"colors never used: {missing[:_MISSING_SHOWN].tolist()}"
    if len(missing) > _MISSING_SHOWN:
        message += f" and {len(missing) - _MISSING_SHOWN} more"
    return message


def _column(values, dtype, what: str) -> np.ndarray:
    try:
        column = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInstanceError(f"{what} must be numbers") from None
    if column.ndim != 1:
        raise InvalidInstanceError(f"{what} must be one-dimensional")
    column.flags.writeable = False
    return column


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
    """Rejects a color count that no color-spanning matching can cover."""
    if point_set.num_colors % 2:
        raise InvalidInstanceError(
            f"matching instances need an even color count, got {point_set.num_colors}"
        )


@dataclass(frozen=True)
class ColorGraph:
    """A contraction of a colored instance to one vertex per color.

    ``witnesses`` maps each color pair ``(i, j)``, ``i < j``, that has an
    edge to its witness ``(weight, a, b)``: ``a`` the point (or vertex) of
    color ``i``, ``b`` that of color ``j``.  ``graph`` is the
    ``WeightedGraph`` on the colors with those weights.  The geometric
    builders fill in every color pair; a vertex-colored graph's
    contraction can miss some.
    """

    graph: WeightedGraph
    witnesses: dict[tuple[int, int], tuple[float, int, int]]

    def __init__(self, num_colors: int, witnesses: dict[tuple[int, int], tuple[float, int, int]]):
        edges = [(i, j, w) for (i, j), (w, _, _) in witnesses.items()]
        object.__setattr__(self, "graph", WeightedGraph(num_colors, edges))
        object.__setattr__(self, "witnesses", witnesses)


def _require_finite_distances(distances: Iterable[tuple[tuple[int, int], float]]) -> None:
    """Rejects the first color pair ``(i, j)`` whose distance is infinite."""
    for (i, j), d in distances:
        if math.isinf(d):
            raise InvalidInstanceError(
                f"the distance between colors {i} and {j} exceeds the float range"
            )


def _unit_scaled(point_set: ColoredPointSet) -> tuple[np.ndarray, np.ndarray, float]:
    """The coordinates times the one power of two that brings the largest
    magnitude into ``[0.5, 1)``, and the absolute candidate slack at that
    scale.

    The scaling is exact (up to underflow far below any candidate slack),
    so the accelerated passes see well-scaled input at every coordinate
    scale: kd-tree squared distances cannot overflow, outer-point and
    candidate arithmetic cannot underflow, and no difference overflows.
    The slack is ``_ABS_SLACK`` plus a few subnormal spacings taken to
    unit scale, so pairs whose exact distances tie on the subnormal grid
    stay candidates; at normal scales the spacings add under 1e-15.
    """
    peak = max(float(np.abs(point_set.xs).max()), float(np.abs(point_set.ys).max()))
    exponent = -math.frexp(peak)[1]
    return (
        np.ldexp(point_set.xs, exponent),
        np.ldexp(point_set.ys, exponent),
        _ABS_SLACK + math.ldexp(_SUBNORMAL_SPACINGS * 5e-324, exponent),
    )


def _distinct_indices(point_set: ColoredPointSet, idx: np.ndarray) -> np.ndarray:
    """The lowest index of each distinct coordinate among ``idx``, sorted.

    Coincident points are exactly as far from any other point, so the
    higher indexes lose every ``(distance, a, b)`` tie-break and dropping
    them changes no witness.
    """
    # lexsort is stable, so each run of equal coordinates (0.0 and -0.0
    # compare equal) starts at its lowest index.
    xs, ys = point_set.xs[idx], point_set.ys[idx]
    order = np.lexsort((ys, xs))
    xs, ys = xs[order], ys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    return np.sort(idx[order[first]])


def _scan_candidates(point_set: ColoredPointSet) -> tuple[np.ndarray, np.ndarray]:
    """Every bichromatic pair ``(a, b)``, with ``a`` of the lower color."""
    # The pairs a < b in row-major order, as np.triu_indices gives them,
    # without its n x n mask: row a is a + 1 .. n - 1.
    n = len(point_set)
    counts = np.arange(n - 1, 0, -1)
    starts = np.cumsum(counts) - counts
    a = np.repeat(np.arange(n - 1), counts)
    b = np.arange(len(a)) + np.repeat(np.arange(1, n) - starts, counts)
    colors = point_set.colors
    keep = colors[a] != colors[b]
    a, b = a[keep], b[keep]
    swap = colors[a] > colors[b]
    return np.where(swap, b, a), np.where(swap, a, b)


def _pair_bounds(
    reps: list[np.ndarray], trees: list[cKDTree], sx: np.ndarray, sy: np.ndarray
) -> np.ndarray:
    """A ``t x t`` symmetric matrix of upper bounds on the scaled closest
    distance of each color pair.

    Each ordered pair ``(c, j)`` is bounded from seeds of class ``c``
    queried against class ``j``'s tree, one batched query per tree: the
    point of ``c`` facing ``j`` (the one nearest to ``j``'s centroid) and
    every ``_SAMPLE_STRIDE``-th point of ``c``.  The facing point is close
    to ``j`` when the classes are compact; the sparse samples keep the
    bound tight when a class has several far-apart parts.
    """
    t = len(reps)
    centroids = np.array([(sx[r].mean(), sy[r].mean()) for r in reps])
    # facing[c, j]: the point of class c nearest to class j's centroid.
    facing = np.array([r[tree.query(centroids)[1]] for r, tree in zip(reps, trees)])
    samples = [r[::_SAMPLE_STRIDE] for r in reps]
    sampled = np.concatenate(samples)
    owner = np.concatenate((np.arange(t), np.repeat(np.arange(t), [len(s) for s in samples])))
    bound = np.full((t, t), np.inf)
    for j, tree in enumerate(trees):
        keep = owner != j
        idx, own = np.concatenate((facing[:, j], sampled))[keep], owner[keep]
        dist, _ = tree.query(np.column_stack((sx[idx], sy[idx])))
        # The first entry of each owner's run, ordered by distance.
        order = np.lexsort((dist, own))
        head = order[np.r_[True, own[order[1:]] != own[order[:-1]]]]
        bound[own[head], j] = dist[head]
    return np.minimum(bound, bound.T)


def _dual_tree_candidates(
    point_set: ColoredPointSet, sx: np.ndarray, sy: np.ndarray, slack: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bichromatic pairs ``(a, b)`` within each color pair's bound, ``a``
    of the lower color, among the distinct points of each class.

    Each pair's bound is met by an actual pair, so the closest pair of
    every color pair is among the candidates.
    """
    t = point_set.num_colors
    reps = [_distinct_indices(point_set, point_set.color_indices(c)) for c in range(t)]
    trees = [cKDTree(np.column_stack((sx[r], sy[r]))) for r in reps]
    bound = _pair_bounds(reps, trees, sx, sy).tolist()
    pieces_a, pieces_b = [], []
    for i in range(t):
        for j in range(i + 1, t):
            u = bound[i][j]
            found = trees[i].sparse_distance_matrix(
                trees[j], u + max(u * _CANDIDATE_SLACK, slack), output_type="ndarray"
            )
            pieces_a.append(reps[i][found["i"]])
            pieces_b.append(reps[j][found["j"]])
    return np.concatenate(pieces_a), np.concatenate(pieces_b)


def _exact_edges(
    point_set: ColoredPointSet, a: np.ndarray, b: np.ndarray,
    sx: np.ndarray, sy: np.ndarray, slack: float, sign: int,
) -> dict[tuple[int, int], tuple[float, int, int]]:
    """Each color pair's ``(distance, a, b)`` with the smallest
    ``(sign * distance, a, b)`` among the candidate pairs ``(a, b)``, ``a``
    of the lower color, keyed by color pair in sorted order: the closest
    pair for ``sign = 1``, the farthest for ``sign = -1``.  Only candidates
    within a slack cut of their pair's extreme on the scaled distances
    reach the exact pass on the original coordinates.
    """
    t = point_set.num_colors
    code = point_set.colors[a] * t + point_set.colors[b]
    dist = sign * np.hypot(sx[a] - sx[b], sy[a] - sy[b])
    extreme = np.full(t * t, np.inf)
    np.minimum.at(extreme, code, dist)
    cut = extreme + np.maximum(np.abs(extreme) * _CANDIDATE_SLACK, slack)
    keep = dist <= cut[code]
    best: dict[int, tuple[float, int, int]] = {}
    for k, p, q in zip(code[keep].tolist(), a[keep].tolist(), b[keep].tolist()):
        key = (sign * point_set.distance(p, q), p, q)
        if k not in best or key < best[k]:
            best[k] = key
    # Codes i * t + j sort in (i, j) order.
    return {divmod(k, t): (sign * d, p, q) for k, (d, p, q) in sorted(best.items())}


def _off_ring(
    xs: np.ndarray, ys: np.ndarray, cos: np.ndarray, sin: np.ndarray, slack: float
) -> np.ndarray:
    """True for each point ``(xs, ys)`` unless it lies over ``slack``
    inside every edge line of the ring through the points' extremes in
    the directions ``(cos, sin)``, given in angular order; True for all
    when that ring has fewer than three vertices.

    The test is an orientation test with a rounding bound after Shewchuk
    (1997) and ``tiny`` for underflow.
    """
    ring = np.argmax(np.multiply.outer(xs, cos) + np.multiply.outer(ys, sin), axis=0)
    ring = ring[ring != np.concatenate((ring[-1:], ring[:-1]))]
    if len(ring) < 3:
        return np.ones(len(xs), dtype=bool)
    ux, uy = xs[ring], ys[ring]
    ahead = np.concatenate((ring[1:], ring[:1]))
    ex, ey = xs[ahead] - ux, ys[ahead] - uy
    t1 = ex * (ys[:, None] - uy)
    t2 = ey * (xs[:, None] - ux)
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    margin = 8 * eps * (np.abs(t1) + np.abs(t2)) + slack * np.hypot(ex, ey) + tiny
    return ~(t1 - t2 > margin).all(axis=1)


def _outer_indices(
    point_set: ColoredPointSet, idx: np.ndarray, sx: np.ndarray, sy: np.ndarray, slack: float
) -> np.ndarray:
    """The distinct points among ``idx`` that can end a farthest pair, sorted.

    Extreme points in angular order close a ring of class points inside
    the hull (Akl & Toussaint 1978), and :func:`_off_ring` keeps every
    point that is not over ``slack`` inside each of its edge lines.  A
    point over ``slack`` inside every edge line of a closed ring is wound
    around by it, and so is the disc of radius ``slack`` about it: the
    disc lies in the hull of the ring's vertices.  From any point, some
    point of that disc, and so some vertex, is at least ``slack`` farther
    than the dropped point, above distance rounding at unit scale and on
    the subnormal grid.  The argument needs only that the ring's vertices
    are points of the class, not that they survive, so the filter runs
    twice: the octagon of every fourth ``_ANGLES`` direction on the raw
    class drops most of its interior at a quarter of the cost, then the
    ring of all ``_ANGLES`` directions runs on the distinct survivors.
    Coincident points share their test's outcome, so deduplicating after
    the first pass keeps each coordinate's lowest index.
    """
    idx = idx[_off_ring(sx[idx], sy[idx], _COS[::4], _SIN[::4], slack)]
    reps = _distinct_indices(point_set, idx)
    return reps[_off_ring(sx[reps], sy[reps], _COS, _SIN, slack)]


def _outer_candidates(
    point_set: ColoredPointSet, sx: np.ndarray, sy: np.ndarray, slack: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bichromatic pairs ``(a, b)`` within slack of their color pair's
    farthest distance, ``a`` of the lower color, among the outer points.

    Each color's outer points meet those of all higher colors in one
    block of unit-scaled distances, cut at each color pair's maximum.
    """
    t = point_set.num_colors
    classes = [
        _outer_indices(point_set, point_set.color_indices(c), sx, sy, slack) for c in range(t)
    ]
    sizes = [len(o) for o in classes]
    ends = np.cumsum(sizes)
    outer = np.concatenate(classes)
    ox, oy = sx[outer], sy[outer]
    pieces_a, pieces_b = [], []
    for i in range(t - 1):
        lo, hi = ends[i] - sizes[i], ends[i]
        block = np.hypot(ox[lo:hi, None] - ox[hi:], oy[lo:hi, None] - oy[hi:])
        dmax = np.maximum.reduceat(block.max(axis=0), ends[i:-1] - hi)
        cut = dmax - np.maximum(dmax * _CANDIDATE_SLACK, slack)
        rows, cols = np.nonzero(block >= np.repeat(cut, sizes[i + 1 :]))
        pieces_a.append(outer[lo + rows])
        pieces_b.append(outer[hi + cols])
    return np.concatenate(pieces_a), np.concatenate(pieces_b)


def _build_color_graph(point_set: ColoredPointSet, sign: int) -> ColorGraph:
    """The closest color graph for ``sign = 1``, the farthest for ``-1``."""
    sx, sy, slack = _unit_scaled(point_set)
    if len(point_set) <= _SCAN_CUTOFF:
        a, b = _scan_candidates(point_set)
    elif sign > 0:
        a, b = _dual_tree_candidates(point_set, sx, sy, slack)
    else:
        a, b = _outer_candidates(point_set, sx, sy, slack)
    witnesses = _exact_edges(point_set, a, b, sx, sy, slack, sign)
    _require_finite_distances((key, d) for key, (d, _, _) in witnesses.items())
    t = point_set.num_colors
    if len(witnesses) != t * (t - 1) // 2:
        raise InvalidInstanceError("color graph must have one edge per color pair")
    return ColorGraph(t, witnesses)


def build_closest_color_graph(point_set: ColoredPointSet) -> ColorGraph:
    """Complete color graph whose edges are bichromatic closest pairs."""
    return _build_color_graph(point_set, 1)


def build_farthest_color_graph(point_set: ColoredPointSet) -> ColorGraph:
    """Complete color graph whose edges are bichromatic farthest pairs."""
    return _build_color_graph(point_set, -1)
