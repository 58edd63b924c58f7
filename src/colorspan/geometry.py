"""Colored planar point sets and bichromatic extreme-pair color graphs.

The geometric solvers never touch raw points directly: each objective
reduces to a matching problem on a complete graph over the color labels,
whose edge for a color pair carries either the bichromatic closest or the
bichromatic farthest point pair of the two classes.  This module owns the
point-set model and those two graph builders.

Distances are Euclidean.  Every distance that ends up in a result comes
from ``math.hypot`` on the original coordinates; the kd-tree and convex
hull only narrow down candidates and an exact final pass picks the winner.
Builders are therefore exact and deterministic, with ties broken toward
the lexicographically smallest pair of point indexes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import InvalidInstanceError

CLOSEST = "closest"
FARTHEST = "farthest"

# Relative slack used when collecting candidates from the accelerated
# passes; generous because the exact pass filters false positives anyway.
_CANDIDATE_SLACK = 1e-9
_ABS_SLACK = 1e-12

# Below this many distinct coordinates a full scan beats building a hull.
_HULL_CUTOFF = 32


@dataclass(frozen=True)
class ColoredPoint:
    """A planar point carrying one integer color label."""

    x: float
    y: float
    color: int

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "color", int(self.color))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidInstanceError(f"non-finite coordinates ({self.x}, {self.y})")
        if self.color < 0:
            raise InvalidInstanceError(f"negative color id {self.color}")


def distance(p: ColoredPoint, q: ColoredPoint) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


@dataclass(frozen=True)
class ColoredPointSet:
    """An ordered list of colored points using colors ``0 .. num_colors-1``.

    Every color must occur at least once, ``num_colors >= 2`` and there
    must be at least as many points as colors.  Coincident points, also
    across different colors, are legal.
    """

    points: tuple[ColoredPoint, ...]
    num_colors: int

    def __init__(self, points: Iterable[ColoredPoint], num_colors: int):
        pts = tuple(points)
        num_colors = int(num_colors)
        if num_colors < 2:
            raise InvalidInstanceError("need at least two colors")
        if len(pts) < num_colors:
            raise InvalidInstanceError(
                f"{len(pts)} points cannot cover {num_colors} colors"
            )
        seen = set()
        for p in pts:
            if p.color >= num_colors:
                raise InvalidInstanceError(
                    f"color {p.color} out of range [0, {num_colors})"
                )
            seen.add(p.color)
        missing = set(range(num_colors)) - seen
        if missing:
            raise InvalidInstanceError(f"colors never used: {sorted(missing)}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "num_colors", num_colors)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.points], dtype=np.float64)

    @cached_property
    def ys(self) -> np.ndarray:
        return np.array([p.y for p in self.points], dtype=np.float64)

    @cached_property
    def _classes(self) -> tuple[np.ndarray, ...]:
        buckets: list[list[int]] = [[] for _ in range(self.num_colors)]
        for i, p in enumerate(self.points):
            buckets[p.color].append(i)
        return tuple(np.array(b, dtype=np.intp) for b in buckets)

    def color_indices(self, color: int) -> np.ndarray:
        """Indexes of the points of one color, in input order."""
        return self._classes[color]


@dataclass(frozen=True)
class ColorPairWitness:
    """The extreme point pair realizing a color-graph edge.

    ``point_a`` belongs to ``color_i`` and ``point_b`` to ``color_j``
    (stored with ``color_i < color_j``); both are indexes into the owning
    point set, and ``distance`` is their exact Euclidean distance.
    """

    color_i: int
    color_j: int
    point_a: int
    point_b: int
    distance: float


@dataclass(frozen=True)
class ColorGraph:
    """Complete graph on colors with one extreme-pair witness per edge."""

    num_colors: int
    mode: str
    edges: tuple[ColorPairWitness, ...]

    def __post_init__(self):
        if self.mode not in (CLOSEST, FARTHEST):
            raise InvalidInstanceError(f"unknown color-graph mode {self.mode!r}")
        t = self.num_colors
        expected = {(i, j) for i in range(t) for j in range(i + 1, t)}
        got = {(e.color_i, e.color_j) for e in self.edges}
        if got != expected or len(self.edges) != len(expected):
            raise InvalidInstanceError("color graph must have one edge per color pair")

    @cached_property
    def _edge_map(self) -> dict[tuple[int, int], ColorPairWitness]:
        return {(e.color_i, e.color_j): e for e in self.edges}

    def witness(self, color_a: int, color_b: int) -> ColorPairWitness:
        key = (color_a, color_b) if color_a < color_b else (color_b, color_a)
        try:
            return self._edge_map[key]
        except KeyError:
            raise InvalidInstanceError(f"no color pair {key}") from None

    def weight(self, color_a: int, color_b: int) -> float:
        return self.witness(color_a, color_b).distance


class NearestNeighborIndex:
    """Exact nearest-neighbor lookup over the points of one color.

    Backed by a kd-tree for sublinear expected queries.  The tree only
    proposes candidates; exact ``math.hypot`` distances decide, and ties
    go to the lowest stored index, so answers always equal a linear scan.
    """

    def __init__(self, points: Sequence[ColoredPoint]):
        pts = tuple(points)
        if not pts:
            raise InvalidInstanceError("cannot index an empty point list")
        if len({p.color for p in pts}) != 1:
            raise InvalidInstanceError("index expects points of a single color")
        self._points = pts
        self._xy = np.array([(p.x, p.y) for p in pts], dtype=np.float64)
        self._tree = cKDTree(self._xy)

    def __len__(self) -> int:
        return len(self._points)

    def query_index(self, x: float, y: float) -> int:
        """Index (into the stored list) of the nearest point to (x, y)."""
        d, _ = self._tree.query((x, y))
        cut = float(d) + max(float(d) * _CANDIDATE_SLACK, _ABS_SLACK)
        best: tuple[float, int] | None = None
        for i in self._tree.query_ball_point((x, y), cut):
            p = self._points[i]
            key = (math.hypot(p.x - x, p.y - y), i)
            if best is None or key < best:
                best = key
        assert best is not None
        return best[1]

    def query(self, point: ColoredPoint) -> ColoredPoint:
        """The stored point nearest to ``point`` (ties: lowest index)."""
        return self._points[self.query_index(point.x, point.y)]


def build_nn_index(points: Sequence[ColoredPoint]) -> NearestNeighborIndex:
    """Build an exact nearest-neighbor index over one color class."""
    return NearestNeighborIndex(points)


class _ClosestPairFinder:
    """Bichromatic closest pairs for all color pairs of one point set.

    The kd-tree works on coordinates scaled by one power of two that brings
    the largest magnitude into ``[0.5, 1)``: the scaling is exact, and the
    tree's squared distances can no longer overflow on huge coordinates.
    The exact pass measures the original coordinates.
    """

    def __init__(self, point_set: ColoredPointSet):
        self._ps = point_set
        self._trees: dict[int, cKDTree] = {}
        peak = max(float(np.abs(point_set.xs).max()), float(np.abs(point_set.ys).max()))
        exponent = -math.frexp(peak)[1]
        self._sx = np.ldexp(point_set.xs, exponent)
        self._sy = np.ldexp(point_set.ys, exponent)

    def _tree(self, color: int) -> cKDTree:
        tree = self._trees.get(color)
        if tree is None:
            idx = self._ps.color_indices(color)
            tree = cKDTree(np.column_stack((self._sx[idx], self._sy[idx])))
            self._trees[color] = tree
        return tree

    def witness(self, ci: int, cj: int) -> ColorPairWitness:
        ps = self._ps
        idx_i = ps.color_indices(ci)
        idx_j = ps.color_indices(cj)
        tree = self._tree(ci)
        sx, sy = self._sx, self._sy
        dist, _ = tree.query(np.column_stack((sx[idx_j], sy[idx_j])))
        dist = np.atleast_1d(dist)
        dmin = float(dist.min())
        cut = dmin + max(dmin * _CANDIDATE_SLACK, _ABS_SLACK)
        xs, ys = ps.xs, ps.ys
        best: tuple[float, int, int] | None = None
        for pos_j in np.nonzero(dist <= cut)[0]:
            b = int(idx_j[pos_j])
            bx, by = xs[b], ys[b]
            for pos_i in tree.query_ball_point((sx[b], sy[b]), cut):
                a = int(idx_i[pos_i])
                key = (math.hypot(xs[a] - bx, ys[a] - by), a, b)
                if best is None or key < best:
                    best = key
        assert best is not None
        d, a, b = best
        return ColorPairWitness(ci, cj, a, b, d)


class _FarthestPairFinder:
    """Bichromatic farthest pairs for all color pairs of one point set.

    Coordinates are deduplicated to their lowest point index, then reduced
    to convex hull vertices when the class is large enough; a farthest pair
    always has both endpoints on the hulls, so the reduction is lossless.
    Degenerate classes (collinear, tiny) fall back to the full scan.
    """

    def __init__(self, point_set: ColoredPointSet):
        self._ps = point_set
        self._reps: dict[int, np.ndarray] = {}

    def _rep_indices(self, color: int) -> np.ndarray:
        reps = self._reps.get(color)
        if reps is None:
            ps = self._ps
            seen: dict[tuple[float, float], int] = {}
            for i in ps.color_indices(color):
                i = int(i)
                key = (float(ps.xs[i]), float(ps.ys[i]))
                if key not in seen:
                    seen[key] = i
            reps = np.array(sorted(seen.values()), dtype=np.intp)
            if len(reps) > _HULL_CUTOFF:
                coords = np.column_stack((ps.xs[reps], ps.ys[reps]))
                try:
                    hull = ConvexHull(coords)
                    reps = reps[np.sort(hull.vertices)]
                except QhullError:
                    pass
            self._reps[color] = reps
        return reps

    def witness(self, ci: int, cj: int) -> ColorPairWitness:
        ps = self._ps
        ai = self._rep_indices(ci)
        bj = self._rep_indices(cj)
        xs, ys = ps.xs, ps.ys
        dd = np.hypot(
            xs[ai][:, None] - xs[bj][None, :], ys[ai][:, None] - ys[bj][None, :]
        )
        dmax = float(dd.max())
        cut = dmax - max(dmax * _CANDIDATE_SLACK, _ABS_SLACK)
        best: tuple[float, int, int] | None = None
        for pos_i, pos_j in zip(*np.nonzero(dd >= cut)):
            a, b = int(ai[pos_i]), int(bj[pos_j])
            exact = math.hypot(xs[a] - xs[b], ys[a] - ys[b])
            key = (-exact, a, b)
            if best is None or key < best:
                best = key
        assert best is not None
        d, a, b = best
        return ColorPairWitness(ci, cj, a, b, -d)


def _build_color_graph(point_set: ColoredPointSet, mode: str) -> ColorGraph:
    finder = (
        _ClosestPairFinder(point_set) if mode == CLOSEST else _FarthestPairFinder(point_set)
    )
    t = point_set.num_colors
    edges = tuple(
        finder.witness(i, j) for i in range(t) for j in range(i + 1, t)
    )
    return ColorGraph(num_colors=t, mode=mode, edges=edges)


def build_closest_color_graph(point_set: ColoredPointSet) -> ColorGraph:
    """Complete color graph whose edges are bichromatic closest pairs."""
    return _build_color_graph(point_set, CLOSEST)


def build_farthest_color_graph(point_set: ColoredPointSet) -> ColorGraph:
    """Complete color graph whose edges are bichromatic farthest pairs."""
    return _build_color_graph(point_set, FARTHEST)
