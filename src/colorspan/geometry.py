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
from typing import Iterable

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
            missing = np.flatnonzero(counts == 0).tolist()
            raise InvalidInstanceError(f"colors never used: {missing}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "num_colors", num_colors)

    @classmethod
    def from_points(
        cls, points: Iterable[ColoredPoint], num_colors: int
    ) -> "ColoredPointSet":
        """The set of the given points, in order."""
        pts = tuple(points)
        return cls(
            [p.x for p in pts], [p.y for p in pts], [p.color for p in pts], num_colors
        )

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
        """The points as objects; built on first use, never by a solver."""
        return tuple(
            map(ColoredPoint, self.xs.tolist(), self.ys.tolist(), self.colors.tolist())
        )

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


def _column(values, dtype, what: str) -> np.ndarray:
    try:
        column = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInstanceError(f"{what} must be numbers") from None
    if column.ndim != 1:
        raise InvalidInstanceError(f"{what} must be one-dimensional")
    column.flags.writeable = False
    return column


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


def _unit_scaled(point_set: ColoredPointSet) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates times the one power of two that brings the largest
    magnitude into ``[0.5, 1)``.

    The scaling is exact (up to underflow far below any candidate slack),
    so the accelerated passes see well-scaled input at every coordinate
    scale: kd-tree squared distances cannot overflow, hull and candidate
    arithmetic cannot underflow, and no difference overflows.
    """
    peak = max(float(np.abs(point_set.xs).max()), float(np.abs(point_set.ys).max()))
    exponent = -math.frexp(peak)[1]
    return np.ldexp(point_set.xs, exponent), np.ldexp(point_set.ys, exponent)


class _ClosestPairFinder:
    """Bichromatic closest pairs for all color pairs of one point set.

    The kd-trees hold unit-scaled coordinates; the exact pass measures the
    original ones.
    """

    def __init__(self, point_set: ColoredPointSet):
        self._ps = point_set
        self._trees: dict[int, cKDTree] = {}
        self._sx, self._sy = _unit_scaled(point_set)

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
        best: tuple[float, int, int] | None = None
        for pos_j in np.nonzero(dist <= cut)[0]:
            b = int(idx_j[pos_j])
            for pos_i in tree.query_ball_point((sx[b], sy[b]), cut):
                a = int(idx_i[pos_i])
                key = (ps.distance(a, b), a, b)
                if best is None or key < best:
                    best = key
        assert best is not None
        d, a, b = best
        return ColorPairWitness(ci, cj, a, b, d)


class _FarthestPairFinder:
    """Bichromatic farthest pairs for all color pairs of one point set.

    A class larger than ``_HULL_CUTOFF`` is deduplicated to the lowest
    point index of each coordinate and then, if still that large, reduced
    to its convex hull vertices: a farthest pair always has both endpoints
    on the hulls, so the reduction is lossless.  Hull and candidate pass
    run on unit-scaled coordinates, the exact pass on the original ones.
    Degenerate classes (collinear, tiny) fall back to the full scan.
    """

    def __init__(self, point_set: ColoredPointSet):
        self._ps = point_set
        self._reps: dict[int, np.ndarray] = {}
        self._sx, self._sy = _unit_scaled(point_set)

    def _rep_indices(self, color: int) -> np.ndarray:
        reps = self._reps.get(color)
        if reps is None:
            reps = self._ps.color_indices(color)
            if len(reps) > _HULL_CUTOFF:
                reps = self._hull_indices(reps)
            self._reps[color] = reps
        return reps

    def _hull_indices(self, idx: np.ndarray) -> np.ndarray:
        # lexsort is stable, so each run of equal coordinates (0.0 and -0.0
        # compare equal) starts at its lowest index.
        xs, ys = self._ps.xs[idx], self._ps.ys[idx]
        order = np.lexsort((ys, xs))
        xs, ys = xs[order], ys[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
        reps = np.sort(idx[order[first]])
        if len(reps) <= _HULL_CUTOFF:
            return reps
        try:
            hull = ConvexHull(np.column_stack((self._sx[reps], self._sy[reps])))
        except QhullError:
            return reps
        return reps[np.sort(hull.vertices)]

    def witness(self, ci: int, cj: int) -> ColorPairWitness:
        ps = self._ps
        ai = self._rep_indices(ci)
        bj = self._rep_indices(cj)
        sx, sy = self._sx, self._sy
        dd = np.hypot(
            sx[ai][:, None] - sx[bj][None, :], sy[ai][:, None] - sy[bj][None, :]
        )
        dmax = float(dd.max())
        cut = dmax - max(dmax * _CANDIDATE_SLACK, _ABS_SLACK)
        best: tuple[float, int, int] | None = None
        for pos_i, pos_j in zip(*np.nonzero(dd >= cut)):
            a, b = int(ai[pos_i]), int(bj[pos_j])
            key = (-ps.distance(a, b), a, b)
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
    for e in edges:
        if math.isinf(e.distance):
            raise InvalidInstanceError(
                f"the distance between colors {e.color_i} and {e.color_j} "
                "exceeds the float range"
            )
    return ColorGraph(num_colors=t, mode=mode, edges=edges)


def build_closest_color_graph(point_set: ColoredPointSet) -> ColorGraph:
    """Complete color graph whose edges are bichromatic closest pairs."""
    return _build_color_graph(point_set, CLOSEST)


def build_farthest_color_graph(point_set: ColoredPointSet) -> ColorGraph:
    """Complete color graph whose edges are bichromatic farthest pairs."""
    return _build_color_graph(point_set, FARTHEST)
