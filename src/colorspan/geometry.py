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
takes every bichromatic pair; in a larger one, closest candidates come
from two tiers over the distinct points of each class, farthest candidates
from the outer points of each class.

Both closest tiers keep a pair while it lies within the exact pass's cut
of the least distance its color pair has shown so far.  That distance only
falls, and the cut with it, so every pair the exact pass keeps survives.
Tier 1 is one grid whose cell side is a power of two: the coarsest whose
pairs in the same or neighbouring cells number at most
``_GRID_PAIRS_PER_POINT`` per point, counted from the cell histogram, or
the finest.  Cell indexes come from exact power-of-two scaling and
flooring, so two points less than a side apart share or neighbour a cell,
and a color pair whose cut, widened by the rounding of a float distance,
is below the side has every pair the exact pass needs among the grid's.
Tier 2 walks a quadtree per class, in Morton order, for the color pairs
left open.  It drops a node pair only when the bounding boxes are farther
apart than the widened cut of a bound that an actual pair meets: the
least distance between the first points of a node pair, from the two
roots down.  A node pair at the finest level, whose cells cannot split,
is a leaf like a small one, and all its pairs are enumerated.  Both tiers
run on the distinct points of each class, which come out of the Morton
sort: only points that share a code are compared exactly.

One coverage rule serves every closest build.  Each color pair has a
cap, and every cut is capped at the cut of its cap.  The grid covers a
color pair whose widened capped cut is below the cell side; tier 2 walks
the others under their caps and drops a node pair beyond the widened
capped cut.  Every candidate either tier finds is kept, and each color
pair's walk is recorded with its cap, so no color pair is walked twice
under a cap that is not higher.  A color pair whose closest distance is
within its cap then has every candidate the complete build gives it, and
so the same witness.  The complete build caps nothing.

A closest graph that serves one objective is built in part, from one of
two starts:

- Minmax.  A bottleneck perfect matching's answer and witness depend
  only on the color pairs at or below its optimum λ* (Gabow & Tarjan,
  1988).  After tier 1, every color pair of each color that has no pair
  in the grid is walked with no cap.  Λ is then the bottleneck value of a
  perfect matching over the least distance per color pair so far; each
  is an actual pair's distance, so λ* is at most Λ up to rounding.  Every
  color pair is capped at the cut of Λ, and only those within their cap
  are built: the threshold search finds the same level and the same
  witness on the reduced graph.  When the distances so far admit no
  perfect matching, Λ is infinite and the graph is the complete one.
- Minsum.  A :class:`PricedColorGraph` starts from the color pairs the
  grid settles, and every pair of each color that has none of those,
  walked with no cap.  It grows by a limit per missing color pair, whose
  cut becomes that pair's cap; the solver takes the limits from the
  optimal duals of a matching on the graph so far (Cook & Rohe, 1999; see
  :mod:`colorspan.solvers`).

A set whose distances may exceed the float range, which only the
complete build reports, or one small enough for the full scan gets the
complete graph.

The outer points come from two passes.  Per class, an octagon of extreme
points drops most of the raw class, by one product of the points with the
ring's edge normals against one bound per edge.  Then one pass over the
distinct survivors of every class filters them by each class's 32-gon of
extreme points, found as segmented maxima.  A ring through any points of
the class is safe.  Each color's outer points then meet those of every
higher color in one block of distances.  Builders are therefore exact and
deterministic, with ties broken toward the lexicographically smallest
pair of point indexes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np

from .errors import InvalidInstanceError
from .matching import (
    Matching,
    Objective,
    WeightedGraph,
    _perfect_matching_exists,
    _threshold_prefix,
)

if TYPE_CHECKING:
    from fractions import Fraction

# Relative slack used when collecting candidates from the accelerated
# passes; generous because the exact pass filters false positives anyway.
_CANDIDATE_SLACK = 1e-9
# The farthest builder's absolute slack at unit scale (see ``_cut``).
_ABS_SLACK = 1e-12
# Subnormal spacings (2^-1074 each) of the original and of the unit scale
# in the absolute slack (see ``_cut``).
_SUBNORMAL_SPACINGS = 4

# A "colors never used" message lists at most this many colors.
_MISSING_SHOWN = 8

# Up to this many points both builders take every bichromatic pair as a
# candidate: below it, the per-class passes cost more than they save.
_SCAN_CUTOFF = 256
# The closest builder's grid pass takes the coarsest grid on which at
# most this many point pairs per distinct point share or neighbour a cell.
_GRID_PAIRS_PER_POINT = 2
# Point pairs enumerated at once by either candidate tier, and grid cells
# whose neighbours are looked up at once.
_PAIR_CHUNK = 1 << 14
_CELL_CHUNK = 1 << 14
# Pieces of kept candidate pairs merged into one array at a time.
_MERGED_PIECES = 64
# A quadtree node pair with at most this many point pairs is a leaf, and
# the walk takes this many node pairs at once.
_LEAF_PAIRS = 16
_NODE_CHUNK = 1 << 13
# The 16 pairs of child ranks of a node pair.
_CHILD_A, _CHILD_B = np.divmod(np.arange(16), 4)
# Shifts and masks that spread the bits of a 32-bit integer to the even
# bits of a 64-bit one.
_SPREAD = [
    (16, np.uint64(0x0000FFFF0000FFFF)),
    (8, np.uint64(0x00FF00FF00FF00FF)),
    (4, np.uint64(0x0F0F0F0F0F0F0F0F)),
    (2, np.uint64(0x3333333333333333)),
    (1, np.uint64(0x5555555555555555)),
]

# Directions, in angular order, whose extreme points span an inner polygon.
_ANGLES = np.arange(2 * 16) * (np.pi / 16)
_COS, _SIN = np.cos(_ANGLES), np.sin(_ANGLES)
# The outer-point test's rounding term per unit of ring edge length, 16 eps,
# and its underflow term, the least normal float (see ``_off_ring``).
_EDGE_EPS = 16 * np.finfo(np.float64).eps
_EDGE_TINY = np.finfo(np.float64).tiny


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
    builders fill in every color pair, except where a closest graph is
    built in part for one objective; a vertex-colored graph's contraction
    can miss some.
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


def _peak(point_set: ColoredPointSet) -> float:
    """The largest coordinate magnitude."""
    return max(float(np.abs(point_set.xs).max()), float(np.abs(point_set.ys).max()))


def _distances_fit(point_set: ColoredPointSet) -> bool:
    """Whether every distance between two of the points is within the
    float range: no coordinate difference exceeds twice the peak."""
    twice = 2 * _peak(point_set)
    return math.hypot(twice, twice) < math.inf


def _unit_scaled(point_set: ColoredPointSet) -> tuple[np.ndarray, np.ndarray, float]:
    """The coordinates times the one power of two that brings the largest
    magnitude into ``[0.5, 1)``, and the absolute candidate slack at that
    scale.

    The scaling is exact up to underflow, which the slack covers, so the
    accelerated passes see well-scaled input at every coordinate scale:
    every coordinate lies in (-1, 1), where grid cell indexes are exact,
    outer-point and candidate arithmetic cannot underflow, and no
    difference overflows.  The slack is ``_SUBNORMAL_SPACINGS`` subnormal
    spacings of the original scale, taken to unit scale, plus as many of
    the unit scale (see :func:`_cut`).
    """
    exponent = _unit_exponent(point_set)
    spacings = _SUBNORMAL_SPACINGS * 5e-324
    return (
        np.ldexp(point_set.xs, exponent),
        np.ldexp(point_set.ys, exponent),
        math.ldexp(spacings, exponent) + spacings,
    )


def _unit_exponent(point_set: ColoredPointSet) -> int:
    """The exponent of the power of two by which :func:`_unit_scaled`
    scales the coordinates."""
    return -math.frexp(_peak(point_set))[1]


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


def _morton(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Morton codes of the integer cell coordinates ``(ix, iy)``, each
    below 2^31: their bits interleaved, those of ``ix`` higher."""
    spread = []
    for v in (ix, iy):
        v = v.astype(np.uint64)
        for shift, mask in _SPREAD:
            v = (v | (v << shift)) & mask
        spread.append(v)
    return ((spread[0] << 1) | spread[1]).astype(np.int64)


def _cell_pairs(codes: np.ndarray, shift: int) -> int:
    """The point pairs that share a cell, given the sorted Morton codes
    ``codes`` and the bits ``shift`` that a cell's codes differ in."""
    cells = codes >> shift
    first = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
    counts = np.diff(np.r_[first, len(cells)])
    return int((counts * (counts - 1)).sum()) // 2


class _Grid(NamedTuple):
    """The occupied cells of one grid level in row-major order.

    A cell's points take consecutive places: ``starts[k]`` is cell ``k``'s
    first, and ``starts[-1]`` the point count.  ``above[k]`` counts the
    points of the cell above cell ``k``, and the three cells to its right
    hold the places ``right[k] .. right_end[k] - 1``.  Cell ``k``'s points
    are those from position ``first[k]`` in Morton order.
    """

    first: np.ndarray
    starts: np.ndarray
    above: np.ndarray
    right: np.ndarray
    right_end: np.ndarray

    def pairs(self) -> int:
        """The point pairs in the same or neighbouring cells."""
        counts = np.diff(self.starts)
        inside = (counts @ counts - self.starts[-1]) // 2
        return int(inside + counts @ (self.above + self.right_end - self.right))

    def positions(self) -> np.ndarray:
        """The Morton position of the point at each place."""
        counts = np.diff(self.starts)
        return np.repeat(self.first - self.starts[:-1], counts) + np.arange(self.starts[-1])

    def blocks(self) -> Iterable[tuple[np.ndarray, ...]]:
        """Blocks of places for :func:`_block_pairs`, ``_CELL_CHUNK`` cells
        at a time: each cell with itself and the cell above, and with the
        cells to its right, so each neighbouring pair of cells once."""
        cells = len(self.above)
        for lo in range(0, cells, _CELL_CHUNK):
            hi = min(lo + _CELL_CHUNK, cells)
            starts = self.starts[lo:hi]
            counts = self.starts[lo + 1 : hi + 1] - starts
            right, right_end = self.right[lo:hi], self.right_end[lo:hi]
            yield (
                np.r_[starts, starts], np.r_[counts, counts],
                np.r_[starts, right], np.r_[counts + self.above[lo:hi], right_end - right],
            )


def _grid(codes: np.ndarray, ix: np.ndarray, iy: np.ndarray, level: int, depth: int) -> _Grid:
    """The grid of ``level`` over the points with sorted Morton codes
    ``codes`` at ``depth`` and cell coordinates ``ix``, ``iy`` there."""
    shift = depth - level
    cells = codes >> 2 * shift
    first = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
    del cells
    # Row-major cell keys with a free row and column on each side: the
    # neighbour at (dx, dy) has the key plus dx * width + dy.
    width = (1 << level) + 2
    keys = ((ix[first] >> shift) + 1) * width + (iy[first] >> shift) + 1
    order = np.argsort(keys)
    keys = keys[order]
    counts = np.diff(np.r_[first, len(codes)])[order]
    first = first[order]
    del order
    starts = np.r_[0, np.cumsum(counts)]
    above = np.zeros_like(counts)
    up = np.flatnonzero(keys[1:] == keys[:-1] + 1)
    above[up] = counts[up + 1]
    # The three cells to the right are among the three from the first key
    # at or past the lowest of them.
    right = np.searchsorted(keys, keys + width - 1)
    right_end = right.copy()
    last = keys + width + 1
    keys = np.r_[keys, np.full(3, last.max() + 1)]
    for k in range(3):
        right_end += keys[right + k] <= last
    del keys, last
    return _Grid(first, starts, above, starts[right], starts[right_end])


def _block_pairs(sa, na, sb, nb) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    """The position pairs ``(i, j)``, ``i < j``, with ``i`` in
    ``sa .. sa + na - 1`` and ``j`` in ``sb .. sb + nb - 1`` of some block,
    in chunks of about ``_PAIR_CHUNK`` pairs.  A block's rows either all
    precede its columns or are them (``sa == sb``, ``na == nb``)."""
    rows = np.repeat(sa - (np.cumsum(na) - na), na) + np.arange(na.sum())
    # Each row's columns past the row, so a block on itself yields every
    # pair once.
    start = np.maximum(np.repeat(sb, na), rows + 1)
    width = np.repeat(sb + nb, na) - start
    ends = np.cumsum(width)
    chunk = (ends - width) // _PAIR_CHUNK
    bounds = np.flatnonzero(np.r_[True, chunk[1:] != chunk[:-1], True])
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        w = width[lo:hi]
        # Within a row, j runs with the pair's place in the chunk.
        place = ends[lo:hi] - w - (ends[lo] - w[0])
        yield np.repeat(rows[lo:hi], w), np.arange(w.sum()) + np.repeat(start[lo:hi] - place, w)


def _cut(extreme: np.ndarray, slack: float) -> np.ndarray:
    """The distance up to which ``_exact_edges`` keeps a candidate of a
    color pair whose extreme candidate distance is ``extreme``.

    Candidates are ranked by unit-scaled float distances and the exact
    pass by ``math.hypot`` on the original coordinates, so the cut must
    keep every pair that the exact pass could rank first.  The two
    distances of a pair differ only by rounding:

    - relative rounding, a few ulps at either scale, which
      ``_CANDIDATE_SLACK`` covers many times over;
    - the subnormal grid of the original scale: exact distances between
      subnormal coordinates round to multiples of 2^-1074, so they tie
      where the unit-scaled ones differ;
    - the subnormal grid of the unit scale: scaling by a negative power of
      two can take a coordinate below the normal range, where it rounds
      to a multiple of 2^-1074.

    ``_unit_scaled``'s slack is ``_SUBNORMAL_SPACINGS`` spacings of each
    subnormal grid at unit scale, and nothing more: that is the closest
    builder's.  The farthest builder adds ``_ABS_SLACK``, because its
    outer-point filter needs a margin far above the rounding of its
    orientation test (see :func:`_off_ring`).
    """
    return extreme + np.maximum(np.abs(extreme) * _CANDIDATE_SLACK, slack)


def _widened(bound: np.ndarray) -> np.ndarray:
    """``bound`` plus twice the rounding of a hypot of two rounded
    differences, relative and on the subnormal grid: a pair whose float
    distance is at most ``bound`` is exactly nearer than this, and so is
    any float lower bound on its distance."""
    return bound * (1 + 8 * np.finfo(np.float64).eps) + np.finfo(np.float64).smallest_subnormal


class _ClassTree:
    """A quadtree per class over the distinct points, which tier 2 walks.

    The points are sorted by color and then by Morton code at ``depth``, so
    a class is a run and its nodes at a level are the runs of equal code
    prefixes within it.  :meth:`nodes` finds a level's node starts on the
    first walk that reaches the level.
    """

    def __init__(
        self, pts: np.ndarray, codes: np.ndarray, colors: np.ndarray, depth: int,
        sx: np.ndarray, sy: np.ndarray,
    ):
        keys = (colors[pts].astype(np.int64) << 2 * depth) | codes
        order = np.argsort(keys, kind="stable")
        self.keys, self.pts, self.depth = keys[order], pts[order], depth
        # A last entry that no node holds ends the last node's reduction.
        self.px, self.py = sx[np.r_[self.pts, 0]], sy[np.r_[self.pts, 0]]
        self._starts: dict[int, np.ndarray] = {}

    def nodes(self, level: int) -> np.ndarray:
        """Each node's first position at ``level``, and past the last node
        the end."""
        if level not in self._starts:
            prefix = self.keys >> 2 * (self.depth - level)
            first = np.flatnonzero(np.r_[True, prefix[1:] != prefix[:-1]])
            self._starts[level] = np.r_[first, len(prefix)]
        return self._starts[level]


def _quadtree_pairs(
    tiers: _ClosestTiers, pi: np.ndarray, pj: np.ndarray
) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    """Point pairs that cover, for each color pair ``(pi, pj)``, every
    pair within its ``tiers.cut``: that of its closest distance, or of its
    cap where that is lower.

    The walk descends ``tiers.tree`` from the pair of roots of each color
    pair, one level at a time, ``_NODE_CHUNK`` node pairs at once.  A node
    pair with at most ``_LEAF_PAIRS`` point pairs, or at the tree's depth,
    is a leaf, whose pairs are enumerated; any other is split into the
    pairs of its children.  A new node pair first lowers the color pair's
    least distance by the distance of the two nodes' first points, and is
    dropped if its bounding boxes lie farther apart than the widened
    ``tiers.cut`` of that bound.
    """
    tree = tiers.tree
    pts, px, py, depth = tree.pts, tree.px, tree.py, tree.depth

    def near(bounds: np.ndarray, code: np.ndarray, ka: np.ndarray, kb: np.ndarray):
        """Whether each node pair ``(ka, kb)`` of the nodes that start at
        ``bounds`` may hold a pair within the cut, after its first points
        lower the bound."""
        sa, sb = bounds[ka], bounds[kb]
        np.minimum.at(tiers.best, code, np.hypot(px[sa] - px[sb], py[sa] - py[sb]))
        # Bounding boxes of the nodes in some pair, one reduction each over
        # its own points; the points between two such nodes reduce to
        # nothing that is read.
        used = np.zeros(len(bounds) - 1, bool)
        used[ka] = used[kb] = True
        node = np.flatnonzero(used)
        cuts = np.column_stack((bounds[node], bounds[node + 1])).ravel()
        xlo, xhi, ylo, yhi = (
            f.reduceat(c, cuts)[::2] for c in (px, py) for f in (np.minimum, np.maximum)
        )
        slot = np.cumsum(used) - 1
        ra, rb = slot[ka], slot[kb]
        gap_x = np.maximum(np.maximum(xlo[rb] - xhi[ra], xlo[ra] - xhi[rb]), 0)
        gap_y = np.maximum(np.maximum(ylo[rb] - yhi[ra], ylo[ra] - yhi[rb]), 0)
        return np.hypot(gap_x, gap_y) <= _widened(tiers.cut(code))

    # Level 0 has one node per class, in class order.
    bounds = tree.nodes(0)
    code = pi * tiers.t + pj
    live = near(bounds, code, pi, pj)
    code, ka, kb = code[live], pi[live], pj[live]
    for level in range(depth + 1):
        first, sizes = bounds[:-1], np.diff(bounds)
        if level < depth:
            below = tree.nodes(level + 1)
            # A node's children are the nodes one level down that start in it.
            kid = np.searchsorted(below, bounds)
        kept = []
        for lo in range(0, len(code), _NODE_CHUNK):
            c, a, b = (v[lo : lo + _NODE_CHUNK] for v in (code, ka, kb))
            na, nb = sizes[a], sizes[b]
            leaf = (na * nb <= _LEAF_PAIRS) | (level == depth)
            if leaf.any():
                blocks = first[a[leaf]], na[leaf], first[b[leaf]], nb[leaf]
                for i, j in _block_pairs(*blocks):
                    yield pts[i], pts[j]
            if leaf.all():
                continue
            c, a, b = c[~leaf], a[~leaf], b[~leaf]
            # All 16 child pairs of each node pair, those past a last child
            # dropped, and then those too far apart.
            ca, cb = kid[a, None] + _CHILD_A, kid[b, None] + _CHILD_B
            real = (ca < kid[a + 1, None]) & (cb < kid[b + 1, None])
            c, a, b = np.repeat(c, 16)[real.ravel()], ca[real], cb[real]
            live = near(below, c, a, b)
            kept.append((c[live], a[live], b[live]))
        if not kept:
            return
        code, ka, kb = (np.concatenate(part) for part in zip(*kept))
        bounds = below


class _ClosestTiers:
    """The closest builder's candidate pairs over a point set, from tier 1
    at construction and tier 2 on demand.

    ``a`` and ``b`` hold every candidate pair found so far, ``a`` of the
    lower color, and ``best`` holds, per color pair code ``i * t + j``,
    the least distance among them.  :meth:`candidates` is the one place
    that decides which color pairs the grid covers and which the walk
    must take.
    """

    def __init__(
        self, point_set: ColoredPointSet, sx: np.ndarray, sy: np.ndarray, slack: float
    ):
        t = point_set.num_colors
        self.point_set, self.colors, self.t = point_set, point_set.colors, t
        self.sx, self.sy, self.slack = sx, sy, slack
        self.best = np.full(t * t, np.inf)
        # The caps of the ``candidates`` call under way, and the highest
        # cap each color pair has been walked under.
        self.cap = np.full(t * t, np.inf)
        self.walked = np.full(t * t, -np.inf)
        self.upper = (np.arange(t)[:, None] < np.arange(t)).ravel()
        # Codes leave room for the color above them in the class tree.
        self.depth = depth = min(30, (63 - (t - 1).bit_length()) // 2)
        self.pts, self.codes, ix, iy = _morton_distinct(point_set, sx, sy, depth)
        pts, codes = self.pts, self.codes
        # The coarsest level whose neighbour pairs stay within the budget.
        # Two points that share a cell one level up share or neighbour a
        # cell, so no level below the first whose parent cells hold at most
        # the budget in pairs can meet it.
        budget = _GRID_PAIRS_PER_POINT * len(pts)
        level = 0
        while level < depth and _cell_pairs(codes, 2 * (depth - level + 1)) > budget:
            level += 1
        grid = _grid(codes, ix, iy, level, depth)
        while level < depth and grid.pairs() > budget:
            level += 1
            del grid
            grid = _grid(codes, ix, iy, level, depth)
        del ix, iy
        ranked = pts[grid.positions()]
        self.a, self.b = self._keep(
            (ranked[i], ranked[j]) for blocks in grid.blocks() for i, j in _block_pairs(*blocks)
        )
        del ranked, grid
        self.side = math.ldexp(1.0, 1 - level)

    @cached_property
    def tree(self) -> _ClassTree:
        """The class quadtrees, built on the first walk."""
        return _ClassTree(self.pts, self.codes, self.colors, self.depth, self.sx, self.sy)

    def cut(self, code: np.ndarray) -> np.ndarray:
        """The ``_exact_edges`` cut of each color pair's least distance so
        far, or of its cap where that is lower."""
        return _cut(np.minimum(self.best[code], self.cap[code]), self.slack)

    def _keep(self, pairs: Iterable[tuple[np.ndarray, np.ndarray]]):
        """The bichromatic pairs ``(a, b)`` among ``pairs``, ``a`` of the
        lower color, within the ``cut`` of their color pair, which each
        chunk lowers first.  The least distance only falls and the cut
        with it, so every pair within the cut of the final least distance,
        or of the cap, is kept."""
        colors, sx, sy, best, t = self.colors, self.sx, self.sy, self.best, self.t
        kept, pieces = [np.empty((2, 0), np.intp)], []
        for a, b in pairs:
            ca, cb = colors[a], colors[b]
            # A same-color pair lands on the diagonal, which nothing reads.
            code = np.minimum(ca, cb) * t + np.maximum(ca, cb)
            dist = np.hypot(sx[a] - sx[b], sy[a] - sy[b])
            np.minimum.at(best, code, dist)
            keep = np.flatnonzero((dist <= self.cut(code)) & (ca != cb))
            a, b = a[keep], b[keep]
            pieces.append(np.where(ca[keep] > cb[keep], [b, a], [a, b]))
            # Merged as they come: many small pieces freed at once leave
            # heap that the exact pass's Python objects cannot reuse.
            if len(pieces) == _MERGED_PIECES:
                kept.append(np.concatenate(pieces, axis=1))
                pieces = []
        a, b = np.concatenate(kept + pieces, axis=1)
        return a, b

    def covered(self, cap) -> np.ndarray:
        """Per color pair code, True for the pairs ``i < j`` whose grid
        candidates hold every pair within the cut of their least distance,
        or of ``cap`` where that is lower.

        Two points less than a cell side apart share or neighbour a cell,
        and no pair's float distance is below its exact one by more than
        the widening: a color pair whose widened cut is below the side has
        every pair within its cut among the grid's.
        """
        return self.upper & (_widened(_cut(np.minimum(self.best, cap), self.slack)) < self.side)

    def lone(self, paired: np.ndarray) -> np.ndarray:
        """Per color pair code, True for the pairs ``i < j`` of each color
        that no pair where ``paired`` holds touches."""
        t = self.t
        paired = (paired & self.upper).reshape(t, t)
        alone = ~(paired.any(axis=0) | paired.any(axis=1))
        return self.upper & (alone[:, None] | alone).ravel()

    def candidates(self, wanted: np.ndarray, cap=math.inf) -> tuple[np.ndarray, np.ndarray]:
        """The candidate pairs ``(a, b)`` of the color pairs whose code is
        True in ``wanted`` and whose least distance is at most their cap:
        ``cap``, one for every color pair or one per code.

        The grid covers some color pairs under their caps; the others are
        walked under them, except those already walked under a cap as
        high.  Every pair a walk finds is kept, so each color pair's
        candidates hold every pair within the cut of its least distance,
        or of the highest cap it was walked under where that is lower.  A
        color pair returned has every candidate the complete build gives
        it, and so the same witness.
        """
        self.cap[:] = cap
        walk = wanted & ~self.covered(self.cap) & (self.cap > self.walked)
        if walk.any():
            self.walked[walk] = self.cap[walk]
            pi, pj = np.divmod(np.flatnonzero(walk), self.t)
            self.a, self.b = _joined((self.a, self.b), self._keep(_quadtree_pairs(self, pi, pj)))
        built = wanted & (self.best <= self.cap)
        if built[self.upper].all():
            return self.a, self.b
        built = built[self.colors[self.a] * self.t + self.colors[self.b]]
        return self.a[built], self.b[built]

    def exact(self, a: np.ndarray, b: np.ndarray) -> dict[tuple[int, int], tuple[float, int, int]]:
        """The witness of each color pair among the candidates ``(a, b)``."""
        return _exact_edges(self.point_set, a, b, self.sx, self.sy, self.slack, 1)


def _joined(*pieces: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``(a, b)`` of all ``pieces`` in one pair of arrays; when
    only one piece holds pairs, that piece itself."""
    full = [piece for piece in pieces if len(piece[0])] or pieces[:1]
    if len(full) == 1:
        return full[0]
    a, b = (np.concatenate(ends) for ends in zip(*full))
    return a, b


def _morton_distinct(
    point_set: ColoredPointSet, sx: np.ndarray, sy: np.ndarray, depth: int
) -> tuple[np.ndarray, ...]:
    """The lowest index of each distinct coordinate in each class, sorted by
    their Morton codes at ``depth`` with ties in index order, and their
    codes and cell coordinates there.

    Coincident points share a code, so only runs of equal codes need the
    exact ``(color, x, y)`` comparison (0.0 and -0.0 compare equal).
    """
    # Cells at ``depth`` have a side of 2^(1 - depth): unit-scaled
    # coordinates lie in (-1, 1), and ldexp and floor are exact there.
    ix, iy = (
        np.floor(np.ldexp(c, depth - 1)).astype(np.int64) + (1 << depth - 1) for c in (sx, sy)
    )
    codes = _morton(ix, iy)
    pts = np.argsort(codes, kind="stable")
    # Point arrays are reordered one at a time and dropped once done: at
    # 10^6 points each is 8 MB, and the peak here must stay under that of
    # parsing the point file.
    codes = codes[pts]
    same = codes[1:] == codes[:-1]
    tied = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
    if len(tied):
        run = np.cumsum(np.r_[True, ~same])[tied]
        p = pts[tied]
        keys = (point_set.ys[p], point_set.xs[p], point_set.colors[p], run)
        # lexsort is stable, so each run of equal keys starts at its
        # lowest index.
        order = np.lexsort(keys)
        repeat = np.ones(len(order) - 1, dtype=bool)
        for key in keys:
            key = key[order]
            repeat &= key[1:] == key[:-1]
        distinct = np.ones(len(pts), dtype=bool)
        distinct[tied[order[1:][repeat]]] = False
        pts = pts[distinct]
        codes = codes[distinct]
        del distinct
    return pts, codes, ix[pts], iy[pts]


def _bottleneck_cap(best: np.ndarray, t: int, slack: float) -> float:
    """The cut of Λ, the bottleneck value of a perfect matching on the
    ``t`` colors whose edges weigh the finite least distances ``best``
    (per color pair code ``i * t + j``), or infinity when they admit no
    perfect matching.

    Each least distance is an actual pair's, so the exact optimum λ* of
    the closest color graph, at unit scale, is at most Λ up to the
    rounding of a distance, which the cut covers many times over.  Every
    color pair within λ* then has its closest distance within the cap,
    and a build capped there sees every candidate that the complete build
    gives such a pair: its witness is the same.  The threshold search
    finds the same first feasible level on the reduced graph, whose edges
    up to that level are the complete graph's, and the same witness.
    """
    i, j = np.triu_indices(t, 1)
    bound = best[i * t + j]
    finite = np.isfinite(bound)
    edges = list(zip(i[finite].tolist(), j[finite].tolist(), bound[finite].tolist()))
    if not _perfect_matching_exists(t, edges):
        return math.inf
    return float(_cut(_threshold_prefix(t, edges, True)[-1][2], slack))


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
    keep = dist <= _cut(extreme, slack)[code]
    best: dict[int, tuple[float, int, int]] = {}
    for k, p, q in zip(code[keep].tolist(), a[keep].tolist(), b[keep].tolist()):
        key = (sign * point_set.distance(p, q), p, q)
        if k not in best or key < best[k]:
            best[k] = key
    # Codes i * t + j sort in (i, j) order.
    return {divmod(k, t): (sign * d, p, q) for k, (d, p, q) in sorted(best.items())}


def _edge_thresholds(
    ux: np.ndarray, uy: np.ndarray, ex: np.ndarray, ey: np.ndarray, slack: float
) -> np.ndarray:
    """Per ring edge from ``(ux, uy)`` along ``(ex, ey)``, the bound that
    a point's product with the edge normal ``(-ey, ex)`` must exceed for
    :func:`_off_ring` to drop it."""
    return ux * -ey + uy * ex + (slack + _EDGE_EPS) * np.hypot(ex, ey) + _EDGE_TINY


def _off_ring(xs: np.ndarray, ys: np.ndarray, slack: float) -> np.ndarray:
    """True for each point ``(xs, ys)`` unless it lies over ``slack``
    inside every edge line of the ring through the points' extremes in
    every fourth ``_ANGLES`` direction, an octagon; True for all when that
    ring has fewer than three vertices.

    Each edge from ring vertex ``u`` to the next, ``v``, has the rounded
    vector ``e = fl(v - u)`` and the normal ``n = (-e_y, e_x)``.  A point
    ``p`` is over ``slack`` inside the edge line when the exact cross
    product ``D = cross(v - u, p - u)`` exceeds ``slack * |v - u|``.  The
    test takes one product of the points with the normals and drops a
    point when its ``fl(p . n)`` exceeds the edge's bound from
    :func:`_edge_thresholds`, ``fl(u . n) + (slack + c * eps) * |e| + k *
    tiny`` (``_EDGE_EPS`` is ``c * eps`` and ``_EDGE_TINY`` is ``k *
    tiny``).  With the unit roundoff ``r = eps / 2``, the largest
    rounding error on the subnormal grid ``h = r * tiny``, and ``w = v -
    u``, after Shewchuk (1997):

    - Unit-scaled coordinates lie in (-1, 1), so ``|p - u|`` is below 2
      per axis, and ``slack`` is below 2.1 (it reaches 2 only when every
      coordinate is subnormal; see :func:`_unit_scaled`).
    - The rounded edge: ``e`` is ``w`` within ``r * |w|`` per axis (a
      difference that is subnormal is exact), so ``n . (p - u) =
      cross(e, p - u)`` is ``D`` within ``2 * r * (|w_x| + |w_y|) < 2.83
      * r * |w|``.
    - The products: each rounded ``fl(a * n_x + b * n_y)``, with ``|a|``
      and ``|b|`` below 1, is off by under ``2.01 * r * (|e_x| + |e_y|)
      + 2.01 * h < 2.85 * r * |w| + 2.01 * h`` (each product underflows
      by at most ``h``, and a subnormal sum is exact).  So ``D`` is within
      ``8.53 * r * |w| + 4.02 * h`` of ``fl(p . n) - fl(u . n)``.
    - The bound: rounding ``slack + c * eps``, ``|e|`` (within one ulp)
      and their product loses under ``5.01 * r * (slack + c * eps) * |w|
      + 5.3 * h``, at most ``10.53 * r * |w|`` as ``slack`` is below 2.1;
      each of the two sums loses ``r`` times its magnitude, under
      ``3.54 * |w| + tiny``.

    So a dropped point has ``D > slack * |w| + (c - 13.07) * eps * |w| +
    k * tiny * (1 - r) - 9.4 * h``.  ``c = 16`` covers the rounding of
    the edge, the products and the bound, and ``k = 1`` the underflow of
    a subnormal edge, 2^53 times over.  A zero edge drops no point: its
    bound is ``k * tiny`` against a product of 0.
    """
    ring = np.argmax(np.multiply.outer(_COS[::4], xs) + np.multiply.outer(_SIN[::4], ys), axis=1)
    ring = ring[ring != np.concatenate((ring[-1:], ring[:-1]))]
    if len(ring) < 3:
        return np.ones(len(xs), dtype=bool)
    ux, uy = xs[ring], ys[ring]
    ahead = np.concatenate((ring[1:], ring[:1]))
    ex, ey = xs[ahead] - ux, ys[ahead] - uy
    products = np.multiply.outer(-ey, xs) + np.multiply.outer(ex, ys)
    return ~(products > _edge_thresholds(ux, uy, ex, ey, slack)[:, None]).all(axis=0)


def _outer_indices(
    point_set: ColoredPointSet, sx: np.ndarray, sy: np.ndarray, slack: float
) -> np.ndarray:
    """The distinct points of every class that can end a farthest pair,
    in order of color, then index.

    Extreme points in angular order close a ring of class points inside
    the hull (Akl & Toussaint 1978), and both passes keep every point
    that is not over ``slack`` inside each of its edge lines, by the test
    and bound of :func:`_off_ring`.  A
    point over ``slack`` inside every edge line of a closed ring is wound
    around by it, and so is the disc of radius ``slack`` about it: the
    disc lies in the hull of the ring's vertices.  From any point, some
    point of that disc, and so some vertex, is at least ``slack`` farther
    than the dropped point, above distance rounding at unit scale and on
    the subnormal grid.  The argument needs only that the ring's vertices
    are points of the class, not that they survive, so the filter runs
    twice: :func:`_off_ring`'s octagon on each raw class drops most of
    its interior at a quarter of the cost, then the
    ring of all ``_ANGLES`` directions runs once on the distinct
    survivors of every class.  Coincident points share their test's
    outcome, so deduplicating after the first pass keeps each
    coordinate's lowest index, which wins every ``(distance, a, b)``
    tie-break against its copies.

    The second pass takes each class's extreme per direction as a
    segmented maximum, with ``np.argmax``'s tie-break toward the lowest
    index, and pads each ring to one edge per direction: an edge between
    two slots of the same vertex is neutral, and a class whose ring has
    fewer than three vertices keeps every survivor.
    """
    survivors = np.concatenate([
        idx[_off_ring(sx[idx], sy[idx], slack)]
        for idx in point_set._classes
    ])
    # lexsort is stable, so each run of equal color and coordinates (0.0
    # and -0.0 compare equal) starts at its lowest index.
    keys = (point_set.ys[survivors], point_set.xs[survivors], point_set.colors[survivors])
    order = np.lexsort(keys)
    repeat = np.ones(len(order) - 1, dtype=bool)
    for key in keys:
        key = key[order]
        repeat &= key[1:] == key[:-1]
    distinct = np.ones(len(order), dtype=bool)
    distinct[order[1:][repeat]] = False
    reps = survivors[distinct]
    colors = keys[2][distinct]
    starts = np.flatnonzero(np.r_[True, colors[1:] != colors[:-1]])
    # Rows are directions or ring edges, columns points or classes.
    xs, ys = sx[reps], sy[reps]
    proj = np.multiply.outer(_COS, xs) + np.multiply.outer(_SIN, ys)
    tops = np.maximum.reduceat(proj, starts, axis=1)[:, colors]
    ring = np.minimum.reduceat(
        np.where(proj == tops, np.arange(len(reps)), len(reps)), starts, axis=1
    )
    ahead = np.roll(ring, -1, axis=0)
    ux, uy = xs[ring], ys[ring]
    ex, ey = xs[ahead] - ux, ys[ahead] - uy
    bound = _edge_thresholds(ux, uy, ex, ey, slack)
    edge = ring != ahead
    bound[~edge] = -np.inf
    bound[:, edge.sum(axis=0) < 3] = np.inf
    products = -ey[:, colors] * xs + ex[:, colors] * ys
    return reps[~(products > bound[:, colors]).all(axis=0)]


def _outer_candidates(
    point_set: ColoredPointSet, sx: np.ndarray, sy: np.ndarray, slack: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bichromatic pairs ``(a, b)`` within slack of their color pair's
    farthest distance, ``a`` of the lower color, among the outer points.

    Each color's outer points meet those of all higher colors in one
    block of unit-scaled distances, cut at each color pair's maximum.
    """
    t = point_set.num_colors
    outer = _outer_indices(point_set, sx, sy, slack)
    sizes = np.bincount(point_set.colors[outer], minlength=t)
    ends = np.cumsum(sizes)
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


def _partial(point_set: ColoredPointSet) -> bool:
    """Whether a closest color graph of this set may be built in part:
    past the full-scan cutoff, and unless a distance may exceed the float
    range, which only the complete build reports."""
    return len(point_set) > _SCAN_CUTOFF and _distances_fit(point_set)


def _complete_witnesses(
    point_set: ColoredPointSet, sign: int
) -> dict[tuple[int, int], tuple[float, int, int]]:
    """Every color pair's witness in the complete closest color graph for
    ``sign = 1``, the farthest for ``-1``."""
    sx, sy, slack = _unit_scaled(point_set)
    if sign < 0:
        slack += _ABS_SLACK
    if len(point_set) <= _SCAN_CUTOFF:
        a, b = _scan_candidates(point_set)
    elif sign > 0:
        tiers = _ClosestTiers(point_set, sx, sy, slack)
        a, b = tiers.candidates(tiers.upper)
        # Freed before the exact pass, whose Python objects set the peak.
        del tiers
    else:
        a, b = _outer_candidates(point_set, sx, sy, slack)
    witnesses = _exact_edges(point_set, a, b, sx, sy, slack, sign)
    _require_finite_distances((key, d) for key, (d, _, _) in witnesses.items())
    t = point_set.num_colors
    if len(witnesses) != t * (t - 1) // 2:
        raise InvalidInstanceError("color graph must have one edge per color pair")
    return witnesses


class PricedColorGraph(ColorGraph):
    """A closest color graph, complete or built in part, which grows by
    pricing the color pairs it lacks.

    Every color pair it holds has the complete graph's witness.  A graph
    built in part keeps its ``_ClosestTiers``; a complete one has none and
    never grows.  :meth:`grown` adds the missing color pairs whose closest
    distance is within a limit of their own; with the limits of a
    minimum-weight perfect matching's optimal duals (see
    :class:`~colorspan.matching.EdgeLimits`), a graph that does not grow
    holds a minimum-weight perfect matching of the complete one.
    """

    def __init__(
        self, num_colors: int, witnesses: dict[tuple[int, int], tuple[float, int, int]],
        tiers: _ClosestTiers | None = None,
    ):
        super().__init__(num_colors, witnesses)
        object.__setattr__(self, "_tiers", tiers)

    def grown(self, limit: Callable[[int, int], Fraction] | None) -> PricedColorGraph | None:
        """This graph plus each color pair ``(i, j)`` it lacks whose
        closest distance is at most ``limit(i, j)``, or None when there is
        none; with ``limit`` None, plus every color pair it lacks.

        Each missing color pair's cap is the cut of its limit at unit
        scale, and its candidates then hold every pair within the cut of
        its closest distance when that is within the limit: such a color
        pair gets its exact witness.
        """
        tiers = self._tiers
        if tiers is None:
            return None
        t = tiers.t
        missing = tiers.upper.copy()
        missing[[i * t + j for i, j in self.witnesses]] = False
        codes = np.flatnonzero(missing)
        if not len(codes):
            return None
        cap = np.full(t * t, np.inf)
        if limit is not None:
            limits = {k: limit(*divmod(k, t)) for k in codes.tolist()}
            exponent = _unit_exponent(tiers.point_set)
            unit = np.array([_unit_cap(r, exponent) for r in limits.values()])
            cap[codes] = _cut(unit, tiers.slack)
        added = tiers.exact(*tiers.candidates(missing, cap))
        if limit is not None:
            added = {key: w for key, w in added.items() if w[0] <= limits[key[0] * t + key[1]]}
        if not added:
            return None
        return PricedColorGraph(t, dict(sorted({**self.witnesses, **added}.items())), tiers)


def _unit_cap(limit: Fraction, exponent: int) -> float:
    """``limit`` times ``2 ** exponent``, rounded to a float; beyond every
    unit-scaled distance, which is below 4, it is 4 or -4."""
    num, den = limit.numerator, limit.denominator
    if exponent >= 0:
        num <<= exponent
    else:
        den <<= -exponent
    return num / den if abs(num) < 4 * den else math.copysign(4.0, num)


def build_closest_color_graph(
    point_set: ColoredPointSet, objective: Objective | None = None
) -> PricedColorGraph:
    """Color graph whose edges are bichromatic closest pairs: complete,
    or the part of it that a matching for ``objective`` needs.

    For minmax, only the edges that a bottleneck perfect matching can use:
    every edge at or below the optimum λ* and some above it, so
    :func:`~colorspan.matching.bottleneck_perfect_matching` returns the
    same matching on both.  For minsum, the start of a sparse graph that
    grows by the limits of a minimum-weight perfect matching on it (see
    :meth:`PricedColorGraph.grown`).  Each edge has the complete graph's
    witness.  Any other objective, a set of at most ``_SCAN_CUTOFF``
    points, or one whose distances may exceed the float range gets the
    complete graph.
    """
    t = point_set.num_colors
    if objective not in (Objective.MINMAX, Objective.MINSUM) or not _partial(point_set):
        return PricedColorGraph(t, _complete_witnesses(point_set, 1))
    tiers = _ClosestTiers(point_set, *_unit_scaled(point_set))
    if objective is Objective.MINMAX:
        # Every pair of each color that has no pair in the grid, and then
        # the color pairs within the cut of Λ.
        tiers.candidates(tiers.lone(np.isfinite(tiers.best)))
        a, b = tiers.candidates(tiers.upper, _bottleneck_cap(tiers.best, t, tiers.slack))
    else:
        # The color pairs the grid settles, and every pair of each color
        # that has none of those.
        settled = tiers.covered(math.inf)
        a, b = tiers.candidates(settled | tiers.lone(settled))
    return PricedColorGraph(t, tiers.exact(a, b), tiers)


def build_farthest_color_graph(point_set: ColoredPointSet) -> ColorGraph:
    """Complete color graph whose edges are bichromatic farthest pairs."""
    return ColorGraph(point_set.num_colors, _complete_witnesses(point_set, -1))
