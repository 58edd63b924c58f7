"""The closest builder's point orders against the stable sorts they stand for.

``_morton_distinct`` sorts the Morton codes with numpy's default, unstable
sort and puts each run of equal codes back in index order; the class tree
and ``color_indices`` sort colors as 16-bit keys.  Each must give exactly
the permutation of a stable sort on the full keys:

- ``_morton_distinct``: the stable sort of the codes, keeping the lowest
  index of each distinct ``(color, x, y)`` (0.0 and -0.0 equal);
- ``_ClassTree``: ``keys`` and ``pts`` are the stable sort of ``(color <<
  2 * depth) | code`` over those points;
- ``color_indices``: the stable sort of the colors as ``intp``, which for
  more than 2^16 colors is the path the sort takes (a closest build there
  would need arrays of t^2 entries, so its tree is not built here).

Inputs: coincident points within and across classes (signed zeros too),
distinct points that share a finest-level cell, integer lattices in
shuffled order, and the many-points benchmark shape; at the builder's own
depth and at coarse depths, where most codes tie.
"""

import math

import numpy as np
import pytest

from colorspan import ColoredPointSet
from colorspan.geometry import _ClosestTiers, _morton, _morton_distinct, _unit_scaled

from conftest import many_points


def coincident() -> ColoredPointSet:
    """Copies of points within their class and in other classes, with
    signed zeros among them, in shuffled order."""
    rng = np.random.default_rng(5)
    sites = rng.random((2, 120))
    pick = rng.integers(0, 120, 900)
    xs, ys = sites[:, pick]
    xs[:30], ys[:30] = 0.0, -0.0
    xs[30:60], ys[30:60] = -0.0, 0.0
    return ColoredPointSet(xs, ys, rng.integers(0, 6, 900), 6)


def shared_cells() -> ColoredPointSet:
    """Groups of distinct points 2^-45 apart at unit scale, so each group
    shares one cell at the finest depth, in classes of its own and mixed."""
    rng = np.random.default_rng(6)
    base = rng.random((2, 80)) * 0.9
    offsets = rng.integers(0, 8, (2, 800)) * math.ldexp(1.0, -45)
    xs, ys = base[:, rng.integers(0, 80, 800)] + offsets
    return ColoredPointSet(xs, ys, rng.integers(0, 4, 800), 4)


def lattice() -> ColoredPointSet:
    """A 30 x 30 integer lattice with random colors, in shuffled order."""
    rng = np.random.default_rng(7)
    order = rng.permutation(900)
    xs, ys = np.divmod(np.arange(900), 30)
    return ColoredPointSet(xs[order] * 1.0, ys[order] * 1.0, rng.integers(0, 8, 900), 8)


SETS = {
    "coincident": coincident,
    "shared cells": shared_cells,
    "lattice": lattice,
    "many-points": lambda: many_points(1, 0),
}


def stable_distinct(ps: ColoredPointSet, sx, sy, depth: int):
    """Reference: the points in the stable sort of their codes at
    ``depth``, each the lowest index of its ``(color, x, y)``, and their
    codes."""
    ix, iy = (
        np.floor(np.ldexp(c, depth - 1)).astype(np.int64) + (1 << depth - 1) for c in (sx, sy)
    )
    codes = _morton(ix, iy)
    first = {}
    for i, key in enumerate(zip(ps.colors.tolist(), ps.xs.tolist(), ps.ys.tolist())):
        first.setdefault(key, i)
    lowest = np.zeros(len(ps), dtype=bool)
    lowest[list(first.values())] = True
    order = np.argsort(codes, kind="stable")
    pts = order[lowest[order]]
    return pts, codes[pts]


@pytest.mark.parametrize("name", SETS)
def test_morton_distinct_is_the_stable_sort(name):
    ps = SETS[name]()
    sx, sy, _ = _unit_scaled(ps)
    for depth in (29, 12, 3):
        pts, codes, ix, iy = _morton_distinct(ps, sx, sy, depth)
        want_pts, want_codes = stable_distinct(ps, sx, sy, depth)
        assert pts.tolist() == want_pts.tolist()
        assert codes.tolist() == want_codes.tolist()
        assert codes.tolist() == _morton(ix, iy).tolist()
    # At depth 3 there are 64 cells: long runs of tied codes, whose order
    # the unstable sort leaves to the repair.
    assert len(set(codes.tolist())) <= 64 < len(codes)


def assert_tree_is_the_stable_sort(ps: ColoredPointSet):
    tiers = _ClosestTiers(ps, *_unit_scaled(ps))
    tree = tiers.tree
    keys = (ps.colors[tiers.pts].astype(np.int64) << 2 * tiers.depth) | tiers.codes
    order = np.argsort(keys, kind="stable")
    assert tree.keys.tolist() == keys[order].tolist()
    assert tree.pts.tolist() == tiers.pts[order].tolist()


@pytest.mark.parametrize("name", SETS)
def test_class_tree_is_the_stable_sort(name):
    assert_tree_is_the_stable_sort(SETS[name]())


def assert_classes_are_the_stable_sort(ps: ColoredPointSet):
    order = np.argsort(ps.colors.astype(np.intp), kind="stable")
    ends = np.cumsum(np.bincount(ps.colors, minlength=ps.num_colors))
    for color, (start, end) in enumerate(zip([0, *ends[:-1]], ends)):
        assert ps.color_indices(color).tolist() == order[start:end].tolist()


@pytest.mark.parametrize("name", SETS)
def test_color_indices_are_the_stable_sort(name):
    assert_classes_are_the_stable_sort(SETS[name]())


def test_more_colors_than_16_bits():
    rng = np.random.default_rng(8)
    t = (1 << 16) + 50
    colors = rng.permutation(np.concatenate((np.arange(t), rng.integers(0, t, 2000))))
    xs, ys = rng.random((2, len(colors)))
    ps = ColoredPointSet(xs, ys, colors, t)
    assert_classes_are_the_stable_sort(ps)
