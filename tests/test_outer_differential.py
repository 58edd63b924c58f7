"""The farthest builder's outer-point filter against the per-class
reference.

``_outer_indices`` runs the octagon pass per class with one bound per
ring edge, then the 32-direction pass once over the distinct survivors
of every class.  ``outer_reference`` (in ``conftest``) runs both passes
one class at a time with a per-point orientation bound.  The two must
keep the same points, in the same order, on every input: clustered and
uniform sets, t up to 500, coincident points with +0.0 and -0.0 within
and across classes, collinear classes, classes of one to three points
(rings under three vertices), lattices, the 1e-250 and 2^-60 mixed
scales, points inside a ring edge by less than the slack, which only the
slack term keeps, and two extremes tied exactly, where the ring must take
the lower index.
"""

import numpy as np
import pytest

from colorspan import ColoredPointSet
from colorspan.generate import generate_points
from colorspan.geometry import _outer_indices

from conftest import FAMILIES, farthest_scaled, many_points, outer_reference, varied_set


def assert_same_outer(ps: ColoredPointSet) -> np.ndarray:
    outer = _outer_indices(ps, *farthest_scaled(ps))
    expected = outer_reference(ps)
    assert outer.tolist() == expected.tolist()
    return outer


@pytest.mark.parametrize("seed", range(1, 4))
def test_many_points_instances(seed):
    for i in range(3):
        assert_same_outer(many_points(seed, i))


@pytest.mark.parametrize("seed", range(4 * len(FAMILIES)))
def test_varied_sets(seed):
    assert_same_outer(varied_set(seed))


@pytest.mark.parametrize(
    "n, t, distribution",
    [(2000, 2, "uniform"), (2000, 2, "clusters"), (5000, 500, "uniform"),
     (3000, 500, "clusters"), (1000, 500, "uniform")],
)
def test_generated_sets(n, t, distribution):
    assert_same_outer(generate_points(n, t, 7, distribution))


def test_signed_zeros_and_copies_within_and_across_classes():
    # Every point of class 0 has a copy in class 1, and half of them one
    # more in class 0 with the other sign of zero on each axis.
    rng = np.random.default_rng(5)
    base = np.round(rng.random((200, 2)) * 8) - 4.0
    base[:20] = 0.0
    signs = np.where(rng.random((100, 2)) < 0.5, -1.0, 1.0)
    copies = base[:100] * signs
    pts = np.concatenate((base, copies, base))
    colors = [0] * 300 + [1] * 200
    ps = ColoredPointSet(pts[:, 0], pts[:, 1], colors, 2)
    outer = assert_same_outer(ps)
    # Each class keeps its own copy of a shared coordinate.
    for c in (0, 1):
        kept = pts[outer[ps.colors[outer] == c]]
        assert len(np.unique(kept + 0.0, axis=0)) == len(kept)


def test_copy_ending_one_class_and_starting_the_next():
    # Sorted by color, then coordinates, class 0's last point and class
    # 1's first are both (0, 0): each class keeps its own copy, a vertex
    # of its ring.
    rng = np.random.default_rng(8)
    left, right = -rng.random((2, 50, 2)) - 0.1
    right = -right
    pts = np.concatenate((left, [(0.0, 0.0)], right, [(-0.0, 0.0)]))
    ps = ColoredPointSet(pts[:, 0], pts[:, 1], [0] * 51 + [1] * 51, 2)
    outer = assert_same_outer(ps)
    assert {50, 101} <= set(outer.tolist())


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (1.0, 3.0), (-2.0, 1.0)])
def test_collinear_classes(direction):
    rng = np.random.default_rng(2)
    steps = rng.integers(-60, 60, (3, 80)).astype(float)
    xs = np.concatenate([direction[0] * s + k for k, s in enumerate(steps)])
    ys = np.concatenate([direction[1] * s for s in steps])
    ps = ColoredPointSet(xs, ys, np.repeat(np.arange(3), 80), 3)
    outer = assert_same_outer(ps)
    # A collinear class's ring has two vertices, so every distinct point
    # stays.
    assert len(outer) == sum(len(np.unique(s)) for s in steps)


@pytest.mark.parametrize("seed", range(3))
def test_classes_of_one_to_three_points(seed):
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 3, 3, 2, 1, 400, 3]
    colors = np.repeat(np.arange(len(sizes)), sizes)
    xs, ys = rng.random((2, len(colors)))
    # Class 4's two points coincide, and class 3's three are collinear.
    xs[[3, 4, 5]], ys[[3, 4, 5]] = (0.1, 0.2, 0.3), (0.5, 0.5, 0.5)
    xs[10], ys[10] = xs[9], ys[9]
    ps = ColoredPointSet(xs, ys, colors, len(sizes))
    outer = assert_same_outer(ps)
    small = ps.colors[outer] != 6
    assert outer[small].tolist() == [i for i in range(len(colors)) if colors[i] != 6 and i != 10]


@pytest.mark.parametrize("side", [3, 12, 40])
def test_lattices(side):
    rng = np.random.default_rng(side)
    n = 4 * side * side
    colors = rng.permutation(np.arange(n) % 4)
    xs, ys = rng.integers(0, side, (2, n)).astype(float)
    assert_same_outer(ColoredPointSet(xs, ys, colors, 4))


@pytest.mark.parametrize("scale", [1e-250, 2.0**-60])
def test_mixed_scales(scale):
    # One class at ``scale`` and one at unit scale: the small class's
    # products underflow at 1e-250 and sit far below the slack at 2^-60.
    rng = np.random.default_rng(0)
    small = rng.random((300, 2)) * scale
    big = rng.random((300, 2))
    pts = np.concatenate((small, big))
    ps = ColoredPointSet(pts[:, 0], pts[:, 1], [0] * 300 + [1] * 300, 2)
    outer = assert_same_outer(ps)
    assert (ps.colors[outer] == 0).sum() == 300


@pytest.mark.parametrize("exponent", [0, -40, 40, -1060])
def test_points_inside_an_edge_by_less_than_the_slack(exponent):
    # A square of side 1.8 at unit scale, with runs of points inside its
    # bottom edge by 1e-13 (under the slack of about 1e-12, so kept) and
    # by 1e-11 (dropped), scaled by an exact power of two.
    rng = np.random.default_rng(4)
    corners = np.array([(-0.9, -0.9), (0.9, -0.9), (0.9, 0.9), (-0.9, 0.9)])
    xs = rng.uniform(-0.5, 0.5, 60)
    near = np.column_stack((xs[:30], np.full(30, -0.9 + 1e-13)))
    deep = np.column_stack((xs[30:], np.full(30, -0.9 + 1e-11)))
    cls = np.concatenate((corners, near, deep))
    far = np.array([(0.0, 0.5), (0.5, 0.0)])
    pts = np.ldexp(np.concatenate((cls, far)), exponent)
    ps = ColoredPointSet(pts[:, 0], pts[:, 1], [0] * len(cls) + [1, 1], 2)
    outer = assert_same_outer(ps)
    if exponent > -1060:
        assert outer.tolist() == [*range(34), len(cls), len(cls) + 1]


def test_tied_extremes_take_the_lowest_index():
    # Points 0 and 1 tie exactly in the direction (1, 0), and the
    # neighbouring directions pick points 2 and 3 off that line.  The ring
    # through point 0 keeps point 8, which lies inside every edge of the
    # ring through point 1.
    pts = [(1, -0.5), (1, 0.5), (0.9, -1.5), (0.9, 1.5),
           (-1, -0.5), (-1, 0.5), (-0.9, -1.5), (-0.9, 1.5), (0.99, 0.49), (5, 5)]
    xs, ys = np.array(pts).T
    ps = ColoredPointSet(xs, ys, [0] * 9 + [1], 2)
    assert 8 in assert_same_outer(ps).tolist()
