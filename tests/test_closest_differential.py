"""The closest and farthest color graph builders against the exhaustive
pair scan.

Inputs cover what the accelerated candidate passes could get wrong:
coordinates scaled by 2^-1000 to 2^1000, integer lattices and duplicate
points (exact ties that only the index tie-break settles), collinear and
single-point classes, circles on which every point is a hull vertex,
classes at scales up to 2^1000 apart (float ties that exact distances
would break), set sizes on both sides of the full-scan cutoff and class
sizes on both sides of the bound sampling stride and of the 32 outer-point
filter directions.  The farthest graph is also built from the outer-point
candidates at every set size, so the filter meets every input as well.
All-subnormal sets, whose exact distances tie on the 2^-1074 grid, get
seeded cases of their own on both sides of the cutoff.
"""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorspan import ColoredPointSet, build_closest_color_graph, build_farthest_color_graph
from colorspan.geometry import _SAMPLE_STRIDE, _SCAN_CUTOFF

from conftest import exhaustive_color_extremes, outer_farthest_graph

CLASS_SIZES = st.sampled_from(
    [
        1,
        2,
        _SAMPLE_STRIDE - 1,
        _SAMPLE_STRIDE,
        _SAMPLE_STRIDE + 1,
        31,
        32,
        33,
        3 * _SAMPLE_STRIDE + 5,
    ]
)


@st.composite
def extreme_instances(draw):
    t = draw(st.integers(2, 5))
    sizes = [draw(CLASS_SIZES) for _ in range(t - 1)]
    total = draw(
        st.one_of(
            st.integers(len(sizes) + 1, _SCAN_CUTOFF),
            st.integers(_SCAN_CUTOFF + 1, _SCAN_CUTOFF + 40),
        )
    )
    sizes.append(max(1, total - sum(sizes)))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["uniform", "lattice", "collinear", "circle"]))
    if layout == "uniform":
        xs, ys = rng.random(n), rng.random(n)
    elif layout == "lattice":
        side = draw(st.integers(1, 12))
        xs = rng.integers(0, side, n).astype(float)
        ys = rng.integers(0, side, n).astype(float)
    elif layout == "collinear":
        xs = rng.integers(-50, 50, n).astype(float)
        ys = 3.0 * xs
    else:
        angles = rng.random(n) * (2 * np.pi)
        xs, ys = np.cos(angles), np.sin(angles)
    if draw(st.booleans()):
        # Copy some points onto others, across classes as well.
        dup = rng.integers(0, n, n // 4)
        src = rng.integers(0, n, n // 4)
        xs[dup], ys[dup] = xs[src], ys[src]
    colors = rng.permutation(np.repeat(np.arange(t), sizes))
    exponent = draw(st.integers(-1000, 1000))
    if draw(st.booleans()):
        # One scale per class instead: from a large class, the points of a
        # small one are often at exactly the same float distance.
        exponent = np.array([draw(st.integers(-500, 500)) for _ in range(t)])[colors]
    return ColoredPointSet(np.ldexp(xs, exponent), np.ldexp(ys, exponent), colors, t)


class TestClosestMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(extreme_instances())
    def test_witnesses_equal_the_scan(self, ps):
        for graph, mode in (
            (build_closest_color_graph(ps), "closest"),
            (build_farthest_color_graph(ps), "farthest"),
            (outer_farthest_graph(ps), "farthest"),
        ):
            for (i, j), (d, a, b) in exhaustive_color_extremes(ps, mode).items():
                w = graph.witness(i, j)
                assert (mode, w.distance, w.point_a, w.point_b) == (mode, d, a, b)

    def test_coincident_points_on_few_sites(self):
        # 80000 points on 25 lattice sites, shared by two colors.  Without
        # deduplicating each class, the candidate pairs at distance 0 grow
        # with the square of the points per site.
        n = 80_000
        rng = np.random.default_rng(4)
        site = rng.integers(0, 25, n)
        colors = rng.integers(0, 2, n)
        colors[:2] = 0, 1
        ps = ColoredPointSet((site % 5).astype(float), (site // 5).astype(float), colors, 2)
        start = time.perf_counter()
        w = build_closest_color_graph(ps).witness(0, 1)
        assert time.perf_counter() - start < 10.0
        # The lowest color-0 index at a site that color 1 also occupies,
        # then the lowest color-1 index at that site.
        shared = set(site[colors == 0].tolist()) & set(site[colors == 1].tolist())
        a = min(i for i in range(n) if colors[i] == 0 and site[i] in shared)
        b = min(i for i in range(n) if colors[i] == 1 and site[i] == site[a])
        assert (w.distance, w.point_a, w.point_b) == (0.0, a, b)


def subnormal_instance(seed: int, low: int, high: int) -> ColoredPointSet:
    """Every coordinate below 2^-1039, most of them subnormal."""
    rng = random.Random(seed)
    n = rng.randint(low, high)
    t = rng.randint(2, 4)
    e = rng.randint(-1074, -1040)
    xs = [math.ldexp(rng.random(), e) for _ in range(n)]
    ys = [math.ldexp(rng.random(), e) for _ in range(n)]
    colors = list(range(t)) + [rng.randrange(t) for _ in range(n - t)]
    return ColoredPointSet(xs, ys, colors, t)


class TestSubnormalTies:
    # Exact distances round to the subnormal grid and tie where the
    # unit-scaled candidate distances differ, so a cut without subnormal
    # slack drops the tied pair with the lower indexes.
    @pytest.mark.parametrize(
        "seed, low, high",
        [(s, 8, 40) for s in range(60)]
        + [(s, _SCAN_CUTOFF + 4, _SCAN_CUTOFF + 144) for s in range(30)],
    )
    def test_witnesses_equal_the_scan(self, seed, low, high):
        ps = subnormal_instance(seed, low, high)
        for graph, mode in (
            (build_closest_color_graph(ps), "closest"),
            (build_farthest_color_graph(ps), "farthest"),
            (outer_farthest_graph(ps), "farthest"),
        ):
            for (i, j), (d, a, b) in exhaustive_color_extremes(ps, mode).items():
                w = graph.witness(i, j)
                assert (mode, w.distance, w.point_a, w.point_b) == (mode, d, a, b)
