"""The closest and farthest color graph builders against the exhaustive
pair scan.

Inputs cover what the accelerated candidate passes could get wrong:
coordinates scaled by 2^-1000 to 2^1000, integer lattices and duplicate
points (exact ties that only the index tie-break settles), collinear and
single-point classes, circles on which every point is a hull vertex,
separated clusters and concentric rings (a ring's centroid is far from all
of its points, so the point facing another class says little about it),
classes at scales up to 2^1000 apart (float ties that exact distances
would break), set sizes on both sides of the full-scan cutoff and class
sizes on both sides of the 32 outer-point filter directions.  The closest
bounds' sampling stride gets seeded cases of its own, as does a class in
two far-apart blobs, and the benchmark's instances are checked against a
numpy block reference.  The farthest graph is also built from the
outer-point candidates at every set size, so the filter meets every input
as well.  All-subnormal sets, whose exact distances tie on the 2^-1074
grid, get seeded cases of their own on both sides of the cutoff.
"""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorspan import ColoredPointSet, build_closest_color_graph, build_farthest_color_graph
from colorspan.generate import generate_points
from colorspan.geometry import _SAMPLE_STRIDE, _SCAN_CUTOFF, _dual_tree_candidates, _unit_scaled

from conftest import exhaustive_color_extremes, outer_farthest_graph

CLASS_SIZES = st.sampled_from([1, 2, 15, 16, 17, 31, 32, 33, 53])
LAYOUTS = st.sampled_from(["uniform", "lattice", "collinear", "circle", "clusters", "rings"])


def layout_points(layout: str, colors: np.ndarray, rng, side: int):
    """Coordinates for points of the given colors; ``side`` is the lattice
    width."""
    n = len(colors)
    if layout == "uniform":
        return rng.random(n), rng.random(n)
    if layout == "lattice":
        return rng.integers(0, side, n).astype(float), rng.integers(0, side, n).astype(float)
    if layout == "collinear":
        xs = rng.integers(-50, 50, n).astype(float)
        return xs, 3.0 * xs
    angles = rng.random(n) * (2 * np.pi)
    if layout == "circle":
        return np.cos(angles), np.sin(angles)
    if layout == "rings":
        # One circle per class around a common center.
        return (colors + 1) * np.cos(angles), (colors + 1) * np.sin(angles)
    # One separated Gaussian per class.
    centers = rng.random((colors.max() + 1, 2)) * 20
    return (
        centers[colors, 0] + rng.normal(0, 0.5, n),
        centers[colors, 1] + rng.normal(0, 0.5, n),
    )


@st.composite
def extreme_instances(draw):
    t = draw(st.integers(2, 5))
    sizes = [draw(CLASS_SIZES) for _ in range(t - 1)]
    total = draw(
        st.one_of(
            st.integers(len(sizes) + 1, max(_SCAN_CUTOFF, len(sizes) + 1)),
            st.integers(_SCAN_CUTOFF + 1, _SCAN_CUTOFF + 40),
        )
    )
    sizes.append(max(1, total - sum(sizes)))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    colors = rng.permutation(np.repeat(np.arange(t), sizes))
    xs, ys = layout_points(draw(LAYOUTS), colors, rng, draw(st.integers(1, 12)))
    if draw(st.booleans()):
        # Copy some points onto others, across classes as well.
        dup = rng.integers(0, n, n // 4)
        src = rng.integers(0, n, n // 4)
        xs[dup], ys[dup] = xs[src], ys[src]
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
            assert (mode, graph.witnesses) == (mode, exhaustive_color_extremes(ps, mode))

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
        witnesses = build_closest_color_graph(ps).witnesses
        assert time.perf_counter() - start < 10.0
        # The lowest color-0 index at a site that color 1 also occupies,
        # then the lowest color-1 index at that site.
        shared = set(site[colors == 0].tolist()) & set(site[colors == 1].tolist())
        a = min(i for i in range(n) if colors[i] == 0 and site[i] in shared)
        b = min(i for i in range(n) if colors[i] == 1 and site[i] == site[a])
        assert witnesses == {(0, 1): (0.0, a, b)}


def block_closest_witnesses(ps: ColoredPointSet):
    """Reference closest color graph witnesses: for each color pair, numpy
    distances over the whole block of its two classes, then the lowest
    exact ``(distance, a, b)`` among the entries within 1e-9 relative of
    the block's minimum."""
    out = {}
    for i in range(ps.num_colors):
        for j in range(i + 1, ps.num_colors):
            a, b = ps.color_indices(i), ps.color_indices(j)
            block = np.hypot(ps.xs[a, None] - ps.xs[b], ps.ys[a, None] - ps.ys[b])
            rows, cols = np.nonzero(block <= block.min() * (1 + 1e-9))
            out[(i, j)] = min(
                (ps.distance(p, q), p, q) for p, q in zip(a[rows].tolist(), b[cols].tolist())
            )
    return out


def disc(rng, m: int, radius: float, x: float) -> np.ndarray:
    """``m`` uniform points in the disc of ``radius`` around ``(x, 0)``."""
    angles = rng.random(m) * (2 * np.pi)
    radii = radius * np.sqrt(rng.random(m))
    return np.column_stack((x + radii * np.cos(angles), radii * np.sin(angles)))


class TestClosestBounds:
    @pytest.mark.parametrize("layout", ["uniform", "clusters", "rings"])
    @pytest.mark.parametrize("size", [_SAMPLE_STRIDE - 1, _SAMPLE_STRIDE, _SAMPLE_STRIDE + 1])
    def test_class_sizes_around_the_sample_stride(self, size, layout):
        rng = np.random.default_rng(size)
        colors = rng.permutation(np.repeat(np.arange(3), size))
        ps = ColoredPointSet(*layout_points(layout, colors, rng, 1), colors, 3)
        assert build_closest_color_graph(ps).witnesses == exhaustive_color_extremes(ps, "closest")

    def test_two_blob_class(self):
        # Each class has one blob near x = 0..1 and one at x = 20, where
        # the closest pairs are.  Both facing points lie near x = 0..1,
        # about 0.8 from the other class, so bounds from facing points
        # alone take every pair of the two blobs at x = 20 as a candidate.
        rng = np.random.default_rng(11)
        points = np.concatenate(
            [disc(rng, 1000, 0.1, 0), disc(rng, 1000, 0.3, 20),
             disc(rng, 1800, 0.1, 1), disc(rng, 200, 0.3, 20)]
        )
        colors = np.repeat([0, 0, 1, 1], [1000, 1000, 1800, 200])
        order = rng.permutation(len(colors))
        ps = ColoredPointSet(points[order, 0], points[order, 1], colors[order], 2)
        a, _ = _dual_tree_candidates(ps, *_unit_scaled(ps))
        assert len(a) <= len(ps)
        assert build_closest_color_graph(ps).witnesses == block_closest_witnesses(ps)

    @pytest.mark.parametrize("i", range(3))
    def test_benchmark_instances(self, i):
        # The seed-1 instances of the many-points benchmark workload.
        ps = generate_points(10_000, 20, 1_000_003 + i, "clusters")
        assert build_closest_color_graph(ps).witnesses == block_closest_witnesses(ps)


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
            assert (mode, graph.witnesses) == (mode, exhaustive_color_extremes(ps, mode))
