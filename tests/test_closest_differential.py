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
builder's two candidate tiers get seeded cases of their own: color pairs
that only the grid pass settles and pairs that only the quadtree walk
does, a class in two far-apart blobs, closest distances at exact cell
sides, coincident points that force the grid to its finest level, and
mixed scales; the benchmark's instances are checked against a numpy block
reference.  The farthest graph is also built from the outer-point
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
from colorspan import geometry
from colorspan.generate import generate_points
from colorspan.geometry import _SCAN_CUTOFF, _ClosestTiers, _unit_scaled

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


def walked_pairs(monkeypatch) -> list:
    """The color pairs that each closest build hands to the quadtree walk,
    recorded through a wrapper on ``geometry._quadtree_pairs``."""
    walked = []

    def recording(*args, walk=geometry._quadtree_pairs):
        pi, pj = args[-2:]
        walked.extend(zip(pi.tolist(), pj.tolist()))
        return walk(*args)

    monkeypatch.setattr(geometry, "_quadtree_pairs", recording)
    return walked


class TestClosestTiers:
    def test_interleaved_classes_settle_in_the_grid(self, monkeypatch):
        # Uniform classes interleave: every color pair has a pair far
        # inside one cell side of the grid, so the walk never runs.
        walked = walked_pairs(monkeypatch)
        ps = generate_points(3000, 6, 5)
        assert build_closest_color_graph(ps).witnesses == block_closest_witnesses(ps)
        assert walked == []

    def test_far_clusters_settle_in_the_walk(self, monkeypatch):
        # Four tight clusters, one per color, far apart: no two colors
        # share or neighbour a grid cell, so the walk decides every pair.
        walked = walked_pairs(monkeypatch)
        rng = np.random.default_rng(3)
        points = np.concatenate([disc(rng, 150, 0.5, x) + (0, y) for x, y in
                                 ((0, 0), (10, 0), (0, 10), (10, 10))])
        colors = np.repeat(np.arange(4), 150)
        order = rng.permutation(len(colors))
        ps = ColoredPointSet(points[order, 0], points[order, 1], colors[order], 4)
        assert build_closest_color_graph(ps).witnesses == block_closest_witnesses(ps)
        assert sorted(walked) == [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def test_two_blob_class(self):
        # Each class has one blob near x = 0..1 and one at x = 20, where
        # the closest pairs are.  The blobs near x = 0..1 are about 0.8
        # apart, so a bound from them alone would take every pair of the
        # two blobs at x = 20 as a candidate.
        rng = np.random.default_rng(11)
        points = np.concatenate(
            [disc(rng, 1000, 0.1, 0), disc(rng, 1000, 0.3, 20),
             disc(rng, 1800, 0.1, 1), disc(rng, 200, 0.3, 20)]
        )
        colors = np.repeat([0, 0, 1, 1], [1000, 1000, 1800, 200])
        order = rng.permutation(len(colors))
        ps = ColoredPointSet(points[order, 0], points[order, 1], colors[order], 2)
        tiers = _ClosestTiers(ps, *_unit_scaled(ps))
        a, _ = tiers.candidates(tiers.upper)
        assert len(a) <= len(ps)
        assert build_closest_color_graph(ps).witnesses == block_closest_witnesses(ps)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("exponent", [-30, -7, 0, 9])
    def test_distances_at_cell_sides(self, exponent, seed):
        # Lattice points times a power of two: closest distances are
        # powers of two, the side of some grid level.  A third of the
        # points sit one ulp below their site, so float distances round
        # onto lattice distances that the exact ones exceed.
        rng = np.random.default_rng(seed)
        n = 400
        xs = rng.integers(0, 64, n).astype(float)
        ys = rng.integers(0, 64, n).astype(float)
        nudged = rng.random(n) < 1 / 3
        xs[nudged] = np.nextafter(xs[nudged], -np.inf)
        colors = np.r_[np.arange(4), rng.integers(0, 4, n - 4)]
        ps = ColoredPointSet(np.ldexp(xs, exponent), np.ldexp(ys, exponent), colors, 4)
        assert build_closest_color_graph(ps).witnesses == exhaustive_color_extremes(ps, "closest")

    def test_coincident_points_force_the_finest_level(self, monkeypatch):
        # 300 sites within 2^-39 of each other, each holding a point of
        # color 0 and one of color 1: they share one cell at every level
        # and exceed the pair cap there, so the grid runs at its finest
        # level.  Colors 2 and 3 hold six points each inside one finest
        # cell, one and a half cell sides apart, so the walk reaches the
        # finest level with 36 pairs in one node pair and must enumerate
        # them there.
        levels = []

        def recording(codes, ix, iy, level, depth, grid=geometry._grid):
            levels.append((level, depth))
            return grid(codes, ix, iy, level, depth)

        monkeypatch.setattr(geometry, "_grid", recording)
        walked = walked_pairs(monkeypatch)
        side = math.ldexp(1.0, -29)
        offsets = np.arange(300) * math.ldexp(1.0, -48)
        site_x = np.r_[0.25 + offsets, 0.25 + offsets]
        site_y = np.r_[0.25 + offsets[::-1], 0.25 + offsets[::-1]]
        six = np.arange(6) * math.ldexp(1.0, -40)
        xs = np.r_[site_x, 0.5 + side / 4 + six, 0.5 + 7 * side / 4 + six]
        ys = np.r_[site_y, 0.5 + six, 0.5 + six[::-1]]
        colors = np.repeat([0, 1, 2, 3], [300, 300, 6, 6])
        ps = ColoredPointSet(xs, ys, colors, 4)
        assert build_closest_color_graph(ps).witnesses == block_closest_witnesses(ps)
        level, depth = levels[-1]
        assert level == depth
        assert (2, 3) in walked

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [_SCAN_CUTOFF - 2, _SCAN_CUTOFF + 2, 2 * _SCAN_CUTOFF])
    def test_mixed_scales_across_the_cutoff(self, n, seed):
        # One pair near 1e6 and every other point within 1e-6 of the
        # origin: at unit scale that cluster is under 1e-12 wide, and the
        # exact pass on the original coordinates breaks the ties of its
        # unit-scaled distances.
        rng = np.random.default_rng(seed)
        xs = np.r_[1e6, 1e6 + 1, rng.random(n - 2) * 1e-6]
        ys = np.r_[0.0, 1.0, rng.random(n - 2) * 1e-6]
        colors = np.r_[0, 1, rng.integers(0, 3, n - 2)]
        colors[2] = 2
        ps = ColoredPointSet(xs, ys, colors, 3)
        assert build_closest_color_graph(ps).witnesses == exhaustive_color_extremes(ps, "closest")

    @pytest.mark.parametrize("far, side", [(1e6, 1e-6), (1e300, 1e-10)])
    def test_tiny_cluster_beside_far_points(self, monkeypatch, far, side):
        # Two points near ``far`` and 2000 within ``side`` of the origin.
        # At unit scale the cluster is under 1e-12 wide, and at 1e300 its
        # coordinates are subnormal there.  The closest cut has no
        # absolute slack beyond rounding, so only pairs near each color
        # pair's least distance reach the exact pass, not every
        # cross-color pair of the cluster.
        sizes = []

        def recording(ps, a, *args, exact=geometry._exact_edges):
            sizes.append(len(a))
            return exact(ps, a, *args)

        monkeypatch.setattr(geometry, "_exact_edges", recording)
        rng = np.random.default_rng(4)
        xs = np.r_[far, far, rng.random(2000) * side]
        ys = np.r_[0.0, far * 1e-6, rng.random(2000) * side]
        colors = np.r_[0, 1, rng.integers(0, 2, 2000)]
        ps = ColoredPointSet(xs, ys, colors, 2)
        assert build_closest_color_graph(ps).witnesses == block_closest_witnesses(ps)
        assert sizes == [sizes[0]] and sizes[0] < 100

    def test_subnormal_tie_inside_the_cut_in_the_walk(self, monkeypatch):
        # Two far classes of subnormal points, in units of 2^-1074.  The
        # pairs (0, 1) at distance sqrt(D^2 + 1) and (2, 3) at D tie once
        # exact distances round to the subnormal grid, and the lower
        # indexes win.  At unit scale (0, 1) is farther, by less than the
        # cut, and the walk meets it as a node pair of its own, which a
        # bound without the cut would drop.
        walked = walked_pairs(monkeypatch)
        rng = np.random.default_rng(8)
        d = 100_000
        far = rng.integers(20_000, 40_000, 300)
        xs = np.r_[0, d, 0, d, -far[:150], d + far[150:]]
        ys = np.r_[100_000, 100_001, 0, 0, rng.integers(0, 5000, 300)]
        colors = np.r_[0, 1, 0, 1, np.zeros(150, int), np.ones(150, int)]
        unit = math.ldexp(1.0, -1074)
        ps = ColoredPointSet(xs * unit, ys * unit, colors, 2)
        witnesses = build_closest_color_graph(ps).witnesses
        assert witnesses == {(0, 1): (d * unit, 0, 1)} == exhaustive_color_extremes(ps, "closest")
        assert walked == [(0, 1)]

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
