import math

import numpy as np
import pytest

from colorspan import (
    ColoredPointSet,
    InvalidInstanceError,
    Matching,
    Objective,
    brute_force_geometric,
    build_closest_color_graph,
    build_farthest_color_graph,
    solve_maxmin,
    solve_minmax,
    solve_minsum,
)
from colorspan.generate import generate_points
from colorspan.geometry import _SCAN_CUTOFF, _outer_indices
from colorspan.render import render_svg

from conftest import exhaustive_color_extremes, farthest_scaled, outer_farthest_graph


def random_point_set(seed, n=30, t=6):
    return generate_points(n, t, seed)


def lattice_point_set(n, t, step, seed):
    """``n`` points of ``t`` colors on a 12 x 12 lattice of spacing
    ``step``: many coincident points and exactly tied distances."""
    rng = np.random.default_rng(seed)
    colors = rng.permutation(np.arange(n) % t)
    return ColoredPointSet(rng.integers(0, 12, n) * step, rng.integers(0, 12, n) * step, colors, t)


# Instances on both sides of the builders' scan cutoff.
SYMMETRY_INSTANCES = {
    "uniform-20-4": lambda: random_point_set(33, n=20, t=4),
    "uniform-40-4": lambda: generate_points(40, 4, 1),
    "clusters-cutoff-1-10": lambda: generate_points(_SCAN_CUTOFF - 1, 10, 2, "clusters"),
    "uniform-cutoff+1-4": lambda: generate_points(_SCAN_CUTOFF + 1, 4, 3),
    "clusters-1000-10": lambda: generate_points(1000, 10, 4, "clusters"),
    "lattice-third-cutoff+1-4": lambda: lattice_point_set(_SCAN_CUTOFF + 1, 4, 1 / 3, 5),
    "lattice-tenth-1000-10": lambda: lattice_point_set(1000, 10, 0.1, 6),
}
# Maps that multiply every distance exactly by a power of two (by one
# for the isometries), with that factor.
EXACT_SYMMETRIES = {
    "rotate-90": (lambda x, y: (-y, x), 1.0),
    "reflect-x": (lambda x, y: (x, -y), 1.0),
    "reflect-y": (lambda x, y: (-x, y), 1.0),
    "swap-xy": (lambda x, y: (y, x), 1.0),
    **{
        f"scale-2^{e}": (lambda x, y, f=math.ldexp(1.0, e): (x * f, y * f), math.ldexp(1.0, e))
        for e in (-1000, -60, -2, 1, 7, 10, 900)
    },
}


class TestColoredPointSet:
    def test_rejects_missing_color(self):
        with pytest.raises(InvalidInstanceError):
            ColoredPointSet([0, 1], [0, 1], [0, 0], 2)

    def test_rejects_out_of_range_color(self):
        with pytest.raises(InvalidInstanceError):
            ColoredPointSet([0, 1], [0, 1], [0, 2], 2)

    def test_rejects_single_color(self):
        with pytest.raises(InvalidInstanceError):
            ColoredPointSet([0], [0], [0], 1)

    def test_rejects_fewer_points_than_colors(self):
        with pytest.raises(InvalidInstanceError):
            ColoredPointSet([0, 1], [0, 0], [0, 1], 3)

    def test_coincident_points_of_different_colors_are_legal(self):
        ps = ColoredPointSet([1, 1], [1, 1], [0, 1], 2)
        assert build_closest_color_graph(ps).graph.weight(0, 1) == 0.0

    @pytest.mark.parametrize(
        "xs, ys, colors, t, message",
        [
            ([0.0, float("nan")], [0.0, 1.0], [0, 1], 2, "non-finite"),
            ([0.0, 1.0], [float("-inf"), 1.0], [0, 1], 2, "non-finite"),
            ([0.0, 1.0], [0.0, 1.0], [0, -1], 2, "negative color"),
            ([0.0, 1.0], [0.0, 1.0], [0, 2], 2, "out of range"),
            ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0, 0, 2], 3, r"never used: \[1\]$"),
            (
                [0.0] * 30, [0.0] * 30, [0] * 29 + [5], 30,
                r"never used: \[1, 2, 3, 4, 6, 7, 8, 9\] and 20 more$",
            ),
            ([0.0, 1.0], [0.0, 1.0], [0, 1], 3, "cannot cover"),
            ([0.0], [0.0], [0], 1, "at least two"),
            ([0.0, 1.0], [0.0], [0, 1], 2, "equal lengths"),
        ],
    )
    def test_array_validation(self, xs, ys, colors, t, message):
        with pytest.raises(InvalidInstanceError, match=message):
            ColoredPointSet(xs, ys, colors, t)

    def test_columns_are_read_only_copies(self):
        xs = np.array([0.0, 1.0])
        ps = ColoredPointSet(xs, [0.0, 1.0], [1, 0], 2)
        xs[0] = 5.0
        assert ps.xs[0] == 0.0
        for column in (ps.xs, ps.ys, ps.colors):
            assert not column.flags.writeable

    def test_classes_keep_input_order(self):
        ps = ColoredPointSet([0, 1, 2, 3, 4, 5], [0] * 6, [2, 0, 1, 0, 2, 0], 3)
        assert [ps.color_indices(c).tolist() for c in range(3)] == [[1, 3, 5], [2], [0, 4]]

    def test_points_view_matches_columns(self):
        ps = random_point_set(4, n=12, t=3)
        assert [(p.x, p.y, p.color) for p in ps.points] == list(
            zip(ps.xs.tolist(), ps.ys.tolist(), ps.colors.tolist())
        )

    @pytest.mark.parametrize("solve", [solve_minsum, solve_minmax, solve_maxmin])
    def test_solvers_never_build_point_objects(self, solve):
        ps = generate_points(400, 4, seed=8, distribution="clusters")
        got = solve(ps)
        render_svg(ps, got.edges, "value", 1.0)
        assert "points" not in vars(ps)


class TestColorGraphs:
    def test_two_color_closest_trivial(self):
        ps = ColoredPointSet([0, 3], [0, 4], [0, 1], 2)
        g = build_closest_color_graph(ps)
        assert g.graph.weight(0, 1) == 5.0
        assert g.witnesses == {(0, 1): (5.0, 0, 1)}

    def test_three_point_farthest_trivial(self):
        ps = ColoredPointSet([0, 1, 5], [0, 0, 0], [0, 0, 1], 2)
        assert build_farthest_color_graph(ps).graph.weight(0, 1) == 5.0

    @pytest.mark.parametrize("seed", range(6))
    def test_closest_matches_exhaustive_scan(self, seed):
        ps = random_point_set(seed)
        expected = exhaustive_color_extremes(ps, "closest")
        assert build_closest_color_graph(ps).witnesses == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_farthest_matches_exhaustive_scan(self, seed):
        ps = random_point_set(seed)
        expected = exhaustive_color_extremes(ps, "farthest")
        assert build_farthest_color_graph(ps).witnesses == expected

    def test_outer_point_filter_agrees_with_scan(self):
        ps = generate_points(500, 2, seed=11)
        expected = exhaustive_color_extremes(ps, "farthest")
        assert build_farthest_color_graph(ps).witnesses == expected

    def test_outer_point_filter_with_duplicate_points(self):
        rng = np.random.default_rng(3)
        first = rng.random((60, 2))
        pts = np.concatenate((first, first[:10], rng.random((60, 2))))
        ps = ColoredPointSet(pts[:, 0], pts[:, 1], [0] * 70 + [1] * 60, 2)
        expected = exhaustive_color_extremes(ps, "farthest")
        for g in (build_farthest_color_graph(ps), outer_farthest_graph(ps)):
            assert g.witnesses == expected

    def test_collinear_class_keeps_every_point(self):
        ps = ColoredPointSet([*range(40), 5], [0] * 40 + [7], [0] * 40 + [1], 2)
        expected = {(0, 1): (math.hypot(39.0 - 5.0, 0.0 - 7.0), 39, 40)}
        for g in (build_farthest_color_graph(ps), outer_farthest_graph(ps)):
            assert g.witnesses == expected

    def test_closest_never_exceeds_farthest(self):
        for seed in range(5):
            ps = random_point_set(seed, n=25, t=5)
            close = build_closest_color_graph(ps).graph
            far = build_farthest_color_graph(ps).graph
            for i in range(5):
                for j in range(i + 1, 5):
                    assert close.weight(i, j) <= far.weight(i, j)

    def test_closest_equals_farthest_iff_single_cross_distance(self):
        ps = ColoredPointSet([0, 3], [0, 4], [0, 1], 2)
        assert build_closest_color_graph(ps).graph == build_farthest_color_graph(ps).graph

    def test_weights_invariant_under_point_permutation(self):
        ps = random_point_set(21)
        rng = np.random.default_rng(5)
        perm = rng.permutation(len(ps))
        shuffled = ColoredPointSet(ps.xs[perm], ps.ys[perm], ps.colors[perm], ps.num_colors)
        for builder in (build_closest_color_graph, build_farthest_color_graph):
            assert builder(ps).graph == builder(shuffled).graph

    @pytest.mark.parametrize("symmetry", EXACT_SYMMETRIES)
    @pytest.mark.parametrize("instance", SYMMETRY_INSTANCES)
    def test_exact_symmetries_keep_every_witness(self, instance, symmetry):
        # Rotating by 90 degrees, reflecting, swapping the axes and
        # scaling by a power of two change no distance's rounding, so
        # every witness pair and every solver's matching must stay, with
        # each weight multiplied exactly by the factor.
        ps = SYMMETRY_INSTANCES[instance]()
        transform, factor = EXACT_SYMMETRIES[symmetry]
        moved = ColoredPointSet(*transform(ps.xs, ps.ys), ps.colors, ps.num_colors)
        for builder in (build_closest_color_graph, build_farthest_color_graph):
            witnesses = builder(ps).witnesses
            expected = {key: (d * factor, a, b) for key, (d, a, b) in witnesses.items()}
            assert builder(moved).witnesses == expected
        for solve in (solve_minsum, solve_maxmin, solve_minmax):
            m = solve(ps)
            assert solve(moved) == Matching(
                m.edges, m.total_weight * factor, m.min_edge_weight * factor,
                m.max_edge_weight * factor,
            )

    @pytest.mark.parametrize("seed", [16, 26, 27])
    def test_tiny_coordinates_keep_every_hull_vertex(self, seed):
        # At 1e-250 the outer-point filter must run on rescaled coordinates,
        # or it drops true hull vertices and maxmin misses the optimum.
        ps = generate_points(120, 4, seed=seed)
        tiny = ColoredPointSet(ps.xs * 1e-250, ps.ys * 1e-250, ps.colors, ps.num_colors)
        expected = exhaustive_color_extremes(tiny, "farthest")
        for g in (build_farthest_color_graph(tiny), outer_farthest_graph(tiny)):
            assert g.witnesses == expected
        solved = solve_maxmin(tiny).value(Objective.MAXMIN)
        (oracle,) = brute_force_geometric(tiny, (Objective.MAXMIN,))
        assert solved == oracle.value(Objective.MAXMIN)

    def test_dedup_keeps_lowest_index_and_equates_zero_signs(self):
        # 34 points on 17 coordinates, each first as (-0.0, y), then as
        # (0.0, y); the collinear class keeps every distinct point.
        xs = [-0.0, 0.0] * 17 + [3.0]
        ys = [float(k) for k in range(17) for _ in range(2)] + [0.0]
        ps = ColoredPointSet(xs, ys, [0] * 34 + [1], 2)
        outer = _outer_indices(ps, *farthest_scaled(ps))
        assert outer.tolist() == [*range(0, 34, 2), 34]
        expected = {(0, 1): (math.hypot(3.0, 16.0), 32, 34)}
        assert build_farthest_color_graph(ps).witnesses == expected

    def test_outer_point_filter_drops_interior_points(self):
        # A filter that kept every point would pass every other test.
        g = generate_points(500, 2, seed=11)
        ps = ColoredPointSet(np.append(g.xs, 2.0), np.append(g.ys, 2.0), [0] * 500 + [1], 2)
        outer = _outer_indices(ps, *farthest_scaled(ps))
        assert (ps.colors[outer] == 0).sum() < 100 and outer[-1] == 500

    def test_mixed_scale_classes_tie_inside_the_hull(self):
        # Color 0 is 2^60 times smaller than color 1, so from each color-1
        # point many color-0 points are at exactly the same float distance,
        # and the tie's lowest index, point 0, lies inside color 0's hull.
        rng = np.random.default_rng(0)
        big = rng.random((40, 2))
        small = np.ldexp(rng.random((120, 2)), -60)
        small[0] = 2**-61
        pts = np.concatenate((small, big))
        ps = ColoredPointSet(pts[:, 0], pts[:, 1], [0] * 120 + [1] * 40, 2)
        expected = (1.398737151086295, 0, 133)
        assert exhaustive_color_extremes(ps, "farthest")[(0, 1)] == expected
        for g in (build_farthest_color_graph(ps), outer_farthest_graph(ps)):
            assert g.witnesses == {(0, 1): expected}


def edge_heavy_point_set(kind: str, side: int, seed: int) -> ColoredPointSet:
    """Color 0 holds many points exactly on the edges of the octagon that
    the outer-point filter's first pass spans, in shuffled order.  Colors
    1 and 2 sit 1e10 times the class's width away from its center, in the
    four axis and the four diagonal directions: every point of the far
    edge ties in float distance, so each farthest witness is the tie's
    lowest index, often in the middle of an edge.

    ``lattice``: a ``side`` x ``side`` integer lattice.  ``runs``: the
    eight edges of an octagon with integer vertices, each a collinear run
    of ``2 * side`` points, around a coarse lattice inside it.
    ``duplicates``: the lattice with every point repeated up to three
    times.
    """
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2) * 1.0
    if kind == "lattice":
        cls = grid
    elif kind == "runs":
        m = side - 1
        corners = np.array(
            [(m / 3, 0), (2 * m / 3, 0), (m, m / 3), (m, 2 * m / 3),
             (2 * m / 3, m), (m / 3, m), (0, 2 * m / 3), (0, m / 3)]
        ).round()
        steps = np.arange(2 * side)[:, None] / (2 * side)
        runs = [u + steps * (v - u) for u, v in zip(corners, np.roll(corners, -1, axis=0))]
        inner = grid[np.abs(grid - m / 2).sum(axis=1) < m / 2]
        cls = np.concatenate([*runs, inner[::3]])
    else:
        cls = np.repeat(grid, rng.integers(1, 4, len(grid)), axis=0)
    cls = rng.permutation(cls)
    center, far = (side - 1) / 2, 1e10 * side
    angles = np.arange(8) * (np.pi / 4)
    pts = np.concatenate((cls, center + far * np.column_stack((np.cos(angles), np.sin(angles)))))
    colors = [0] * len(cls) + [1, 2] * 4
    return ColoredPointSet(pts[:, 0], pts[:, 1], colors, 3)


# Per kind, a side giving at most _SCAN_CUTOFF points, where only the
# outer-point graph runs the filter, and one giving more, where the
# builder does too.
SIDES = {"lattice": (9, 20), "runs": (9, 25), "duplicates": (7, 14)}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "kind, side",
    [(kind, side) for kind, sides in SIDES.items() for side in sides],
)
def test_two_pass_filter_keeps_points_on_the_octagon(kind, side, seed):
    ps = edge_heavy_point_set(kind, side, seed)
    expected = exhaustive_color_extremes(ps, "farthest")
    for g in (build_farthest_color_graph(ps), outer_farthest_graph(ps)):
        assert g.witnesses == expected
