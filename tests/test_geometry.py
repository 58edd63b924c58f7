import math

import numpy as np
import pytest

from colorspan import (
    ColoredPointSet,
    InvalidInstanceError,
    Objective,
    brute_force_geometric,
    build_closest_color_graph,
    build_farthest_color_graph,
    solve_maxmin,
    solve_minmax,
    solve_minsum,
)
from colorspan.generate import generate_points
from colorspan.geometry import _outer_indices, _unit_scaled
from colorspan.render import render_svg

from conftest import exhaustive_color_extremes, outer_farthest_graph


def random_point_set(seed, n=30, t=6):
    return generate_points(n, t, seed)


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

    @pytest.mark.parametrize("scale", [0.25, 2.0, 1024.0])
    def test_power_of_two_scaling_is_exact(self, scale):
        ps = random_point_set(33, n=20, t=4)
        scaled = ColoredPointSet(ps.xs * scale, ps.ys * scale, ps.colors, ps.num_colors)
        for builder in (build_closest_color_graph, build_farthest_color_graph):
            witnesses = builder(ps).witnesses
            expected = {key: (d * scale, a, b) for key, (d, a, b) in witnesses.items()}
            assert builder(scaled).witnesses == expected

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
        assert solved == brute_force_geometric(tiny, Objective.MAXMIN).value(Objective.MAXMIN)

    def test_dedup_keeps_lowest_index_and_equates_zero_signs(self):
        # 34 points on 17 coordinates, each first as (-0.0, y), then as
        # (0.0, y); the collinear class keeps every distinct point.
        xs = [-0.0, 0.0] * 17 + [3.0]
        ys = [float(k) for k in range(17) for _ in range(2)] + [0.0]
        ps = ColoredPointSet(xs, ys, [0] * 34 + [1], 2)
        outer = _outer_indices(ps, ps.color_indices(0), *_unit_scaled(ps))
        assert outer.tolist() == list(range(0, 34, 2))
        expected = {(0, 1): (math.hypot(3.0, 16.0), 32, 34)}
        assert build_farthest_color_graph(ps).witnesses == expected

    def test_outer_point_filter_drops_interior_points(self):
        # A filter that kept every point would pass every other test.
        g = generate_points(500, 2, seed=11)
        ps = ColoredPointSet(np.append(g.xs, 2.0), np.append(g.ys, 2.0), [0] * 500 + [1], 2)
        assert len(_outer_indices(ps, ps.color_indices(0), *_unit_scaled(ps))) < 100

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
