import itertools
import math
from collections import Counter

import pytest

from colorspan import (
    ColoredPointSet,
    InvalidInstanceError,
    Objective,
    VertexColoredGraph,
    brute_force_colorful_graph_matching,
    brute_force_geometric,
    build_closest_color_graph,
    build_farthest_color_graph,
    color_spanning_matching,
    solve_geometric,
    solve_k_multicolored_matching,
    solve_maxmin,
    solve_minmax,
    solve_minsum,
    stacked_rows_point_set,
    two_squares_point_set,
)
from colorspan.generate import (
    generate_colorful_matching_instance,
    generate_matching_instance,
    generate_points,
)
from colorspan.geometry import _SCAN_CUTOFF

EPS = 0.1
SOLVERS = {
    Objective.MINSUM: solve_minsum,
    Objective.MAXMIN: solve_maxmin,
    Objective.MINMAX: solve_minmax,
}


class TestTwoSquaresFixture:
    def test_minsum_value_and_pairs(self):
        got = solve_minsum(two_squares_point_set(EPS))
        assert got.total_weight == pytest.approx(2 - 2 * EPS, abs=1e-9)
        assert got.edges == ((0, 2), (1, 5))

    def test_maxmin_value(self):
        got = solve_maxmin(two_squares_point_set(EPS))
        assert got.min_edge_weight == pytest.approx(math.sqrt(2), abs=1e-9)
        assert got.total_weight == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert got.edges == ((0, 3), (1, 4))

    def test_objectives_separate(self):
        # The minsum and maxmin optima use different color-spanning sets.
        ps = two_squares_point_set(EPS)
        minsum = solve_minsum(ps)
        maxmin = solve_maxmin(ps)
        assert minsum.total_weight == pytest.approx(1.8, abs=1e-9)
        assert maxmin.min_edge_weight == pytest.approx(math.sqrt(2), abs=1e-9)
        assert {p for pair in minsum.edges for p in pair} != {
            p for pair in maxmin.edges for p in pair
        }

    def test_closest_graph_edge_weight(self):
        ps = two_squares_point_set(EPS)
        assert build_closest_color_graph(ps).graph.weight(0, 2) == pytest.approx(
            1 - EPS, abs=1e-12
        )

    def test_farthest_graph_edge_weight(self):
        ps = two_squares_point_set(EPS)
        assert build_farthest_color_graph(ps).graph.weight(0, 2) >= math.sqrt(2) - 1e-12


class TestColorSpanningPairs:
    # Two squares: points a..f have colors 0, 1, 2, 2, 3, 3.
    def test_pairs_are_canonical_and_weighted_by_distance(self):
        ps = two_squares_point_set(EPS)
        got = color_spanning_matching(ps, [(4, 1), (2, 0)])
        assert got.edges == ((0, 2), (1, 4))
        assert got.total_weight == ps.distance(0, 2) + ps.distance(1, 4)
        assert got == color_spanning_matching(ps, [(0, 2), (1, 4)])

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([], "cannot be empty"),
            ([(0, 2), (1, 6)], "invalid point pair"),
            ([(0, 2), (-1, 4)], "invalid point pair"),
            ([(0, 0), (1, 4)], "invalid point pair"),
            ([(0, 2), (3, 4)], "distinct colors"),
            ([(0, 2)], "cover every color"),
        ],
        ids=["empty", "index-too-large", "index-negative", "self-pair", "repeated-color",
             "missing-color"],
    )
    def test_invalid_pairs_rejected(self, pairs, message):
        with pytest.raises(InvalidInstanceError, match=message):
            color_spanning_matching(two_squares_point_set(EPS), pairs)


class TestStackedRowsFixture:
    def test_minsum_value(self):
        got = solve_minsum(stacked_rows_point_set(EPS))
        assert got.total_weight == pytest.approx(3.0, abs=1e-9)
        assert got.edges == ((0, 1), (2, 3))

    def test_minmax_value(self):
        got = solve_minmax(stacked_rows_point_set(EPS))
        assert got.max_edge_weight == pytest.approx(1.5 + EPS, abs=1e-9)
        assert got.total_weight == pytest.approx(3 + 2 * EPS, abs=1e-9)
        assert got.edges == ((2, 4), (3, 5))


class TestGeometricSolvers:
    def test_two_colors_single_pair(self):
        ps = ColoredPointSet([0, 3], [0, 4], [0, 1], 2)
        for solver in SOLVERS.values():
            got = solver(ps)
            assert got.edges == ((0, 1),)
            assert got.total_weight == 5.0

    def test_two_colors_extremes_differ(self):
        ps = ColoredPointSet([0, 1, 9], [0, 0, 0], [0, 1, 1], 2)
        assert solve_minsum(ps).total_weight == 1.0
        assert solve_minmax(ps).max_edge_weight == 1.0
        assert solve_maxmin(ps).min_edge_weight == 9.0

    def test_odd_color_count_rejected(self):
        ps = ColoredPointSet([0, 1, 2], [0, 0, 0], [0, 1, 2], 3)
        for solver in SOLVERS.values():
            with pytest.raises(InvalidInstanceError):
                solver(ps)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_oracle_on_random_instances(self, seed):
        k = (2, 3)[seed % 2]
        ps = generate_matching_instance(k, 8800 + seed)
        oracle = brute_force_geometric(ps, tuple(SOLVERS))
        for (objective, solver), expected in zip(SOLVERS.items(), oracle):
            got = solver(ps)
            assert got.value(objective) == pytest.approx(
                expected.value(objective), abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_matched_lengths_equal_color_graph_weights(self, seed):
        # Every matched pair realizes its color pair's extreme distance.
        ps = generate_matching_instance(3, 9900 + seed)
        closest = build_closest_color_graph(ps).graph
        farthest = build_farthest_color_graph(ps).graph
        for objective, solver in SOLVERS.items():
            got = solver(ps)
            graph = farthest if objective is Objective.MAXMIN else closest
            for a, b in got.edges:
                ca, cb = int(ps.colors[a]), int(ps.colors[b])
                d = math.hypot(
                    float(ps.xs[a]) - float(ps.xs[b]), float(ps.ys[a]) - float(ps.ys[b])
                )
                assert d == graph.weight(ca, cb)

    @pytest.mark.parametrize("seed", range(10))
    def test_minmax_minsum_relation(self, seed):
        # The largest edge of the minmax optimum is at least the average
        # edge of the minsum optimum, and k of it covers the minsum total.
        ps = generate_matching_instance(3, 9500 + seed)
        k = ps.num_colors // 2
        minsum = solve_minsum(ps).total_weight
        minmax = solve_minmax(ps).max_edge_weight
        assert minmax >= minsum / k - 1e-12
        assert minsum <= k * minmax + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_colors_covered_exactly(self, seed):
        ps = generate_matching_instance(2, 9700 + seed)
        for solver in SOLVERS.values():
            got = solver(ps)
            colors = [int(ps.colors[p]) for pair in got.edges for p in pair]
            assert sorted(colors) == list(range(ps.num_colors))


class TestSolveGeometric:
    @pytest.mark.parametrize(
        "n, t, seed, distribution",
        [
            (40, 4, 1, "uniform"),
            (_SCAN_CUTOFF, 6, 2, "clusters"),
            (_SCAN_CUTOFF + 1, 6, 3, "uniform"),
            (2000, 10, 4, "clusters"),
        ],
    )
    def test_every_ordered_subset_equals_the_single_solvers(
        self, build_counts, n, t, seed, distribution
    ):
        ps = generate_points(n, t, seed, distribution)
        single = {objective: solver(ps) for objective, solver in SOLVERS.items()}
        for size in (1, 2, 3):
            for objectives in itertools.permutations(SOLVERS, size):
                build_counts.clear()
                got = solve_geometric(ps, objectives)
                assert got == tuple(single[o] for o in objectives)
                closest = bool({Objective.MINSUM, Objective.MINMAX} & set(objectives))
                # Counters compare missing names as zero counts.
                assert build_counts == Counter(
                    build_closest_color_graph=closest,
                    build_farthest_color_graph=Objective.MAXMIN in objectives,
                )

    def test_objective_without_solver_rejected(self):
        with pytest.raises(InvalidInstanceError, match="'maxsum' has no solver"):
            solve_geometric(generate_matching_instance(2, 1), (Objective.MAXSUM,))


class TestKMulticoloredMatching:
    def test_four_vertex_example(self):
        g = VertexColoredGraph(
            4,
            [0, 1, 2, 3],
            [(0, 1), (2, 3), (0, 2), (1, 3)],
            4,
            [1.0, 2.0, 10.0, 10.0],
        )
        got = solve_k_multicolored_matching(g)
        assert got.total_weight == 3.0
        assert got.edges == ((0, 1), (2, 3))

    def test_tied_cross_edges_keep_the_smallest_oriented_pair(self):
        # Unweighted, so every cross edge of a color pair ties on weight.
        # Each pair's witness is the smallest (a, b) with a of the lower
        # color: (1, 3) beats (2, 0) and (2, 3) for colors 0 and 1, and
        # (5, 7) beats (6, 4) and (6, 7) for colors 2 and 3.  Ordering by
        # vertex id, or keeping the first or last edge seen, picks another.
        g = VertexColoredGraph(
            8,
            [1, 0, 0, 1, 3, 2, 2, 3],
            [(0, 2), (1, 2), (1, 3), (2, 3), (4, 6), (5, 7), (6, 7)],
            4,
        )
        got = solve_k_multicolored_matching(g)
        assert got.edges == ((1, 3), (5, 7))
        assert got.total_weight == 2.0

    def test_only_monochromatic_edges_is_infeasible(self):
        g = VertexColoredGraph(4, [0, 0, 1, 1], [(0, 1), (2, 3)], 2)
        assert solve_k_multicolored_matching(g) is None

    def test_odd_color_count_rejected(self):
        g = VertexColoredGraph(3, [0, 1, 2], [(0, 1)], 3)
        with pytest.raises(InvalidInstanceError):
            solve_k_multicolored_matching(g)

    def test_unoccupied_color_rejected(self):
        g = VertexColoredGraph(2, [0, 1], [(0, 1)], 4)
        with pytest.raises(InvalidInstanceError):
            solve_k_multicolored_matching(g)

    def test_unweighted_edges_count_as_unit(self):
        g = VertexColoredGraph(4, [0, 1, 2, 3], [(0, 1), (2, 3)], 4)
        got = solve_k_multicolored_matching(g)
        assert got.total_weight == 2.0

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_oracle_on_random_instances(self, seed):
        k = (2, 3)[seed % 2]
        g = generate_colorful_matching_instance(k, 6600 + seed)
        got = solve_k_multicolored_matching(g)
        expected = brute_force_colorful_graph_matching(g)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.total_weight == expected.total_weight
