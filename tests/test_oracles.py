import ast
import inspect
import itertools
import math
import textwrap

import numpy as np
import pytest

from colorspan import (
    BudgetExceededError,
    InvalidInstanceError,
    ColoredPointSet,
    Matching,
    Objective,
    VertexColoredGraph,
    WeightedGraph,
    brute_force_colorful_graph_matching,
    brute_force_geometric,
    brute_force_graph_matching,
    oracles,
    pairing_count,
    solve_geometric,
    solve_k_multicolored_matching,
    stacked_rows_point_set,
    two_squares_point_set,
)
from colorspan.generate import generate_matching_instance, generate_points
from colorspan.oracles import _pairing_slots

from conftest import perfect_pairings

EPS = 0.1


def naive_geometric_optimum(ps, objective):
    """Plain-itertools re-enumeration, independent of the numpy oracle."""
    classes = [ps.color_indices(c).tolist() for c in range(ps.num_colors)]
    xs, ys = ps.xs.tolist(), ps.ys.tolist()
    best = None
    maximize = objective in (Objective.MAXSUM, Objective.MAXMIN)
    for reps in itertools.product(*classes):
        for pairing in perfect_pairings(range(ps.num_colors)):
            dists = [
                math.hypot(xs[reps[a]] - xs[reps[b]], ys[reps[a]] - ys[reps[b]])
                for a, b in pairing
            ]
            if objective in (Objective.MINSUM, Objective.MAXSUM):
                value = sum(dists)
            elif objective is Objective.MINMAX:
                value = max(dists)
            else:
                value = min(dists)
            if best is None or (value > best if maximize else value < best):
                best = value
    return best


class TestPairings:
    def test_counts(self):
        assert pairing_count(2) == 1
        assert pairing_count(4) == 3
        assert pairing_count(6) == 15
        assert pairing_count(8) == 105
        assert pairing_count(3) == 0

    def test_enumeration_matches_count(self):
        for m in (2, 4, 6, 8):
            rows = _pairing_slots(m).tolist()
            assert len(rows) == pairing_count(m)
            assert len(set(map(tuple, rows))) == len(rows)

    def test_rows_pair_every_color_once_in_lexicographic_order(self):
        for m in (2, 4, 6, 8):
            pairs = list(itertools.combinations(range(m), 2))
            pairings = [[pairs[i] for i in row] for row in _pairing_slots(m).tolist()]
            for pairing in pairings:
                assert sorted(c for pair in pairing for c in pair) == list(range(m))
                assert pairing == sorted(pairing)
            assert pairings == sorted(pairings)

    def test_table_is_cached_read_only_and_narrow(self):
        table = _pairing_slots(8)
        assert _pairing_slots(8) is table
        assert not table.flags.writeable
        assert table.dtype == np.uint8
        with pytest.raises(ValueError):
            table[0, 0] = 1


class TestGeometricOracle:
    def test_two_squares_maxsum(self):
        (got,) = brute_force_geometric(two_squares_point_set(EPS), (Objective.MAXSUM,))
        assert got.total_weight == pytest.approx(1 + math.sqrt(5), abs=1e-9)
        assert got.edges == ((0, 1), (3, 4))

    def test_stacked_rows_minsum_is_three(self):
        (got,) = brute_force_geometric(stacked_rows_point_set(EPS), (Objective.MINSUM,))
        assert got.total_weight == pytest.approx(3.0, abs=1e-9)

    def test_two_points_every_objective(self):
        ps = ColoredPointSet([0, 3], [0, 4], [0, 1], 2)
        for objective, got in zip(Objective, brute_force_geometric(ps, tuple(Objective))):
            assert got.value(objective) == 5.0

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_naive_enumeration(self, seed, k):
        ps = generate_matching_instance(k, 7700 + seed, max_class_size=3)
        for objective, got in zip(Objective, brute_force_geometric(ps, tuple(Objective))):
            assert got.value(objective) == pytest.approx(
                naive_geometric_optimum(ps, objective), abs=1e-12
            )

    def test_budget_exceeded(self):
        ps = generate_points(50, 20, seed=1)
        with pytest.raises(BudgetExceededError):
            brute_force_geometric(ps, (Objective.MINSUM,), max_states=1000)

    def test_relabeling_invariance(self):
        ps = generate_matching_instance(2, 42)
        relabeled = ColoredPointSet(ps.xs, ps.ys, ps.num_colors - 1 - ps.colors, ps.num_colors)
        before = brute_force_geometric(ps, tuple(Objective))
        after = brute_force_geometric(relabeled, tuple(Objective))
        for objective, a, b in zip(Objective, before, after):
            assert a.value(objective) == pytest.approx(b.value(objective), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_minsum_at_most_maxsum(self, seed):
        ps = generate_matching_instance(3, 500 + seed)
        lo, hi = brute_force_geometric(ps, (Objective.MINSUM, Objective.MAXSUM))
        assert lo.total_weight <= hi.total_weight


class TestOverflowingDistances:
    # Colors 0 and 1 sit near the origin.  In "far apart" every distance
    # between colors 2 and 3 is 2e308; in "split" only their farthest one
    # is, their closest being 1.
    INSTANCES = {
        "far apart": ([0, 1, -1e308, -1e308, 1e308, 1e308], [0, 0, 0, 1, 0, 1]),
        "split": ([0, 1, -1e308, 0, 1e308, 0], [0, 0, 0, 5, 0, 6]),
    }

    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("name", INSTANCES)
    def test_rejection_names_the_pair_of_higher_colors(self, name, objective):
        xs, ys = self.INSTANCES[name]
        ps = ColoredPointSet(xs, ys, [0, 1, 2, 2, 3, 3], 4)
        if name == "split" and not objective.maximize:
            (got,) = brute_force_geometric(ps, (objective,))
            assert got.edges == ((0, 1), (3, 5))
            return
        message = "the distance between colors 2 and 3 exceeds the float range"
        with pytest.raises(InvalidInstanceError, match=message):
            brute_force_geometric(ps, (objective,))

    def test_distance_overflowing_within_one_color_is_answered(self):
        # Color 0's two points are 2e308 apart; no bichromatic distance
        # overflows, nor any matching's total.
        ps = ColoredPointSet(
            [1e308, -1e308, 1e300, 2e300, 3e300], [0, 0, 0, 1e300, -1e300], [0, 0, 1, 2, 3], 4
        )
        objectives = (Objective.MINSUM, Objective.MAXMIN, Objective.MINMAX)
        for objective, expected, got in zip(
            objectives, brute_force_geometric(ps, objectives), solve_geometric(ps, objectives)
        ):
            assert expected.value(objective) == got.value(objective)
        (maxsum,) = brute_force_geometric(ps, (Objective.MAXSUM,))
        assert math.isfinite(maxsum.total_weight)


class TestGraphOracle:
    def test_k4_canonical_minsum(self):
        g = WeightedGraph(
            4,
            [(0, 1, 1.0), (2, 3, 1.0), (0, 2, 2.0), (1, 3, 2.0), (0, 3, 5.0), (1, 2, 5.0)],
        )
        got = brute_force_graph_matching(g, Objective.MINSUM)
        assert got.total_weight == 2.0

    def test_odd_vertex_count_infeasible(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert brute_force_graph_matching(g, Objective.MINSUM) is None

    def test_budget_exceeded(self):
        g = WeightedGraph(20, [(u, v, 1.0) for u in range(20) for v in range(u + 1, 20)])
        with pytest.raises(BudgetExceededError):
            brute_force_graph_matching(g, Objective.MINSUM, max_states=100)

    @pytest.mark.parametrize("seed", range(4))
    def test_vertex_relabeling_invariance(self, seed):
        import numpy as np

        from colorspan.generate import generate_complete_weighted_graph

        g = generate_complete_weighted_graph(8, 880 + seed)
        perm = list(np.random.default_rng(seed).permutation(8))
        relabeled = WeightedGraph(
            8, [(perm[u], perm[v], w) for u, v, w in g.edges]
        )
        for objective in Objective:
            a = brute_force_graph_matching(g, objective)
            b = brute_force_graph_matching(relabeled, objective)
            assert a.value(objective) == pytest.approx(b.value(objective), abs=1e-12)


class TestColorfulGraphOracle:
    def test_four_vertex_example(self):
        g = VertexColoredGraph(
            4,
            [0, 1, 2, 3],
            [(0, 1), (2, 3), (0, 2), (1, 3)],
            4,
            [1.0, 2.0, 10.0, 10.0],
        )
        assert brute_force_colorful_graph_matching(g).total_weight == 3.0

    def test_all_monochromatic_is_infeasible(self):
        g = VertexColoredGraph(4, [0, 0, 1, 1], [(0, 1), (2, 3)], 2)
        assert brute_force_colorful_graph_matching(g) is None

    @pytest.mark.parametrize(
        "g, message",
        [
            (VertexColoredGraph(3, [0, 1, 2], [], 3), "even, positive color count, got 3"),
            (VertexColoredGraph(0, [], [], 0), "even, positive color count, got 0"),
            (
                VertexColoredGraph(4, [0, 1, 2, 2], [(0, 1), (2, 3)], 4),
                r"colors without vertices: \[3\]",
            ),
        ],
    )
    def test_rejects_what_the_solver_rejects(self, g, message):
        for search in (brute_force_colorful_graph_matching, solve_k_multicolored_matching):
            with pytest.raises(InvalidInstanceError, match=message):
                search(g)

    def test_budget_exceeded(self):
        n = 16
        colors = [i % 4 for i in range(n)]
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = VertexColoredGraph(n, colors, edges, 4)
        with pytest.raises(BudgetExceededError):
            brute_force_colorful_graph_matching(g, max_states=10)


class TestIndependence:
    # The oracles certify the solvers, so they must not share their code:
    # they import only the model modules, and they score each objective
    # by what Objective declares, as Matching.value does.
    def test_oracles_import_only_the_models(self):
        nodes = list(ast.walk(ast.parse(inspect.getsource(oracles))))
        relative = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.level}
        absolute = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level}
        absolute |= {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
        assert relative == {"geometry", "hardness", "matching"}
        assert not any(name.split(".")[0] == "colorspan" for name in absolute)

    @pytest.mark.parametrize(
        "function",
        [Matching.value, brute_force_geometric, brute_force_graph_matching],
        ids=lambda f: f.__qualname__,
    )
    def test_scoring_names_no_objective_member(self, function):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        named = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "Objective"
        }
        assert not named & set(Objective.__members__)
