import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorspan import (
    InvalidInstanceError,
    Matching,
    Objective,
    WeightedGraph,
    bottleneck_perfect_matching,
    brute_force_graph_matching,
    has_perfect_matching,
    matching,
    maxmin_perfect_matching,
    min_weight_perfect_matching,
)
from colorspan.generate import generate_complete_weighted_graph, generate_uncolored_graph

from conftest import perfect_pairings


def k4_canonical():
    # Optimal pairings by hand: {(0,1),(2,3)} -> 2, {(0,2),(1,3)} -> 4,
    # {(0,3),(1,2)} -> 10.
    return WeightedGraph(
        4, [(0, 1, 1.0), (2, 3, 1.0), (0, 2, 2.0), (1, 3, 2.0), (0, 3, 5.0), (1, 2, 5.0)]
    )


# Outer 5-cycle 0-4, inner pentagram 5-9 and the spokes i-(i + 5).
PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
)
TRIANGLE_OF_TRIANGLES = [
    (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8),
    (2, 3), (5, 6), (0, 8),
]  # fmt: skip


def has_perfect_pairing(g: WeightedGraph) -> bool:
    """Perfect-matching existence by enumerating every pairing."""
    return any(
        all(g.has_edge(u, v) for u, v in pairing)
        for pairing in perfect_pairings(range(g.num_vertices))
    )


graphs = st.integers(min_value=0, max_value=4).flatmap(
    lambda seed: st.integers(min_value=2, max_value=8).map(
        lambda n: generate_uncolored_graph(n, seed, 0.5)
    )
)


class TestWeightedGraph:
    def test_parallel_edges_collapse_to_minimum(self):
        g = WeightedGraph(2, [(0, 1, 3.0), (1, 0, 1.5), (0, 1, 2.0)])
        assert g.edges == ((0, 1, 1.5),)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInstanceError):
            WeightedGraph(2, [(1, 1, 1.0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidInstanceError):
            WeightedGraph(2, [(0, 1, -0.5)])

    def test_rejects_nan_weight(self):
        with pytest.raises(InvalidInstanceError):
            WeightedGraph(2, [(0, 1, float("nan"))])

    def test_rejects_missing_vertex(self):
        with pytest.raises(InvalidInstanceError):
            WeightedGraph(2, [(0, 2, 1.0)])


class TestHasPerfectMatching:
    def test_single_edge(self):
        assert has_perfect_matching(WeightedGraph(2, [(0, 1, 1.0)]))

    def test_triangle_is_odd(self):
        k3 = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert not has_perfect_matching(k3)

    def test_empty_graph(self):
        assert has_perfect_matching(WeightedGraph(0))

    def test_isolated_pair(self):
        assert not has_perfect_matching(WeightedGraph(2))

    def test_isolated_vertex_fails_before_the_blossom(self, monkeypatch):
        # K5 plus vertex 5 on no edge: 10 edges, more than n / 2 = 3.
        k5 = [(u, v, 1.0) for u in range(5) for v in range(u + 1, 5)]

        def blossom(*_, **__):
            raise AssertionError("the blossom ran on a graph with an isolated vertex")

        monkeypatch.setattr(matching, "maximum_weight_matching", blossom)
        assert not has_perfect_matching(WeightedGraph(6, k5))

    @pytest.mark.parametrize("seed", range(50))
    def test_agrees_with_pairing_enumeration(self, seed):
        # At low edge probability isolated vertices are common.
        for n in (4, 6, 8, 10, 12):
            for edge_prob in (0.5, 0.35, 0.2):
                g = generate_uncolored_graph(n, 1000 + seed, edge_prob)
                assert has_perfect_matching(g) == has_perfect_pairing(g)

    # Each case is checked as given, whose sorted edge order the greedy
    # start takes, and in shuffled orders passed to the search directly.
    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            # Triangles {6, 0, 1} and {4, 5, 7} joined by the path 1-2-3-4.
            # Greedy takes 0-1, 2-3 and 4-5; the one augmenting path from 6
            # leaves through the blossom {6, 0, 1}.
            (8, [(0, 1), (0, 6), (1, 6), (1, 2), (2, 3), (3, 4), (4, 5), (4, 7), (5, 7)], True),
            # Vertex 7 hangs off the middle of the path 2-3-4 between two
            # triangles, which then have three vertices each left.
            (8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6), (3, 7)], False),
            # A triangle of triangles, {0, 1, 2}, {3, 4, 5} and {6, 7, 8},
            # linked by 2-3, 5-6 and 8-0, with vertex 9 hanging off 1:
            # blossoms nest inside the outer odd cycle.
            (10, TRIANGLE_OF_TRIANGLES + [(1, 9)], True),
            # One pendant vertex per triangle leaves the 6-cycle
            # 0-2-3-5-6-8 to match.
            (12, TRIANGLE_OF_TRIANGLES + [(1, 9), (4, 10), (7, 11)], True),
            # Beside a separate triangle, the nine vertices are odd.
            (12, TRIANGLE_OF_TRIANGLES + [(9, 10), (10, 11), (9, 11)], False),
            (10, PETERSEN, True),
            # The Petersen graph without its spokes is two 5-cycles.
            (10, [(u, v) for u, v in PETERSEN if v != u + 5], False),
            # The path 2-0-1-3: greedy takes 0-1, which is maximal but
            # not maximum.
            (4, [(0, 1), (0, 2), (1, 3)], True),
        ],
    )
    def test_blossom_cases(self, n, edges, expected):
        import random

        g = WeightedGraph(n, [(u, v, 1.0) for u, v in edges])
        assert has_perfect_pairing(g) == expected
        assert has_perfect_matching(g) == expected
        rng = random.Random(n)
        order = list(g.edges)
        for _ in range(30):
            rng.shuffle(order)
            assert matching._perfect_matching_exists(n, order) == expected

    @settings(max_examples=40, deadline=None)
    @given(graphs, st.data())
    def test_adding_an_edge_never_destroys_a_perfect_matching(self, g, data):
        if not has_perfect_matching(g):
            return
        n = g.num_vertices
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        if u == v:
            return
        bigger = WeightedGraph(n, list(g.edges) + [(u, v, 1.0)])
        assert has_perfect_matching(bigger)


class TestMinWeight:
    def test_k2(self):
        m = min_weight_perfect_matching(WeightedGraph(2, [(0, 1, 7.0)]))
        assert m.edges == ((0, 1),) and m.total_weight == 7.0

    def test_k4_canonical(self):
        m = min_weight_perfect_matching(k4_canonical())
        assert m.total_weight == 2.0
        assert m.edges == ((0, 1), (2, 3))

    def test_infeasible_returns_none(self):
        assert min_weight_perfect_matching(WeightedGraph(2)) is None
        k3 = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert min_weight_perfect_matching(k3) is None

    def test_isolated_vertex_fails_before_the_blossom(self, monkeypatch):
        # K5 plus vertex 5 on no edge: 10 edges, more than n / 2 = 3.
        k5 = [(u, v, 1.0) for u in range(5) for v in range(u + 1, 5)]

        def blossom(*_, **__):
            raise AssertionError("the blossom ran on a graph with an isolated vertex")

        monkeypatch.setattr(matching, "maximum_weight_matching", blossom)
        assert min_weight_perfect_matching(WeightedGraph(6, k5)) is None

    def test_empty_graph_gives_empty_matching(self):
        m = min_weight_perfect_matching(WeightedGraph(0))
        assert m.edges == () and m.total_weight == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_enumeration_on_random_k10(self, seed):
        g = generate_complete_weighted_graph(10, 4000 + seed)
        expected = brute_force_graph_matching(g, Objective.MINSUM)
        got = min_weight_perfect_matching(g)
        assert got.total_weight == expected.total_weight


class TestBottleneck:
    def test_k4_canonical(self):
        m = bottleneck_perfect_matching(k4_canonical())
        assert m.max_edge_weight == 1.0

    def test_k2(self):
        assert bottleneck_perfect_matching(WeightedGraph(2, [(0, 1, 7.0)])).max_edge_weight == 7.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_enumeration_on_random_k10(self, seed):
        g = generate_complete_weighted_graph(10, 4100 + seed)
        expected = brute_force_graph_matching(g, Objective.MINMAX)
        assert bottleneck_perfect_matching(g).max_edge_weight == expected.max_edge_weight


class TestMaxMin:
    def test_k4_canonical(self):
        # Pairing min edges are 1, 2 and 5: the two weight-5 edges form a
        # perfect matching of their own, so the optimum is 5 (recomputed
        # by enumeration, frozen here).
        m = maxmin_perfect_matching(k4_canonical())
        assert m.min_edge_weight == 5.0
        assert m.edges == ((0, 3), (1, 2))
        oracle = brute_force_graph_matching(k4_canonical(), Objective.MAXMIN)
        assert oracle.min_edge_weight == 5.0

    def test_k2(self):
        assert maxmin_perfect_matching(WeightedGraph(2, [(0, 1, 7.0)])).min_edge_weight == 7.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_enumeration_on_random_k10(self, seed):
        g = generate_complete_weighted_graph(10, 4200 + seed)
        expected = brute_force_graph_matching(g, Objective.MAXMIN)
        assert maxmin_perfect_matching(g).min_edge_weight == expected.min_edge_weight


class TestTiedWeights:
    # Repeated weights force blossom formation far more often than random
    # floats do, and zero-weight edges are legal (coincident points).  The
    # palette spans the float range (the smallest subnormal up to 1e300),
    # so the engine's integer scaling must be exact: totals are compared
    # as exact rational sums, which float sums of such weights are not.
    @pytest.mark.parametrize("seed", range(20))
    def test_tied_and_zero_weights_match_enumeration(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.choice([4, 6, 8])
        palette = [0.0, 1.0, 1.0, 2.0, 5e-324, 1e-300, 1e300]
        edges = [
            (u, v, rng.choice(palette))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.7
        ]
        g = WeightedGraph(n, edges)

        def exact_total(pairing):
            return sum(Fraction(g.weight(u, v)) for u, v in pairing)

        best_sum = best_bot = best_max = None
        for pairing in perfect_pairings(range(n)):
            if all(g.has_edge(u, v) for u, v in pairing):
                ws = [g.weight(u, v) for u, v in pairing]
                total = exact_total(pairing)
                if best_sum is None or total < best_sum:
                    best_sum = total
                if best_bot is None or max(ws) < best_bot:
                    best_bot = max(ws)
                if best_max is None or min(ws) > best_max:
                    best_max = min(ws)
        if best_sum is None:
            assert min_weight_perfect_matching(g) is None
            assert bottleneck_perfect_matching(g) is None
            assert maxmin_perfect_matching(g) is None
        else:
            assert exact_total(min_weight_perfect_matching(g).edges) == best_sum
            assert bottleneck_perfect_matching(g).max_edge_weight == best_bot
            assert maxmin_perfect_matching(g).min_edge_weight == best_max

    def test_engine_rejects_non_integer_weights(self):
        from colorspan._blossom import maximum_weight_matching

        assert maximum_weight_matching(2, {(0, 1): 3}) == {0: 1, 1: 0}
        with pytest.raises(TypeError):
            maximum_weight_matching(2, {(0, 1): 1.5})

    def test_all_zero_weights(self):
        g = WeightedGraph(4, [(0, 1, 0.0), (2, 3, 0.0)])
        m = min_weight_perfect_matching(g)
        assert m.total_weight == 0.0
        assert maxmin_perfect_matching(g).min_edge_weight == 0.0


class TestSparseThresholds:
    # Random weights on a quarter of K8's edges: many probe subgraphs, and
    # some whole graphs, leave a vertex on no edge.
    @pytest.mark.parametrize("seed", range(30))
    def test_match_enumeration_on_sparse_graphs(self, seed):
        import random

        rng = random.Random(seed)
        dense = generate_complete_weighted_graph(8, 4600 + seed)
        g = WeightedGraph(8, [e for e in dense.edges if rng.random() < 0.25])
        for solver, objective, stat in (
            (bottleneck_perfect_matching, Objective.MINMAX, "max_edge_weight"),
            (maxmin_perfect_matching, Objective.MAXMIN, "min_edge_weight"),
        ):
            got = solver(g)
            expected = brute_force_graph_matching(g, objective)
            if expected is None:
                assert got is None
            else:
                assert getattr(got, stat) == getattr(expected, stat)


class TestThresholdMonotonicity:
    @pytest.mark.parametrize("seed", range(8))
    def test_feasibility_is_monotone_in_the_threshold(self, seed):
        g = generate_complete_weighted_graph(8, 4300 + seed)
        levels = sorted({w for _, _, w in g.edges})
        n = g.num_vertices
        above = [
            has_perfect_matching(WeightedGraph(n, [e for e in g.edges if e[2] >= w]))
            for w in levels
        ]
        # True..True..False..False going up.
        assert all(a or not b for a, b in zip(above, above[1:]))
        below = [
            has_perfect_matching(WeightedGraph(n, [e for e in g.edges if e[2] <= w]))
            for w in levels
        ]
        # False..False..True..True going up.
        assert all(b or not a for a, b in zip(below, below[1:]))


class TestMatchingValue:
    @pytest.mark.parametrize("seed", range(6))
    def test_statistics_recompute_from_edges(self, seed):
        g = generate_complete_weighted_graph(10, 4400 + seed)
        for solver in (
            min_weight_perfect_matching,
            bottleneck_perfect_matching,
            maxmin_perfect_matching,
        ):
            m = solver(g)
            again = Matching.from_edges(g, m.edges)
            assert again == m
            seen = set()
            for u, v in m.edges:
                assert g.has_edge(u, v)
                assert u not in seen and v not in seen
                seen.update((u, v))

    def test_objective_relations(self):
        for seed in range(5):
            g = generate_complete_weighted_graph(10, 4500 + seed)
            k = g.num_vertices // 2
            minsum = min_weight_perfect_matching(g).total_weight
            bottleneck = bottleneck_perfect_matching(g).max_edge_weight
            assert minsum <= k * bottleneck + 1e-12
            assert bottleneck >= minsum / k - 1e-12

    @pytest.mark.parametrize(
        "objective, statistic",
        [
            (Objective.MINSUM, "total_weight"),
            (Objective.MAXSUM, "total_weight"),
            (Objective.MAXMIN, "min_edge_weight"),
            (Objective.MINMAX, "max_edge_weight"),
        ],
    )
    def test_value_reads_the_objective_statistic(self, objective, statistic):
        m = Matching.from_weighted_edges([(0, 1, 1.0), (2, 3, 4.0), (4, 5, 2.5)])
        assert (m.total_weight, m.min_edge_weight, m.max_edge_weight) == (7.5, 1.0, 4.0)
        assert m.value(objective) == getattr(m, statistic)

    def test_vertex_sharing_edges_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Matching.from_weighted_edges([(0, 1, 1.0), (1, 2, 1.0)])

    def test_total_past_the_float_range_rejected(self):
        # Each weight is finite; their sum is not.
        with pytest.raises(InvalidInstanceError, match="exceeds the float range"):
            Matching.from_weighted_edges([(0, 1, 1e308), (2, 3, 1e308)])
