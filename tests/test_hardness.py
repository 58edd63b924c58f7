from itertools import combinations

import pytest

from colorspan import (
    BudgetExceededError,
    InvalidInstanceError,
    VertexColoredGraph,
    WeightedGraph,
    brute_force_mcim,
    brute_force_mcis,
    certify_equivalence,
    find_k_independent_set,
    reduce_is_to_mcis,
    reduce_mcis_to_mcim,
    solve_k_multicolored_matching,
)
from colorspan import hardness
from colorspan.generate import generate_uncolored_graph


def cycle(n):
    return WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def complete(n):
    return WeightedGraph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])


class TestReduceIsToMcis:
    def test_single_edge_becomes_k4(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        art = reduce_is_to_mcis(g, 2)
        assert art.graph.num_vertices == 4
        assert len(art.graph.edges) == 6
        assert art.graph.num_colors == 2
        assert brute_force_mcis(art.graph) is None
        assert find_k_independent_set(g, 2) is None

    def test_two_isolated_vertices(self):
        # Copies of the same vertex are interconnected, so the output has
        # one mirror edge per source vertex rather than no edges at all;
        # a colorful pair of distinct sources still exists.
        g = WeightedGraph(2)
        art = reduce_is_to_mcis(g, 2)
        assert art.graph.num_vertices == 4
        assert art.graph.edges == ((0, 2), (1, 3))
        witness = brute_force_mcis(art.graph)
        assert witness is not None
        assert len({art.provenance[v][0] for v in witness}) == 2

    def test_repetition_loophole_is_closed(self):
        # One isolated vertex, k = 2: the source has no independent pair,
        # so the colorful instance must be infeasible too.
        g = WeightedGraph(1)
        art = reduce_is_to_mcis(g, 2)
        assert brute_force_mcis(art.graph) is None

    def test_gadget_edge_count_on_disjoint_edges(self):
        # With max degree 1 and no isolated vertices the edge count is
        # exactly k*m plus four gadget edges per source edge and copy pair.
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        for k in (2, 3):
            art = reduce_is_to_mcis(g, k)
            m = 2
            assert len(art.graph.edges) == k * m + 4 * m * k * (k - 1) // 2

    @pytest.mark.parametrize("seed", range(10))
    def test_vertex_count_and_colors(self, seed):
        g = generate_uncolored_graph(7, seed, 0.4)
        for k in (2, 3):
            art = reduce_is_to_mcis(g, k)
            assert art.graph.num_vertices == k * g.num_vertices
            assert art.graph.num_colors == k
            for v in range(art.graph.num_vertices):
                assert art.graph.colors[v] == v // g.num_vertices
            assert set(art.provenance) == set(range(art.graph.num_vertices))

    def test_invalid_k(self):
        with pytest.raises(InvalidInstanceError):
            reduce_is_to_mcis(WeightedGraph(2), 0)


class TestReduceMcisToMcim:
    def test_edgeless_two_colors(self):
        g = VertexColoredGraph(2, [0, 1], [], 2)
        art = reduce_mcis_to_mcim(g)
        assert art.graph.num_vertices == 4
        assert art.graph.num_colors == 4
        assert len(art.graph.edges) == 2
        matching = brute_force_mcim(art.graph)
        assert matching is not None
        assert sorted(matching) == [(0, 2), (1, 3)]

    @pytest.mark.parametrize("seed", range(10))
    def test_size_identities(self, seed):
        src = generate_uncolored_graph(8, 100 + seed, 0.4)
        art1 = reduce_is_to_mcis(src, 2)
        g = art1.graph
        art = reduce_mcis_to_mcim(g)
        assert art.graph.num_vertices == g.num_vertices + g.num_colors
        assert len(art.graph.edges) == len(g.edges) + g.num_vertices
        assert art.graph.num_colors == 2 * g.num_colors

    @pytest.mark.parametrize("seed", range(6))
    def test_each_anchor_touches_exactly_one_source_color(self, seed):
        src = generate_uncolored_graph(6, 200 + seed, 0.5)
        g = reduce_is_to_mcis(src, 3).graph
        art = reduce_mcis_to_mcim(g)
        n, k = g.num_vertices, g.num_colors
        for i in range(k):
            anchor = n + i
            nbrs = art.graph.adjacency[anchor]
            assert nbrs == frozenset(v for v in range(n) if g.colors[v] == i)


class TestBruteForceSolvers:
    def test_mcis_edgeless_one_per_color(self):
        g = VertexColoredGraph(3, [0, 1, 2], [], 3)
        assert brute_force_mcis(g) == (0, 1, 2)

    def test_mcis_complete_graph_infeasible(self):
        g = VertexColoredGraph(
            4, [0, 0, 1, 1], [(u, v) for u in range(4) for v in range(u + 1, 4)], 2
        )
        assert brute_force_mcis(g) is None

    def test_mcis_budget(self):
        g = VertexColoredGraph(20, [i % 2 for i in range(20)], [], 2)
        with pytest.raises(BudgetExceededError):
            brute_force_mcis(g, max_states=10)

    def test_mcim_two_disjoint_colorful_edges(self):
        g = VertexColoredGraph(4, [0, 1, 2, 3], [(0, 1), (2, 3)], 4)
        assert brute_force_mcim(g) == ((0, 1), (2, 3))

    def test_mcim_cross_edge_breaks_independence(self):
        g = VertexColoredGraph(4, [0, 1, 2, 3], [(0, 1), (2, 3), (1, 2)], 4)
        assert brute_force_mcim(g) is None

    def test_mcim_same_edge_endpoints_may_be_adjacent(self):
        # A single chosen edge's own endpoints are adjacent by definition.
        g = VertexColoredGraph(2, [0, 1], [(0, 1)], 2)
        assert brute_force_mcim(g) == ((0, 1),)

    def test_mcim_odd_colors_rejected(self):
        # With the colorful solver's message, from the one shared check.
        g = VertexColoredGraph(3, [0, 1, 2], [(0, 1)], 3)
        message = "^colorful matching needs an even, positive color count, got 3$"
        for solve in (brute_force_mcim, solve_k_multicolored_matching):
            with pytest.raises(InvalidInstanceError, match=message):
                solve(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_mcim_solutions_are_independent(self, seed):
        src = generate_uncolored_graph(6, 300 + seed, 0.3)
        art = reduce_mcis_to_mcim(reduce_is_to_mcis(src, 2).graph)
        matching = brute_force_mcim(art.graph)
        if matching is None:
            return
        adj = art.graph.adjacency
        colors = [art.graph.colors[v] for e in matching for v in e]
        assert len(set(colors)) == len(colors) == art.graph.num_colors
        for (a1, a2), (b1, b2) in combinations(matching, 2):
            for x in (a1, a2):
                for y in (b1, b2):
                    assert y not in adj[x]


class TestCertify:
    def test_cycle_five(self):
        cert = certify_equivalence(cycle(5), 2)
        assert cert.has_independent_set
        assert cert.has_colorful_independent_set
        assert cert.has_colorful_independent_matching
        assert cert.independent_set is not None
        assert cert.lifted_colorful_set is not None
        assert cert.lifted_matching_set is not None

    def test_k4(self):
        cert = certify_equivalence(complete(4), 2)
        assert not cert.has_independent_set
        assert not cert.has_colorful_independent_set
        assert not cert.has_colorful_independent_matching
        assert cert.independent_set is None

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances_never_violate(self, seed):
        n = 3 + seed % 8
        g = generate_uncolored_graph(n, 7000 + seed, 0.45)
        k = 2 + seed % 2
        cert = certify_equivalence(g, k)
        assert (
            cert.has_independent_set
            == cert.has_colorful_independent_set
            == cert.has_colorful_independent_matching
        )

    def test_budget_exceeded(self):
        g = generate_uncolored_graph(30, 1, 0.5)
        with pytest.raises(BudgetExceededError):
            certify_equivalence(g, 10, max_states=100)

    def test_budget_checked_before_the_reduction(self, monkeypatch):
        def reduce(*_, **__):
            raise AssertionError("the reduction was built past the budget")

        monkeypatch.setattr(hardness, "reduce_is_to_mcis", reduce)
        g = WeightedGraph(3, [(0, 1, 1.0)])
        message = f"^{3**1000} candidate states exceed the budget of 10000000$"
        with pytest.raises(BudgetExceededError, match=message):
            certify_equivalence(g, 1000)


class TestCheckBudget:
    def test_printable_count_in_decimal(self):
        # 4300 digits, the most an int converts to by default.
        with pytest.raises(BudgetExceededError) as info:
            hardness.check_budget(10**4299, 1)
        assert str(info.value) == f"{10**4299} candidate states exceed the budget of 1"

    def test_count_past_the_digit_limit(self):
        # 2^20000 is about 10^6020.6.
        with pytest.raises(BudgetExceededError) as info:
            hardness.check_budget(2**20000, 945)
        assert str(info.value) == "more than 10^6020 candidate states exceed the budget of 945"
