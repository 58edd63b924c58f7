"""Differential tests of the threshold matchings against a reference search.

The reference is the threshold search as it ran before the cardinality
probes: a binary search over the distinct weights in which every probe
builds the subgraph within the level and asks a unit-weight blossom run
for a maximum-cardinality matching, then one more such run on the
subgraph at the level found gives the witness.  The library must return
an equal :class:`Matching` (same edges, same statistics) on every graph.
"""

import random

import pytest

from colorspan import (
    Matching,
    WeightedGraph,
    bottleneck_perfect_matching,
    matching,
    maxmin_perfect_matching,
)
from colorspan._blossom import maximum_weight_matching
from colorspan.generate import (
    generate_complete_weighted_graph,
    generate_matching_instance,
    generate_points,
)
from colorspan.geometry import build_closest_color_graph, build_farthest_color_graph
from colorspan.solvers import _color_graph_to_weighted


def reference_pairs(g: WeightedGraph) -> list[tuple[int, int]] | None:
    unit = {(u, v): 1 for u, v, _ in g.edges}
    mate = maximum_weight_matching(g.num_vertices, unit)
    if len(mate) < g.num_vertices:
        return None
    return sorted((u, v) for u, v in mate.items() if u < v)


def reference_threshold(g: WeightedGraph, minimize_max: bool) -> Matching | None:
    if g.num_vertices == 0:
        return Matching.empty()
    levels = sorted({w for _, _, w in g.edges}, reverse=not minimize_max)
    if not levels or reference_pairs(g) is None:
        return None

    def within(level: float) -> WeightedGraph:
        if minimize_max:
            return WeightedGraph(g.num_vertices, [e for e in g.edges if e[2] <= level])
        return WeightedGraph(g.num_vertices, [e for e in g.edges if e[2] >= level])

    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if reference_pairs(within(levels[mid])) is not None:
            hi = mid
        else:
            lo = mid + 1
    return Matching.from_edges(g, reference_pairs(within(levels[lo])))


def assert_same_as_reference(g: WeightedGraph) -> None:
    assert bottleneck_perfect_matching(g) == reference_threshold(g, minimize_max=True)
    assert maxmin_perfect_matching(g) == reference_threshold(g, minimize_max=False)


@pytest.mark.parametrize("n", range(4, 21, 2))
def test_random_complete_graphs(n):
    for seed in range(5):
        assert_same_as_reference(generate_complete_weighted_graph(n, 7000 + 10 * n + seed))


@pytest.mark.parametrize("seed", range(40))
def test_tied_weights(seed):
    # The palette of the tied-weights enumeration test: many equal weights,
    # so each level holds several edges and many perfect matchings tie.
    rng = random.Random(seed)
    n = rng.choice([4, 6, 8])
    palette = [0.0, 1.0, 1.0, 2.0, 5e-324, 1e-300, 1e300]
    edges = [
        (u, v, rng.choice(palette))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.7
    ]
    assert_same_as_reference(WeightedGraph(n, edges))


@pytest.mark.parametrize("seed", range(40))
def test_sparse_k8_subgraphs(seed):
    rng = random.Random(seed)
    dense = generate_complete_weighted_graph(8, 7600 + seed)
    assert_same_as_reference(WeightedGraph(8, [e for e in dense.edges if rng.random() < 0.25]))


# The point sets of the benchmark's two workloads (clusters data with
# n=10000 and t=20, three instances per seed; the desk-scale matching
# instances of the sweep, eight per k and seed), at seeds 1 and 2.
def many_points_sets(seed):
    for i in range(3):
        yield generate_points(10_000, 20, seed * 1_000_003 + i, distribution="clusters")


def sweep_point_sets(seed):
    for i in range(8):
        for k, cap in ((2, 5), (3, 5), (4, 3)):
            yield generate_matching_instance(k, seed * 1_000_003 + i * 101 + k, cap)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("point_sets", [many_points_sets, sweep_point_sets])
def test_workload_color_graphs(point_sets, seed):
    for ps in point_sets(seed):
        for build in (build_closest_color_graph, build_farthest_color_graph):
            assert_same_as_reference(_color_graph_to_weighted(build(ps)))


@pytest.mark.parametrize("solver", [bottleneck_perfect_matching, maxmin_perfect_matching])
def test_one_blossom_run_per_solve(solver, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return maximum_weight_matching(*args, **kwargs)

    monkeypatch.setattr(matching, "maximum_weight_matching", counted)
    g = generate_complete_weighted_graph(8, 7900)
    assert solver(g) == reference_threshold(g, solver is bottleneck_perfect_matching)
    assert len(calls) == 1
