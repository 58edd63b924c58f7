"""The vendored blossom engine against networkx's, and its duals against
Edmonds' optimality conditions.

``_blossom.maximum_weight_matching`` follows networkx's
``max_weight_matching(G, maxcardinality=True)`` step for step, so on the
same graph, built with the same node and neighbour order, both must
return the same matching, tie-breaks included.  The graphs cover random
int weights, heavy ties, ints far past the float range, sparse graphs of
20 to 40 vertices, and the exact weight dicts that the three matching
queries hand the engine on generated complete graphs and on the color
graphs of the benchmark workloads' instances.

Wherever the matching is perfect, the engine's exported duals must also
certify it.  :func:`assert_edmonds_certificate` checks that from the
weights, the mate map and the duals alone, sharing no code with the
engine.
"""

import random

import pytest

from colorspan import (
    bottleneck_perfect_matching,
    matching,
    maxmin_perfect_matching,
    min_weight_perfect_matching,
    solve_k_multicolored_matching,
    solve_maxmin,
    solve_minmax,
    solve_minsum,
)
from colorspan._blossom import maximum_weight_matching
from colorspan.generate import (
    generate_colorful_matching_instance,
    generate_complete_weighted_graph,
    generate_matching_instance,
    generate_points,
)

nx = pytest.importorskip("networkx")


def networkx_mate(n, weights):
    """networkx's matching as a mate map; the graph gets the nodes
    0..n-1 first, then the edges in the dict's order, so every node's
    neighbours come in the order the vendored engine sees them."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for (u, v), w in weights.items():
        g.add_edge(u, v, weight=w)
    pairs = nx.max_weight_matching(g, maxcardinality=True)
    return {x: y for u, v in pairs for x, y in ((u, v), (v, u))}


def assert_edmonds_certificate(n, weights, mate, duals):
    """The duals prove the perfect matching ``mate`` of maximum weight.

    In the engine's doubled units the reduced cost of an edge is
    ``2 * (y_u + y_v + the z of every blossom holding both ends - w)``.
    Edmonds' conditions: every reduced cost is at least 0 and is 0 on
    matched edges, every blossom dual is at least 0, and a blossom with a
    positive dual holds (|B| - 1) / 2 matched edges.  With a perfect
    matching they give weight(matching) = dual objective >= the weight of
    any other perfect matching.
    """
    vertex, blossoms = duals
    assert len(mate) == n and len(vertex) == n
    members = []
    for leaves, z in blossoms:
        inside = frozenset(leaves)
        assert z >= 0, f"blossom {sorted(inside)} has dual {z}"
        if z > 0:
            matched = sum(mate[v] in inside for v in inside) // 2
            assert matched == (len(inside) - 1) // 2, f"blossom {sorted(inside)} is not full"
        members.append((inside, z))
    for (u, v), w in weights.items():
        reduced = vertex[u] + vertex[v] - 2 * w
        reduced += sum(z for inside, z in members if u in inside and v in inside)
        assert reduced >= 0, f"edge ({u}, {v}) has reduced cost {reduced}"
        if mate[u] == v:
            assert reduced == 0, f"matched edge ({u}, {v}) has reduced cost {reduced}"


def assert_engine_matches_networkx(n, weights):
    mate, duals = maximum_weight_matching(n, weights)
    assert mate == networkx_mate(n, weights)
    if len(mate) == n:
        assert_edmonds_certificate(n, weights, mate, duals)


def random_weights(rng, n, draw, densities=(0.3, 0.6, 1.0)):
    """Weights on a random graph of one of the given edge densities."""
    density = rng.choice(densities)
    return {(u, v): draw() for u in range(n) for v in range(u + 1, n) if rng.random() < density}


@pytest.mark.parametrize(
    "kind, draw",
    [
        ("random", lambda rng: rng.randint(0, 1000)),
        ("ties", lambda rng: rng.randint(0, 2)),
        ("huge", lambda rng: rng.randint(0, 1 << 1100)),
    ],
)
@pytest.mark.parametrize("seed", range(100))
def test_random_graphs_match_networkx(kind, draw, seed):
    rng = random.Random(f"{kind}-{seed}")
    n = rng.randint(1, 14)
    assert_engine_matches_networkx(n, random_weights(rng, n, lambda: draw(rng)))


@pytest.mark.parametrize("seed", range(40))
def test_sparse_tie_heavy_graphs_match_networkx(seed):
    # 20 to 40 vertices at 8% to 25% density with weights in 0..3: many
    # equal-weight optima, blossoms, and vertices left unmatched.
    rng = random.Random(f"sparse-{seed}")
    n = rng.randint(20, 40)
    weights = random_weights(rng, n, lambda: rng.randint(0, 3), (0.08, 0.15, 0.25))
    assert_engine_matches_networkx(n, weights)


def recorded_engine_calls(monkeypatch, run):
    """``run()``'s calls of the engine from the matching queries, as
    ``(num_vertices, weights)`` pairs."""
    calls = []

    def recording(num_vertices, weights):
        calls.append((num_vertices, dict(weights)))
        return maximum_weight_matching(num_vertices, weights)

    monkeypatch.setattr(matching, "maximum_weight_matching", recording)
    run()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize(
    "query", [min_weight_perfect_matching, bottleneck_perfect_matching, maxmin_perfect_matching]
)
@pytest.mark.parametrize("n, seed", [(n, seed) for n in (2, 4, 6, 10, 16) for seed in range(4)])
def test_query_engine_calls_match_networkx(monkeypatch, query, n, seed):
    g = generate_complete_weighted_graph(n, seed)
    calls = recorded_engine_calls(monkeypatch, lambda: query(g))
    assert len(calls) == 1
    for num_vertices, weights in calls:
        assert_engine_matches_networkx(num_vertices, weights)


# The instances perfbench/workloads.py draws at seed 1: many-points'
# three clustered 10k-point sets with 20 colors (closest and farthest
# K20s), and certify-sweep's point instances at k = 2, 3, 4 and its
# colorful graphs at k = 2, 3.
WORKLOAD_SEED = 1


@pytest.mark.parametrize("instance", range(3))
def test_many_points_color_graphs_match_networkx(monkeypatch, instance):
    ps = generate_points(10_000, 20, WORKLOAD_SEED * 1_000_003 + instance, "clusters")
    for solve in (solve_minsum, solve_minmax, solve_maxmin):
        calls = recorded_engine_calls(monkeypatch, lambda: solve(ps))
        assert [n for n, _ in calls] == [20]
        assert_engine_matches_networkx(*calls[0])


@pytest.mark.parametrize("instance", range(8))
def test_certify_sweep_instances_match_networkx(monkeypatch, instance):
    sub = WORKLOAD_SEED * 1_000_003 + instance * 101
    for k, cap in ((2, 5), (3, 5), (4, 3)):
        ps = generate_matching_instance(k, sub + k, cap)
        for solve in (solve_minsum, solve_minmax, solve_maxmin):
            calls = recorded_engine_calls(monkeypatch, lambda: solve(ps))
            assert [n for n, _ in calls] == [2 * k]
            assert_engine_matches_networkx(*calls[0])
    for k in (2, 3):
        g = generate_colorful_matching_instance(k, sub + 10 + k, 14, 0.5)
        for num_vertices, weights in recorded_engine_calls(
            monkeypatch, lambda: solve_k_multicolored_matching(g)
        ):
            assert_engine_matches_networkx(num_vertices, weights)


def test_certificate_check_rejects_tampered_duals():
    # A tie-heavy graph whose optimum leaves a blossom with a positive
    # dual: lowering that dual, or raising one vertex dual, breaks it.
    for seed in range(1000):
        rng = random.Random(f"tamper-{seed}")
        weights = random_weights(rng, 10, lambda: rng.randint(0, 6))
        mate, (vertex, blossoms) = maximum_weight_matching(10, weights)
        if len(mate) == 10 and any(z > 0 for _, z in blossoms):
            break
    else:
        pytest.fail("no graph with a positive blossom dual")
    assert_edmonds_certificate(10, weights, mate, (vertex, blossoms))
    lowered = [(leaves, z - 2 if z > 0 else z) for leaves, z in blossoms]
    with pytest.raises(AssertionError):
        assert_edmonds_certificate(10, weights, mate, (vertex, lowered))
    raised = [vertex[0] + 2, *vertex[1:]]
    with pytest.raises(AssertionError):
        assert_edmonds_certificate(10, weights, mate, (raised, blossoms))
