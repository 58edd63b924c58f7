"""The vendored blossom engine against networkx's.

``_blossom.maximum_weight_matching`` follows networkx's
``max_weight_matching(G, maxcardinality=True)`` step for step, so on the
same graph, built with the same node and neighbour order, both must
return the same matching, tie-breaks included.  The graphs cover random
int weights, heavy ties, ints far past the float range, and the exact
weight dicts that the three matching queries hand the engine on
generated complete graphs.
"""

import random

import pytest

from colorspan import (
    bottleneck_perfect_matching,
    matching,
    maxmin_perfect_matching,
    min_weight_perfect_matching,
)
from colorspan._blossom import maximum_weight_matching
from colorspan.generate import generate_complete_weighted_graph

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


def random_weights(rng, n, draw):
    """Weights on a random graph of sparse, medium or full density."""
    density = rng.choice((0.3, 0.6, 1.0))
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
    weights = random_weights(rng, n, lambda: draw(rng))
    assert maximum_weight_matching(n, weights) == networkx_mate(n, weights)


@pytest.mark.parametrize(
    "query", [min_weight_perfect_matching, bottleneck_perfect_matching, maxmin_perfect_matching]
)
@pytest.mark.parametrize("n, seed", [(n, seed) for n in (2, 4, 6, 10, 16) for seed in range(4)])
def test_query_engine_calls_match_networkx(monkeypatch, query, n, seed):
    calls = []

    def recording(num_vertices, weights):
        mate = maximum_weight_matching(num_vertices, weights)
        calls.append((num_vertices, dict(weights), mate))
        return mate

    monkeypatch.setattr(matching, "maximum_weight_matching", recording)
    assert query(generate_complete_weighted_graph(n, seed)) is not None
    assert len(calls) == 1
    for num_vertices, weights, mate in calls:
        assert mate == networkx_mate(num_vertices, weights)
