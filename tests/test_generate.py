"""The graph generators against one scalar draw per vertex pair.

The generators draw every pair's coin (or, for the complete graph, its
weight) in one ``rng.random(m)`` call.  PCG64 gives the same doubles one
at a time, so each graph must equal the one that per-pair draws in
lexicographic pair order give, for every ``n``, edge probability and
seed.
"""

import numpy as np
import pytest

from colorspan.generate import (
    _color_assignment,
    generate_colored_graph,
    generate_complete_weighted_graph,
    generate_uncolored_graph,
)

CASES = [
    (n, p, seed)
    for n in (0, 1, 2, 3, 9, 40)
    for p in (0.0, 0.3, 0.5, 1.0)
    for seed in (0, 1, 7, 123456789)
]


def scalar_edges(rng, n: int, edge_prob: float) -> list[tuple[int, int]]:
    """Reference: one ``rng.random()`` per pair ``u < v``, in order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob]


@pytest.mark.parametrize("n, edge_prob, seed", CASES)
def test_uncolored_graph_matches_scalar_draws(n, edge_prob, seed):
    edges = scalar_edges(np.random.default_rng(seed), n, edge_prob)
    g = generate_uncolored_graph(n, seed, edge_prob)
    assert g.num_vertices == n
    assert g.edges == tuple((u, v, 1.0) for u, v in edges)


@pytest.mark.parametrize("n, edge_prob, seed", [c for c in CASES if c[0] >= 2])
@pytest.mark.parametrize("weighted", [True, False])
def test_colored_graph_matches_scalar_draws(n, edge_prob, seed, weighted):
    k = min(n, 3)
    rng = np.random.default_rng(seed)
    colors = _color_assignment(rng, n, k, None, "vertices").tolist()
    edges = scalar_edges(rng, n, edge_prob)
    weights = [float(w) for w in rng.random(len(edges))] if weighted else None
    g = generate_colored_graph(n, k, seed, edge_prob, weighted)
    assert (g.num_vertices, g.colors, g.num_colors) == (n, tuple(colors), k)
    assert g.edges == tuple(edges)
    assert g.weights == (None if weights is None else tuple(weights))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 40])
@pytest.mark.parametrize("seed", [0, 1, 7, 123456789])
def test_complete_graph_matches_scalar_draws(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v, float(rng.random())) for u in range(n) for v in range(u + 1, n)]
    g = generate_complete_weighted_graph(n, seed)
    assert g.num_vertices == n
    assert g.edges == tuple(edges)
