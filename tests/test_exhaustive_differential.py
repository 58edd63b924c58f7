"""Every exhaustive search on ``exact_covers`` against its own recursion.

``colorful_edge_sets``, ``brute_force_mcis``, the geometric oracle's
pairing table and ``brute_force_graph_matching`` all enumerate through
``hardness.exact_covers``.  Each had its own search before; those searches
are kept below as references, and the covers must come out in the same
order, since every witness and tie-break is the first optimum met.  The
inputs are seeded random colored graphs, the outputs of both reductions on
random uncolored graphs (the graphs ``certify`` builds), every pairing
table from 2 to 12 colors, and sparse graphs with tied weights.
"""

import itertools
import math
import random
from typing import Iterator

import pytest

from colorspan import (
    BudgetExceededError,
    Matching,
    Objective,
    VertexColoredGraph,
    WeightedGraph,
    brute_force_colorful_graph_matching,
    brute_force_graph_matching,
    brute_force_mcim,
    brute_force_mcis,
    reduce_is_to_mcis,
    reduce_mcis_to_mcim,
)
from colorspan.generate import generate_colored_graph, generate_uncolored_graph
from colorspan.hardness import colorful_edge_sets
from colorspan.oracles import _pairing_slots, pairing_count

from conftest import perfect_pairings

UNLIMITED = 10**18


def reference_colorful_edge_sets(g, fits=None) -> Iterator[tuple[int, ...]]:
    """The edge-set search as its own closure: lowest uncovered color
    first, its cross-color edges in edge order."""
    colors, k = g.colors, g.num_colors // 2
    by_color = [[] for _ in range(g.num_colors)]
    for pos, (u, v) in enumerate(g.edges):
        cu, cv = colors[u], colors[v]
        if cu != cv:
            by_color[min(cu, cv)].append((pos, cu, cv))
    covered = [False] * g.num_colors
    chosen = []

    def extend():
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for pos, cu, cv in by_color[covered.index(False)]:
            if covered[cu] or covered[cv] or (fits is not None and not fits(pos, chosen)):
                continue
            covered[cu] = covered[cv] = True
            chosen.append(pos)
            yield from extend()
            chosen.pop()
            covered[cu] = covered[cv] = False

    return extend()


def reference_mcis(g):
    """One vertex per color, lowest colors first, pruned on adjacency."""
    classes = g.color_classes
    if any(not cls for cls in classes):
        return None
    adj = g.adjacency
    chosen = []

    def extend(color):
        if color == g.num_colors:
            return True
        for v in classes[color]:
            if all(v not in adj[u] for u in chosen):
                chosen.append(v)
                if extend(color + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if extend(0) else None


def independence_fits(g):
    """The cross-edge independence prune ``brute_force_mcim`` applies."""
    edges, adj = g.edges, g.adjacency

    def fits(pos, chosen):
        u, v = edges[pos]
        return not any(
            u in adj[x] or u in adj[y] or v in adj[x] or v in adj[y]
            for x, y in map(edges.__getitem__, chosen)
        )

    return fits


def reference_mcim(g):
    found = next(reference_colorful_edge_sets(g, independence_fits(g)), None)
    return None if found is None else tuple(g.edges[pos] for pos in found)


def reference_colorful_oracle(g):
    """The first minimum-total edge set, kept by a strict-improvement loop."""
    weights = [g.weight(pos) for pos in range(len(g.edges))]
    best_val, best = None, None
    for chosen in reference_colorful_edge_sets(g):
        v = sum(weights[pos] for pos in sorted(chosen))
        if best_val is None or v < best_val:
            best_val, best = v, chosen
    if best is None:
        return None
    return Matching.from_weighted_edges((*g.edges[pos], weights[pos]) for pos in best)


def reference_graph_matching(g, objective):
    """Every pairing of all vertices, skipping those with a missing edge;
    the first strict optimum wins."""
    if g.num_vertices == 0:
        return Matching.from_weighted_edges(())
    wmap = g.weight_map
    maximize = objective in (Objective.MAXSUM, Objective.MAXMIN)
    best_val, best = None, None
    for pairing in perfect_pairings(range(g.num_vertices)):
        if not all(e in wmap for e in pairing):
            continue
        ws = [wmap[e] for e in pairing]
        if objective in (Objective.MINSUM, Objective.MAXSUM):
            v = sum(ws)
        else:
            v = max(ws) if objective is Objective.MINMAX else min(ws)
        if best_val is None or (v > best_val if maximize else v < best_val):
            best_val, best = v, pairing
    return None if best is None else Matching.from_weighted_edges((*e, wmap[e]) for e in best)


def tied_colored_graph(n, t, seed, edge_prob):
    """A colored graph whose weights are small integers, so many edge sets
    tie on their total."""
    rng = random.Random(seed)
    colors = [c for c in range(t)] + [rng.randrange(t) for _ in range(n - t)]
    rng.shuffle(colors)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < edge_prob]
    weights = [float(rng.randint(1, 3)) for _ in edges]
    return VertexColoredGraph(n, colors, edges, t, weights)


def random_colored_graphs():
    for seed in range(12):
        for t in (2, 4, 6):
            yield generate_colored_graph(t + seed % 5, t, seed, edge_prob=0.6)
            yield tied_colored_graph(t + 2 + seed % 4, t, seed, 0.7)


def reduction_outputs():
    """The colorful graphs ``certify --k 2/3`` builds from random graphs."""
    for seed in range(6):
        for k, n in ((2, 5 + seed % 4), (3, 5 + seed % 3)):
            source = generate_uncolored_graph(n, seed, 0.45)
            mcis = reduce_is_to_mcis(source, k).graph
            yield mcis, reduce_mcis_to_mcim(mcis).graph


class TestColorfulEdgeSets:
    def test_random_graphs_same_sequence(self):
        for g in random_colored_graphs():
            assert list(colorful_edge_sets(g, UNLIMITED)) == list(
                reference_colorful_edge_sets(g)
            )

    def test_random_graphs_same_pruned_sequence(self):
        for g in random_colored_graphs():
            fits = independence_fits(g)
            assert list(colorful_edge_sets(g, UNLIMITED, fits)) == list(
                reference_colorful_edge_sets(g, fits)
            )

    def test_reduction_outputs_same_pruned_sequence(self):
        for _, g in reduction_outputs():
            fits = independence_fits(g)
            assert list(colorful_edge_sets(g, UNLIMITED, fits)) == list(
                reference_colorful_edge_sets(g, fits)
            )

    def test_k2_reduction_outputs_same_sequence(self):
        for _, g in reduction_outputs():
            if g.num_colors == 4:
                assert list(colorful_edge_sets(g, UNLIMITED)) == list(
                    reference_colorful_edge_sets(g)
                )

    def test_colorful_oracle_same_witness(self):
        for g in random_colored_graphs():
            assert brute_force_colorful_graph_matching(g, UNLIMITED) == (
                reference_colorful_oracle(g)
            )


class TestColorfulSearches:
    def test_reduction_outputs_same_answers(self):
        answers = set()
        for mcis, mcim in reduction_outputs():
            want = reference_mcis(mcis)
            assert brute_force_mcis(mcis) == want
            assert brute_force_mcim(mcim) == reference_mcim(mcim)
            answers.add(want is None)
        assert answers == {True, False}  # both feasible and infeasible seen

    def test_random_graphs_same_answers(self):
        for g in random_colored_graphs():
            assert brute_force_mcis(g) == reference_mcis(g)
            assert brute_force_mcim(g) == reference_mcim(g)

    def test_color_without_vertex(self):
        g = VertexColoredGraph(3, [0, 0, 2], [(0, 2)], 3)
        assert brute_force_mcis(g) is None is reference_mcis(g)

    def test_no_colors(self):
        g = VertexColoredGraph(0, [], [], 0)
        assert brute_force_mcis(g) == () == reference_mcis(g)


class TestPairingSlots:
    @pytest.mark.parametrize("t", range(2, 13))
    def test_rows_are_reference_pairings(self, t):
        slot = {pair: i for i, pair in enumerate(itertools.combinations(range(t), 2))}
        want = [[slot[pair] for pair in pairing] for pairing in perfect_pairings(range(t))]
        got = _pairing_slots(t)
        assert got.shape == (pairing_count(t), t // 2)
        assert got.tolist() == want


class TestGraphMatching:
    @pytest.mark.parametrize("objective", list(Objective))
    def test_sparse_graphs_same_matching(self, objective):
        feasible = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.choice((0, 2, 4, 5, 6, 8, 10))
            prob = rng.choice((0.2, 0.35, 0.5))
            edges = [
                (u, v, float(rng.randint(1, 4)) if seed % 2 else rng.random())
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < prob
            ]
            g = WeightedGraph(n, edges)
            want = reference_graph_matching(g, objective)
            assert brute_force_graph_matching(g, objective) == want
            feasible += want is not None
        assert 0 < feasible < 40

    def test_budget_counts_every_pairing(self):
        g = WeightedGraph(10, [(0, 1, 1.0)])
        assert brute_force_graph_matching(g, Objective.MINSUM, math.prod(range(9, 0, -2))) is None
        with pytest.raises(BudgetExceededError, match="945 candidate states"):
            brute_force_graph_matching(g, Objective.MINSUM, 944)
