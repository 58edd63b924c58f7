"""Exhaustive reference solvers.

Every optimizer in this package is certified against one of these oracles
at desk scale.  They enumerate the full candidate space with no shortcuts:
the geometric oracle walks every choice of one representative point per
color crossed with every perfect pairing of the chosen representatives,
and the graph oracles walk every perfect pairing, respectively every
colorful edge subset.  The geometric enumeration is evaluated in numpy
for speed, but the candidate space is exactly the stated one: the
representative choices ("combos", in mixed-radix order over the classes)
are taken in chunks of ``_CHUNK``, each chunk gathers one distance row per
color pair, and the pairings are scored against the chunk in blocks of at
most ``_BLOCK`` values, each block one fold over its pairs' rows.

Enumerations refuse to start when the predicted state count exceeds the
``max_states`` budget, raising :class:`~colorspan.errors.BudgetExceededError`
through the one check in :mod:`colorspan.hardness`, which also owns the
colorful edge-set enumerator behind the colorful oracle.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .geometry import ColoredPointSet
from .hardness import DEFAULT_MAX_STATES, VertexColoredGraph, check_budget, colorful_edge_sets
from .matching import Matching, Objective, WeightedGraph
from .solvers import _require_matching_instance, color_spanning_matching

# Representative choices scored per chunk, and the most values one block
# of pairings is scored into at once (a block holds at least one pairing).
_CHUNK = 1 << 16
_BLOCK = 1 << 15


def perfect_pairings(items: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All ways to split ``items`` into unordered pairs.

    The lowest remaining item is always matched first, so each pairing is
    produced exactly once and pairs come out ordered.
    """
    items = list(items)
    if len(items) % 2:
        return
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in perfect_pairings(remaining):
            yield ((first, partner), *tail)


def pairing_count(m: int) -> int:
    """Number of perfect pairings of ``m`` items: (m-1) * (m-3) * ... * 1."""
    if m < 0 or m % 2:
        return 0
    out = 1
    for v in range(m - 1, 0, -2):
        out *= v
    return out


def brute_force_geometric(
    point_set: ColoredPointSet,
    objective: Objective,
    max_states: int = DEFAULT_MAX_STATES,
) -> Matching:
    """Exact optimum over every color-spanning matching of the point set.

    Enumerates every choice of one representative per color and, for each
    choice, every perfect pairing of the representatives.  Per chunk of
    choices, a block of pairings is scored by folding their pairs' distance
    rows left to right (``np.add`` for the sums, ``np.maximum`` or
    ``np.minimum`` for the bottleneck objectives) into one block-by-chunk
    array, so every sum adds its distances in pairing order.  On ties the
    first optimum in (chunk, pairing, choice) order wins: a block's
    flattened argmin or argmax is its first optimum in (pairing, choice)
    order, and a later block or chunk replaces the best only when strictly
    better.
    """
    _require_matching_instance(point_set)
    t = point_set.num_colors
    classes = [point_set.color_indices(c) for c in range(t)]
    sizes = tuple(len(c) for c in classes)
    combos = math.prod(sizes)
    check_budget(combos * pairing_count(t), max_states)

    xs, ys = point_set.xs, point_set.ys
    color_pairs = list(itertools.combinations(range(t), 2))
    # dmat[i]: every distance between the classes of color pair i.
    dmat = [
        np.hypot(
            xs[classes[a]][:, None] - xs[classes[b]][None, :],
            ys[classes[a]][:, None] - ys[classes[b]][None, :],
        )
        for a, b in color_pairs
    ]
    slot = {pair: i for i, pair in enumerate(color_pairs)}
    pairings = list(perfect_pairings(range(t)))
    # pairing_rows[p, j]: the color pair index of pairing p's j-th pair.
    pairing_rows = np.array(
        [[slot[pair] for pair in pairing] for pairing in pairings], dtype=np.intp
    )
    maximize = objective in (Objective.MAXSUM, Objective.MAXMIN)
    if objective in (Objective.MINSUM, Objective.MAXSUM):
        fold = np.add
    else:
        fold = np.maximum if objective is Objective.MINMAX else np.minimum
    # (value, pairing index, combo index) of the first optimum met.
    best: tuple[float, int, int] | None = None
    for lo in range(0, combos, _CHUNK):
        hi = min(lo + _CHUNK, combos)
        pos = np.unravel_index(np.arange(lo, hi), sizes)
        # table[i]: color pair i's distance at each combo of the chunk.
        table = np.empty((len(color_pairs), hi - lo))
        for row, d, (a, b) in zip(table, dmat, color_pairs):
            row[:] = d[pos[a], pos[b]]
        per_block = max(1, _BLOCK // (hi - lo))
        for first in range(0, len(pairings), per_block):
            block = pairing_rows[first : first + per_block]
            vals = table[block[:, 0]]
            for j in range(1, block.shape[1]):
                fold(vals, table[block[:, j]], out=vals)
            at = int(vals.argmax() if maximize else vals.argmin())
            v = float(vals.flat[at])
            if best is None or (v > best[0] if maximize else v < best[0]):
                p, c = divmod(at, hi - lo)
                best = (v, first + p, lo + c)

    assert best is not None
    _, p, flat = best
    pos = np.unravel_index(flat, sizes)
    pairs = [
        (int(classes[a][pos[a]]), int(classes[b][pos[b]])) for a, b in pairings[p]
    ]
    return color_spanning_matching(point_set, pairs)


def brute_force_graph_matching(
    g: WeightedGraph,
    objective: Objective,
    max_states: int = DEFAULT_MAX_STATES,
) -> Matching | None:
    """Exact optimum over every perfect matching of ``g``, or None.

    Walks :func:`perfect_pairings` of all vertices and skips each pairing
    that uses a missing edge.
    """
    n = g.num_vertices
    if n == 0:
        return Matching.empty()
    check_budget(pairing_count(n), max_states)

    wmap = g.weight_map
    maximize = objective in (Objective.MAXSUM, Objective.MAXMIN)
    summed = objective in (Objective.MINSUM, Objective.MAXSUM)
    best_val: float | None = None
    best_edges: tuple[tuple[int, int], ...] | None = None
    for pairing in perfect_pairings(range(n)):
        if not all(e in wmap for e in pairing):
            continue
        # Pairings come out sorted, the canonical statistic order used by
        # Matching, so sums compare bit-exactly.
        ws = [wmap[e] for e in pairing]
        if summed:
            v = sum(ws)
        else:
            v = max(ws) if objective is Objective.MINMAX else min(ws)
        if best_val is None or (v > best_val if maximize else v < best_val):
            best_val, best_edges = v, pairing
    if best_edges is None:
        return None
    return Matching.from_edges(g, best_edges)


def brute_force_colorful_graph_matching(
    g: VertexColoredGraph,
    max_states: int = DEFAULT_MAX_STATES,
) -> Matching | None:
    """Minimum-weight colorful perfect matching by exhaustive search.

    Takes the minimum total over :func:`~colorspan.hardness.colorful_edge_sets`
    (the first in enumeration order on ties), or returns None when no such
    set exists (including when the color count is odd).
    """
    t = g.num_colors
    if t % 2 or t == 0:
        return None
    weights = [g.weight(pos) for pos in range(len(g.edges))]
    best_val: float | None = None
    best: tuple[int, ...] | None = None
    for chosen in colorful_edge_sets(g, max_states):
        v = sum(weights[pos] for pos in sorted(chosen))
        if best_val is None or v < best_val:
            best_val, best = v, chosen
    if best is None:
        return None
    return Matching.from_weighted_edges((*g.edges[pos], weights[pos]) for pos in best)
