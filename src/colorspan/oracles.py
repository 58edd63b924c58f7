"""Exhaustive reference solvers.

Every optimizer in this package is certified against one of these oracles
at desk scale.  They enumerate the full candidate space with no shortcuts,
and every enumeration is :func:`~colorspan.hardness.exact_covers`, the one
exact-cover search: the geometric oracle walks every choice of one
representative point per color crossed with every perfect pairing of the
colors (the covers of the colors by color pairs, tabled once per color
count), the graph oracle every perfect matching (the covers of the
vertices by edges), and the colorful oracle every colorful edge set.  The
optimum is the first one met in enumeration order.  The geometric
enumeration is evaluated in numpy for speed, but the candidate space is
exactly the stated one.  Its distances come from one ``np.hypot`` block
per color, against every point of a higher color, and a color pair's
distances are a column view of its lower color's block.  The
representative choices ("combos", in mixed-radix order over the classes)
are taken in chunks of ``_CHUNK``, each chunk gathers one distance row
per color pair from those views, and the pairings are
scored against the chunk in blocks, each block one fold over its pairs'
rows per objective.  One geometric enumeration scores every objective it
is given: a block's pairing columns are gathered once and folded into
one accumulator per objective, and the accumulators share the block
budget of ``_BLOCK`` values among them.

Enumerations refuse to start when the predicted state count exceeds the
``max_states`` budget, raising :class:`~colorspan.errors.BudgetExceededError`
through the one check in :mod:`colorspan.hardness`.

The oracles import only the model modules (:mod:`~colorspan.geometry`,
:mod:`~colorspan.hardness` and :mod:`~colorspan.matching`), never the
solvers they certify.  They take the instance guards, and so reject
exactly what the solvers reject, from the models, and score each
objective by the ``Matching`` statistic and direction that
:class:`~colorspan.matching.Objective` declares.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence

import numpy as np

from .geometry import (
    ColoredPointSet,
    _require_finite_distances,
    _require_matching_instance,
    color_spanning_matching,
)
from .hardness import (
    DEFAULT_MAX_STATES,
    VertexColoredGraph,
    _require_colorful_instance,
    check_budget,
    colorful_edge_sets,
    exact_covers,
)
from .matching import Matching, Objective, WeightedGraph

# Representative choices scored per chunk, and the most values one block
# of pairings is scored into at once, over all objectives' accumulators (a
# block holds at least one pairing).
_CHUNK = 1 << 16
_BLOCK = 1 << 15

# How each Matching statistic folds edge weights: the geometric
# enumeration's numpy fold, and the graph oracle's reduction of a list.
_FOLDS = {
    "total_weight": (np.add, sum),
    "min_edge_weight": (np.minimum, min),
    "max_edge_weight": (np.maximum, max),
}


def pairing_count(m: int) -> int:
    """Number of perfect pairings of ``m`` items: (m-1) * (m-3) * ... * 1."""
    if m < 0 or m % 2:
        return 0
    out = 1
    for v in range(m - 1, 0, -2):
        out *= v
    return out


@functools.cache
def _pairing_slots(t: int) -> np.ndarray:
    """Every perfect pairing of ``t`` colors, one read-only row each.

    Row p lists the p-th pairing's color pairs as indexes into
    ``itertools.combinations(range(t), 2)``, pairs in order of their lower
    color, rows in :func:`~colorspan.hardness.exact_covers` order.
    """
    options: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(t)]
    for i, (a, b) in enumerate(itertools.combinations(range(t), 2)):
        options[a].append((i, (a, b)))
    slots = np.fromiter(exact_covers(options), (np.min_scalar_type(t * (t - 1) // 2), t // 2))
    slots.flags.writeable = False
    return slots


def brute_force_geometric(
    point_set: ColoredPointSet,
    objectives: Sequence[Objective],
    max_states: int = DEFAULT_MAX_STATES,
) -> tuple[Matching, ...]:
    """Exact optimum of each objective over every color-spanning matching.

    Enumerates every choice of one representative per color and, for each
    choice, every perfect pairing of the representatives, once for all of
    ``objectives``; the result holds one matching per objective, in order.
    Per chunk of choices, a block of pairings is scored by gathering their
    pairs' distance rows one pairing column at a time and folding each
    column, left to right, into one block-by-chunk accumulator per
    objective (``np.add`` for the sums, ``np.maximum`` or ``np.minimum``
    for the bottleneck objectives), so every sum adds its distances in
    pairing order.  On ties the first optimum in (chunk, pairing, choice)
    order wins: a block's flattened argmin or argmax is its first optimum
    in (pairing, choice) order, and a later block or chunk replaces the
    best only when strictly better.  Like the solvers, it rejects an
    instance in which some color pair's closest distance (farthest, for an
    objective that maximizes) is infinite; the per-pair search for it runs
    only when some distance block holds an inf.
    """
    _require_matching_instance(point_set)
    t = point_set.num_colors
    classes = [point_set.color_indices(c) for c in range(t)]
    sizes = tuple(len(c) for c in classes)
    combos = math.prod(sizes)
    check_budget(combos * pairing_count(t), max_states)

    color_pairs = list(itertools.combinations(range(t), 2))
    points = np.concatenate(classes)
    xs, ys = point_set.xs[points], point_set.ys[points]
    ends = np.cumsum(sizes).tolist()
    # blocks[a]: every distance from a point of color a to one of a higher
    # color, classes side by side; one beyond the float range is inf.
    with np.errstate(over="ignore"):
        blocks = [
            np.hypot(xs[lo:hi, None] - xs[hi:], ys[lo:hi, None] - ys[hi:])
            for lo, hi in zip([0, *ends], ends[:-1])
        ]
    # dmat[i]: color pair i's columns of its lower color's block.
    dmat = [
        blocks[a][:, ends[b - 1] - ends[a] : ends[b] - ends[a]] for a, b in color_pairs
    ]
    maximize = [o.maximize for o in objectives]
    if any(math.isinf(block.max()) for block in blocks):
        for m in maximize:
            extreme = np.ndarray.max if m else np.ndarray.min
            _require_finite_distances(zip(color_pairs, map(extreme, dmat)))
    folds = [_FOLDS[o.statistic][0] for o in objectives]
    # pairing_rows[p, j]: the color pair index of pairing p's j-th pair.
    pairing_rows = _pairing_slots(t)
    # Per objective, (value, pairing index, combo index) of the first optimum met.
    best: list[tuple[float, int, int] | None] = [None] * len(objectives)
    for lo in range(0, combos, _CHUNK):
        hi = min(lo + _CHUNK, combos)
        pos = np.unravel_index(np.arange(lo, hi), sizes)
        # table[i]: color pair i's distance at each combo of the chunk.
        table = np.empty((len(color_pairs), hi - lo))
        for row, d, (a, b) in zip(table, dmat, color_pairs):
            row[:] = d[pos[a], pos[b]]
        # The objectives' accumulators share the _BLOCK values of a block.
        per_block = max(1, _BLOCK // (max(1, len(objectives)) * (hi - lo)))
        for first in range(0, len(pairing_rows), per_block):
            block = pairing_rows[first : first + per_block]
            column = table[block[:, 0]]
            accs = [column] + [column.copy() for _ in folds[1:]]
            # A sum past the float range is inf; the result's check rejects it.
            with np.errstate(over="ignore"):
                for j in range(1, block.shape[1]):
                    column = table[block[:, j]]
                    for fold, acc in zip(folds, accs):
                        fold(acc, column, out=acc)
            for i, (vals, m) in enumerate(zip(accs, maximize)):
                at = int(vals.argmax() if m else vals.argmin())
                v = float(vals.flat[at])
                if best[i] is None or (v > best[i][0] if m else v < best[i][0]):
                    p, c = divmod(at, hi - lo)
                    best[i] = (v, first + p, lo + c)

    def witness(p: int, flat: int) -> Matching:
        pos = np.unravel_index(flat, sizes)
        pairs = [
            (int(classes[a][pos[a]]), int(classes[b][pos[b]]))
            for a, b in map(color_pairs.__getitem__, pairing_rows[p])
        ]
        return color_spanning_matching(point_set, pairs)

    return tuple(witness(p, flat) for _, p, flat in best)


def brute_force_graph_matching(
    g: WeightedGraph,
    objective: Objective,
    max_states: int = DEFAULT_MAX_STATES,
) -> Matching | None:
    """Exact optimum over every perfect matching of ``g``, or None.

    Scores every :func:`~colorspan.hardness.exact_covers` of the vertices
    by ``g``'s edges, the first optimum winning ties.  The budget counts
    every perfect pairing of the vertices.
    """
    n = g.num_vertices
    check_budget(pairing_count(n), max_states)
    options: list[list[tuple[tuple[int, int], tuple[int, int]]]] = [[] for _ in range(n)]
    for u, v, _ in g.edges:
        options[u].append(((u, v), (u, v)))
    wmap = g.weight_map
    stat = _FOLDS[objective.statistic][1]
    pick = max if objective.maximize else min
    # Covers come out sorted, the order Matching sums in, so sums compare
    # bit-exactly; the empty graph's one cover scores 0, as an empty Matching.
    best = pick(
        exact_covers(options),
        key=lambda edges: stat([wmap[e] for e in edges] or [0.0]),
        default=None,
    )
    return None if best is None else Matching.from_weighted_edges((*e, wmap[e]) for e in best)


def brute_force_colorful_graph_matching(
    g: VertexColoredGraph,
    max_states: int = DEFAULT_MAX_STATES,
) -> Matching | None:
    """Minimum-weight colorful perfect matching by exhaustive search.

    Takes the minimum total over :func:`~colorspan.hardness.colorful_edge_sets`
    (the first in enumeration order on ties), or returns None when no such
    set exists.  Instances the colorful solver rejects are rejected alike.
    """
    _require_colorful_instance(g)
    weights = [g.weight(pos) for pos in range(len(g.edges))]
    best = min(
        colorful_edge_sets(g, max_states),
        key=lambda chosen: sum(weights[pos] for pos in sorted(chosen)),
        default=None,
    )
    if best is None:
        return None
    return Matching.from_weighted_edges((*g.edges[pos], weights[pos]) for pos in best)
