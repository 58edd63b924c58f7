"""Reductions between colorful independent-set style problems, with
exhaustive solvers small enough to certify them.

Two constructions are implemented:

* ``reduce_is_to_mcis`` turns a plain independent-set instance ``(G, k)``
  into a colorful independent-set instance on ``k`` vertex copies of
  ``G``.  Copies of adjacent source vertices are interconnected, and all
  copies of the same source vertex are interconnected as well; without the
  latter, a graph with an isolated vertex could fake a size-``k`` colorful
  solution by picking the same vertex in several copies.
* ``reduce_mcis_to_mcim`` turns a colorful independent-set instance into a
  colorful independent-matching instance by adding one pendant-color
  anchor vertex per source color.

``certify_equivalence`` runs the chain end to end on one instance and
checks that all three feasibility answers agree, lifting the colorful
witnesses back to source vertices through the recorded provenance.

This module also holds the exhaustive-search core shared with
:mod:`colorspan.oracles`: the state budget (``DEFAULT_MAX_STATES`` and
``check_budget``, which raises :class:`BudgetExceededError` before any
enumeration whose predicted state count exceeds ``max_states``) and
``exact_covers``, the one enumerator behind every exhaustive search.  It
lists the ways to cover each color exactly once by items that each cover
a few colors, always covering the lowest uncovered color next.  One
vertex per color gives ``brute_force_mcis``; cross-color edges give
``colorful_edge_sets``, of which ``brute_force_mcim`` takes the first set
whose edges are pairwise independent and the colorful graph oracle the one
of minimum total weight; the oracles' perfect pairings are covers too.
The colorful solver and its oracle take their instance guard from here,
so both reject the same graphs with the same message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, repeat
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import BudgetExceededError, EquivalenceViolationError, InvalidInstanceError
from .matching import WeightedGraph, _edge_keys

DEFAULT_MAX_STATES = 10_000_000

_Item = TypeVar("_Item")


@dataclass(frozen=True)
class VertexColoredGraph:
    """A simple undirected graph whose vertices carry color labels.

    Every color lies in ``[0, num_colors)``.  The edges follow the rules
    of :func:`~colorspan.matching._edge_keys`: endpoints in
    ``[0, num_vertices)``, no self-loops, no edge twice in either
    orientation (unlike :class:`WeightedGraph`, which collapses parallel
    edges), and finite, non-negative weights.  Edges are normalized to
    ``u < v`` and sorted; ``weights``, when present, is parallel to
    ``edges``.
    """

    num_vertices: int
    colors: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    num_colors: int
    weights: tuple[float, ...] | None = None

    def __init__(
        self,
        num_vertices: int,
        colors: Iterable[int],
        edges: Iterable[tuple[int, int]],
        num_colors: int,
        weights: Iterable[float] | None = None,
    ):
        colors = tuple(int(c) for c in colors)
        if num_vertices < 0:
            raise InvalidInstanceError("vertex count must be non-negative")
        if len(colors) != num_vertices:
            raise InvalidInstanceError("need exactly one color per vertex")
        if num_colors < 0:
            raise InvalidInstanceError("color count must be non-negative")
        for c in colors:
            if not 0 <= c < num_colors:
                raise InvalidInstanceError(f"color {c} out of range [0, {num_colors})")
        raw = list(edges)
        wlist = None if weights is None else [float(w) for w in weights]
        if wlist is not None and len(wlist) != len(raw):
            raise InvalidInstanceError("need exactly one weight per edge")
        given = repeat(1.0) if wlist is None else wlist
        keys = _edge_keys(num_vertices, raw, given, distinct=True)
        if wlist:
            ordered = sorted(zip(keys, wlist))
            keys, wlist = [key for key, _ in ordered], [w for _, w in ordered]
        else:
            keys = sorted(keys)
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "edges", tuple(keys))
        object.__setattr__(self, "num_colors", int(num_colors))
        object.__setattr__(self, "weights", None if wlist is None else tuple(wlist))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def color_classes(self) -> tuple[tuple[int, ...], ...]:
        buckets: list[list[int]] = [[] for _ in range(self.num_colors)]
        for v, c in enumerate(self.colors):
            buckets[c].append(v)
        return tuple(tuple(b) for b in buckets)

    def weight(self, index: int) -> float:
        """Weight of the edge at ``index``; unweighted graphs read 1.0."""
        return 1.0 if self.weights is None else self.weights[index]


def _require_even_color_count(g: VertexColoredGraph) -> None:
    """Rejects a color count that no colorful matching can cover."""
    t = g.num_colors
    if t % 2 or t < 2:
        raise InvalidInstanceError(
            f"colorful matching needs an even, positive color count, got {t}"
        )


def _require_colorful_instance(g: VertexColoredGraph) -> None:
    """Rejects a graph that no colorful perfect matching can cover."""
    _require_even_color_count(g)
    empty = [c for c, cls in enumerate(g.color_classes) if not cls]
    if empty:
        raise InvalidInstanceError(f"colors without vertices: {empty}")


@dataclass(frozen=True)
class ReductionArtifact:
    """A reduction output plus the origin of every produced vertex.

    ``provenance`` maps each output vertex to ``(source id, tag)``, where
    the tag distinguishes vertex copies from gadget vertices; for gadget
    vertices the source id is the color they anchor.
    """

    graph: VertexColoredGraph
    provenance: dict[int, tuple[int, str]]

    def __post_init__(self):
        if set(self.provenance) != set(range(self.graph.num_vertices)):
            raise InvalidInstanceError("provenance must cover every output vertex")


def reduce_is_to_mcis(g: WeightedGraph, k: int) -> ReductionArtifact:
    """Independent set to colorful independent set, via ``k`` colored copies.

    Copy ``i`` of source vertex ``v`` becomes output vertex ``i*n + v``
    with color ``i``.  Besides the per-copy images of the source edges,
    copies of the two endpoints of every source edge are fully
    interconnected across copies, and so are the copies of every single
    vertex; the output is kept simple, so coinciding gadget edges appear
    once.  The source graph has an independent set of ``k`` distinct
    vertices iff the output has a colorful independent set of size ``k``.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidInstanceError(f"copy count must be a positive integer, got {k!r}")
    n = g.num_vertices
    src_edges = [(u, v) for u, v, _ in g.edges]
    out_edges: set[tuple[int, int]] = set()
    for i in range(k):
        off = i * n
        out_edges.update((off + u, off + v) for u, v in src_edges)
    for i in range(k):
        for j in range(i + 1, k):
            oi, oj = i * n, j * n
            for x in range(n):
                out_edges.add((oi + x, oj + x))
            for u, v in src_edges:
                out_edges.add((oi + u, oj + v))
                out_edges.add((oi + v, oj + u))
    colors = [i for i in range(k) for _ in range(n)]
    provenance = {i * n + v: (v, f"copy{i}") for i in range(k) for v in range(n)}
    graph = VertexColoredGraph(k * n, colors, out_edges, k)
    return ReductionArtifact(graph=graph, provenance=provenance)


def reduce_mcis_to_mcim(g: VertexColoredGraph) -> ReductionArtifact:
    """Colorful independent set to colorful independent matching.

    One anchor vertex per source color is appended: anchor ``i`` sits at
    output id ``n + i`` with the fresh color ``k + i`` and connects to
    exactly the source vertices of color ``i``.  The output therefore has
    ``n + k`` vertices, ``m + n`` edges and ``2k`` colors, and it has a
    colorful independent matching of size ``k`` iff the source has a
    colorful independent set of size ``k``.
    """
    k = g.num_colors
    if k < 1:
        raise InvalidInstanceError("source graph must have at least one color")
    n = g.num_vertices
    colors = list(g.colors) + [k + i for i in range(k)]
    edges = list(g.edges) + [(v, n + g.colors[v]) for v in range(n)]
    provenance: dict[int, tuple[int, str]] = {v: (v, "source") for v in range(n)}
    provenance.update({n + i: (i, "gadget") for i in range(k)})
    graph = VertexColoredGraph(n + k, colors, edges, 2 * k)
    return ReductionArtifact(graph=graph, provenance=provenance)


def check_budget(states: int, max_states: int) -> None:
    """Refuse an enumeration whose predicted state count exceeds the budget.

    A count too long to convert to decimal (see
    ``sys.set_int_max_str_digits``) is bounded below by a power of ten
    taken from its bit length.
    """
    if states > max_states:
        try:
            count = str(states)
        except ValueError:
            count = f"more than 10^{math.floor((states.bit_length() - 1) * math.log10(2))}"
        raise BudgetExceededError(f"{count} candidate states exceed the budget of {max_states}")


def exact_covers(
    options: Sequence[Sequence[tuple[_Item, Sequence[int]]]],
    fits: Callable[[_Item, tuple[_Item, ...]], bool] | None = None,
) -> Iterator[tuple[_Item, ...]]:
    """Every way to cover colors ``0 .. len(options) - 1`` exactly once.

    ``options[c]`` lists ``(item, colors)`` for the items whose lowest
    color is ``c``.  The search covers the lowest uncovered color next,
    trying its options in list order (Knuth's Algorithm X with a fixed
    column rule), and skips an item that overlaps a covered color or that
    ``fits(item, chosen)`` rejects against the items chosen so far.  Each
    cover is yielded as the tuple of its items in the order chosen.
    """
    covered: set[int] = set()

    def extend(c: int, chosen: tuple[_Item, ...]) -> Iterator[tuple[_Item, ...]]:
        while c in covered:
            c += 1
        if c == len(options):
            yield chosen
            return
        for item, colors in options[c]:
            if covered.isdisjoint(colors) and (fits is None or fits(item, chosen)):
                covered.update(colors)
                yield from extend(c + 1, (*chosen, item))
                covered.difference_update(colors)

    return extend(0, ())


def colorful_edge_sets(
    g: VertexColoredGraph,
    max_states: int,
    fits: Callable[[int, tuple[int, ...]], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Every set of ``num_colors / 2`` cross-color edges covering each color
    once, as positions into ``g.edges``; the color count must be even.

    The :func:`exact_covers` of the cross-color edges, each an option of its
    lower color in edge order.  ``fits(pos, chosen)``, when given, prunes
    edge ``pos`` against the positions chosen so far.  The budget is
    checked on the call, against the number of edge subsets of that size.
    """
    options: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(g.num_colors)]
    for pos, (u, v) in enumerate(g.edges):
        cu, cv = g.colors[u], g.colors[v]
        if cu != cv:
            options[min(cu, cv)].append((pos, (cu, cv)))
    check_budget(math.comb(sum(map(len, options)), g.num_colors // 2), max_states)
    return exact_covers(options, fits)


def find_k_independent_set(
    g: WeightedGraph, k: int, max_states: int = DEFAULT_MAX_STATES
) -> tuple[int, ...] | None:
    """First independent set of ``k`` distinct vertices, or None."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidInstanceError(f"set size must be a positive integer, got {k!r}")
    n = g.num_vertices
    if k > n:
        return None
    check_budget(math.comb(n, k), max_states)
    for subset in combinations(range(n), k):
        if not any(g.has_edge(u, v) for u, v in combinations(subset, 2)):
            return subset
    return None


def brute_force_mcis(
    g: VertexColoredGraph, max_states: int = DEFAULT_MAX_STATES
) -> tuple[int, ...] | None:
    """A colorful independent set covering all colors, or None.

    The first of the :func:`exact_covers` that take one vertex per color
    class, lowest colors first, pruned against adjacency.
    """
    classes = g.color_classes
    check_budget(math.prod(len(cls) for cls in classes), max_states)
    adj = g.adjacency
    options = [[(v, (c,)) for v in cls] for c, cls in enumerate(classes)]
    return next(
        exact_covers(options, lambda v, chosen: all(v not in adj[u] for u in chosen)), None
    )


def brute_force_mcim(
    g: VertexColoredGraph, max_states: int = DEFAULT_MAX_STATES
) -> tuple[tuple[int, int], ...] | None:
    """A colorful independent matching covering all colors, or None.

    The matching must consist of ``num_colors / 2`` edges whose endpoints
    carry pairwise distinct colors, with no graph edge joining endpoints
    of two different chosen edges.  The two endpoints of a single chosen
    edge are of course adjacent; only cross-edge adjacency is forbidden.
    This is the first of :func:`colorful_edge_sets` whose edges are
    pairwise independent.

    Unlike the colorful solver, a color without vertices is not rejected
    but infeasible (None): :func:`certify_equivalence` reaches that case
    on an empty source graph and reports every bit false.
    """
    _require_even_color_count(g)
    edges, adj = g.edges, g.adjacency

    def independent_with_chosen(pos: int, chosen: tuple[int, ...]) -> bool:
        u, v = edges[pos]
        for x, y in map(edges.__getitem__, chosen):
            if u in adj[x] or u in adj[y] or v in adj[x] or v in adj[y]:
                return False
        return True

    found = next(colorful_edge_sets(g, max_states, independent_with_chosen), None)
    return None if found is None else tuple(edges[pos] for pos in found)


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Feasibility bits of one reduction chain plus lifted witnesses."""

    k: int
    has_independent_set: bool
    has_colorful_independent_set: bool
    has_colorful_independent_matching: bool
    independent_set: tuple[int, ...] | None
    lifted_colorful_set: tuple[int, ...] | None
    lifted_matching_set: tuple[int, ...] | None


def _check_source_independent(g: WeightedGraph, vertices: tuple[int, ...], k: int, what: str):
    if len(set(vertices)) != k:
        raise EquivalenceViolationError(f"{what} does not lift to {k} distinct vertices")
    for u, v in combinations(sorted(vertices), 2):
        if g.has_edge(u, v):
            raise EquivalenceViolationError(f"{what} lifts to adjacent vertices ({u}, {v})")


def certify_equivalence(
    g: WeightedGraph, k: int, max_states: int = DEFAULT_MAX_STATES
) -> EquivalenceCertificate:
    """Run both reductions on ``(g, k)`` and check feasibility agreement.

    Raises :class:`EquivalenceViolationError` when the three exhaustive
    answers disagree or a lifted witness is not an independent set of the
    source graph; either would be an implementation bug.
    """
    direct = find_k_independent_set(g, k, max_states)
    # The state counts brute_force_mcis predicts for k classes of n copies
    # and brute_force_mcim for the k-subsets of the second reduction's
    # cross-color edges (C(k, 2) * (n + 2m) copy-to-copy edges plus k * n
    # anchor edges), checked before either reduction is built.
    n, m = g.num_vertices, len(g.edges)
    check_budget(n**k, max_states)
    check_budget(math.comb(math.comb(k, 2) * (n + 2 * m) + k * n, k), max_states)
    step1 = reduce_is_to_mcis(g, k)
    colorful = brute_force_mcis(step1.graph, max_states)
    step2 = reduce_mcis_to_mcim(step1.graph)
    matching = brute_force_mcim(step2.graph, max_states)

    bits = (direct is not None, colorful is not None, matching is not None)
    if len(set(bits)) != 1:
        raise EquivalenceViolationError(
            f"feasibility disagreement for k={k}: "
            f"independent_set={bits[0]}, colorful_set={bits[1]}, matching={bits[2]}"
        )

    lifted_set = None
    lifted_matching = None
    if colorful is not None:
        lifted_set = tuple(sorted(step1.provenance[v][0] for v in colorful))
        _check_source_independent(g, lifted_set, k, "colorful independent set")
    if matching is not None:
        sources = []
        for u, v in matching:
            for end in (u, v):
                src, tag = step2.provenance[end]
                if tag == "source":
                    sources.append(step1.provenance[src][0])
        lifted_matching = tuple(sorted(sources))
        _check_source_independent(g, lifted_matching, k, "colorful independent matching")

    return EquivalenceCertificate(
        k=k,
        has_independent_set=bits[0],
        has_colorful_independent_set=bits[1],
        has_colorful_independent_matching=bits[2],
        independent_set=tuple(direct) if direct is not None else None,
        lifted_colorful_set=lifted_set,
        lifted_matching_set=lifted_matching,
    )
