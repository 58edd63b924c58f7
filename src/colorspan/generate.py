"""Seeded random instance generators.

All randomness flows through ``numpy.random.default_rng`` seeded with the
caller's seed, i.e. the PCG64 generator with numpy's documented stream
constants, so a given seed produces the same instance on every platform
and every run.  Seeds must be non-negative; out-of-range arguments raise
:class:`~colorspan.errors.InvalidInstanceError`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInstanceError
from .geometry import ColoredPointSet
from .hardness import VertexColoredGraph
from .matching import WeightedGraph

DISTRIBUTIONS = ("uniform", "clusters")


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidInstanceError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _color_assignment(
    rng, n: int, num_colors: int, max_class_size: int | None, items: str
) -> np.ndarray:
    """Random colors for ``n`` items (named ``items`` in errors, "points"
    or "vertices") covering every label, optionally capping class sizes."""
    if num_colors < 1:
        raise InvalidInstanceError(f"color count must be positive, got {num_colors}")
    if num_colors > n:
        raise InvalidInstanceError(f"cannot cover {num_colors} colors with {n} {items}")
    base = np.arange(num_colors)
    if max_class_size is None:
        extra = rng.integers(0, num_colors, size=n - num_colors)
    else:
        if max_class_size < 1 or n > num_colors * max_class_size:
            raise InvalidInstanceError(
                f"{n} {items} cannot fit {num_colors} classes of size <= {max_class_size}"
            )
        pool = np.repeat(base, max_class_size - 1)
        extra = rng.permutation(pool)[: n - num_colors]
    return rng.permutation(np.concatenate([base, extra]))


def generate_points(
    n: int,
    num_colors: int,
    seed: int,
    distribution: str = "uniform",
    max_class_size: int | None = None,
) -> ColoredPointSet:
    """Random colored points in the unit square, every color present.

    ``clusters`` draws one center per color and scatters that color's
    points around it, which keeps bichromatic extremes interesting.
    """
    if distribution not in DISTRIBUTIONS:
        raise InvalidInstanceError(
            f"unknown distribution {distribution!r}; expected one of {DISTRIBUTIONS}"
        )
    rng = _rng(seed)
    colors = _color_assignment(rng, n, num_colors, max_class_size, "points")
    if distribution == "uniform":
        coords = rng.random((n, 2))
    else:
        centers = rng.random((num_colors, 2))
        coords = centers[colors] + rng.normal(0.0, 0.08, size=(n, 2))
    return ColoredPointSet(coords[:, 0], coords[:, 1], colors, num_colors)


def generate_matching_instance(k: int, seed: int, max_class_size: int = 5) -> ColoredPointSet:
    """Random geometric matching instance with 2k colors.

    Class sizes are drawn uniformly from 1 to ``max_class_size``, which
    keeps the exhaustive oracle's state count small.
    """
    if k < 1:
        raise InvalidInstanceError("k must be positive")
    if max_class_size < 1:
        raise InvalidInstanceError(f"max class size must be positive, got {max_class_size}")
    rng = _rng(seed)
    t = 2 * k
    sizes = rng.integers(1, max_class_size + 1, size=t)
    colors = rng.permutation(np.repeat(np.arange(t), sizes))
    coords = rng.random((len(colors), 2))
    return ColoredPointSet(coords[:, 0], coords[:, 1], colors, t)


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex pairs ``(u, v)``, ``u < v``, in lexicographic order."""
    return np.nonzero(np.arange(n)[:, None] < np.arange(n))


def _random_graph(n: int, seed: int, edge_prob: float, num_colors: int | None):
    """The seeded generator, the colors (None when ``num_colors`` is) and
    the edges ``(u, v)``, ``u < v``, each pair kept when its draw falls
    below ``edge_prob``; pairs draw in lexicographic order, after the
    colors, in one call, which gives the stream of one draw per pair."""
    if not 0.0 <= edge_prob <= 1.0:
        raise InvalidInstanceError(f"edge probability must be in [0, 1], got {edge_prob}")
    rng = _rng(seed)
    colors = None
    if num_colors is not None:
        colors = _color_assignment(rng, n, num_colors, None, "vertices")
    u, v = _pairs(n)
    keep = rng.random(len(u)) < edge_prob
    return rng, colors, list(zip(u[keep].tolist(), v[keep].tolist()))


def generate_colored_graph(
    n: int,
    num_colors: int,
    seed: int,
    edge_prob: float = 0.5,
    weighted: bool = True,
) -> VertexColoredGraph:
    """Random simple vertex-colored graph, every color present."""
    rng, colors, edges = _random_graph(n, seed, edge_prob, num_colors)
    weights = [float(w) for w in rng.random(len(edges))] if weighted else None
    return VertexColoredGraph(n, [int(c) for c in colors], edges, num_colors, weights)


def generate_colorful_matching_instance(
    k: int, seed: int, max_vertices: int = 14, edge_prob: float = 0.5
) -> VertexColoredGraph:
    """Random graph-side matching instance with 2k colors."""
    if k < 1:
        raise InvalidInstanceError("k must be positive")
    t = 2 * k
    if max_vertices < t:
        raise InvalidInstanceError(f"need at least {t} vertices, got cap {max_vertices}")
    rng = _rng(seed)
    n = int(rng.integers(t, max_vertices + 1))
    sub_seed = int(rng.integers(0, 2**63 - 1))
    return generate_colored_graph(n, t, sub_seed, edge_prob=edge_prob)


def generate_uncolored_graph(n: int, seed: int, edge_prob: float = 0.5) -> WeightedGraph:
    """Random simple uncolored graph with unit weights."""
    _, _, edges = _random_graph(n, seed, edge_prob, None)
    return WeightedGraph(n, [(u, v, 1.0) for u, v in edges])


def generate_complete_weighted_graph(n: int, seed: int) -> WeightedGraph:
    """Complete graph on n vertices with uniform random weights."""
    rng = _rng(seed)
    u, v = _pairs(n)
    return WeightedGraph(n, zip(u.tolist(), v.tolist(), rng.random(len(u)).tolist()))
