import math
from collections import Counter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import pytest

from colorspan import ColoredPointSet, solvers
from colorspan.generate import generate_points
from colorspan.geometry import (
    _ABS_SLACK,
    _COS,
    _SCAN_CUTOFF,
    _SIN,
    ColorGraph,
    _exact_edges,
    _outer_candidates,
    _unit_scaled,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# The point-set families of ``varied_set``.
FAMILIES = ("uniform", "clusters", "lattice", "coincident", "scaled", "mixed")


@pytest.fixture(scope="session")
def figure1_text() -> str:
    return (FIXTURE_DIR / "figure1.points").read_text()


@pytest.fixture(scope="session")
def figure2_text() -> str:
    return (FIXTURE_DIR / "figure2.points").read_text()


@pytest.fixture
def build_counts(monkeypatch) -> Counter:
    """Calls of each color graph builder by name, counted through
    wrappers on the ``solvers`` module names the solvers call."""
    counts: Counter = Counter()
    for name in ("build_closest_color_graph", "build_farthest_color_graph"):

        def counted(point_set, *args, name=name, build=getattr(solvers, name), **kwargs):
            counts[name] += 1
            return build(point_set, *args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    return counts


def perfect_pairings(items: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Reference: all ways to split ``items`` into unordered pairs.

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


def exhaustive_color_extremes(ps: ColoredPointSet, mode: str):
    """Reference bichromatic extremes by full scan, with the tie-break.

    Returns ``{(ci, cj): (distance, a, b)}``, ``a`` of color ``ci``,
    computed with the same exact arithmetic the library is required to use.
    """
    out = {}
    for i in range(ps.num_colors):
        for j in range(i + 1, ps.num_colors):
            best = None
            for a in ps.color_indices(i):
                for b in ps.color_indices(j):
                    a, b = int(a), int(b)
                    d = math.hypot(
                        float(ps.xs[a]) - float(ps.xs[b]), float(ps.ys[a]) - float(ps.ys[b])
                    )
                    key = (d, a, b) if mode == "closest" else (-d, a, b)
                    if best is None or key < best:
                        best = key
            d, a, b = best
            out[(i, j)] = (abs(d) if mode == "closest" else -d, a, b)
    return out


def farthest_scaled(ps: ColoredPointSet) -> tuple[np.ndarray, np.ndarray, float]:
    """The unit-scaled coordinates and the slack of the farthest builder."""
    sx, sy, slack = _unit_scaled(ps)
    return sx, sy, slack + _ABS_SLACK


def distinct_indices(ps: ColoredPointSet, idx: np.ndarray) -> np.ndarray:
    """Reference: the lowest index of each distinct coordinate among
    ``idx``, sorted (0.0 and -0.0 compare equal)."""
    # lexsort is stable, so each run of equal coordinates starts at its
    # lowest index.
    xs, ys = ps.xs[idx], ps.ys[idx]
    order = np.lexsort((ys, xs))
    xs, ys = xs[order], ys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    return np.sort(idx[order[first]])


def off_ring_reference(
    xs: np.ndarray, ys: np.ndarray, cos: np.ndarray, sin: np.ndarray, slack: float
) -> np.ndarray:
    """Reference for one class: True for each point unless it lies over
    ``slack`` inside every edge line of the ring through the points'
    extremes in the directions ``(cos, sin)``, by an orientation test
    with a per-point rounding bound; True for all when the ring has fewer
    than three vertices."""
    ring = np.argmax(np.multiply.outer(xs, cos) + np.multiply.outer(ys, sin), axis=0)
    ring = ring[ring != np.concatenate((ring[-1:], ring[:-1]))]
    if len(ring) < 3:
        return np.ones(len(xs), dtype=bool)
    ux, uy = xs[ring], ys[ring]
    ahead = np.concatenate((ring[1:], ring[:1]))
    ex, ey = xs[ahead] - ux, ys[ahead] - uy
    t1 = ex * (ys[:, None] - uy)
    t2 = ey * (xs[:, None] - ux)
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    margin = 8 * eps * (np.abs(t1) + np.abs(t2)) + slack * np.hypot(ex, ey) + tiny
    return ~(t1 - t2 > margin).all(axis=1)


def outer_reference(ps: ColoredPointSet) -> np.ndarray:
    """Reference outer points, one class at a time: the octagon of every
    fourth ``_COS, _SIN`` direction on the raw class, then the ring of all
    of them on the distinct survivors; in order of color, then index."""
    sx, sy, slack = farthest_scaled(ps)
    classes = []
    for c in range(ps.num_colors):
        idx = ps.color_indices(c)
        idx = idx[off_ring_reference(sx[idx], sy[idx], _COS[::4], _SIN[::4], slack)]
        reps = distinct_indices(ps, idx)
        classes.append(reps[off_ring_reference(sx[reps], sy[reps], _COS, _SIN, slack)])
    return np.concatenate(classes)


def outer_farthest_graph(ps: ColoredPointSet) -> ColorGraph:
    """The farthest color graph from the outer-point candidates, which the
    builder uses only above its full-scan cutoff, at any set size."""
    sx, sy, slack = farthest_scaled(ps)
    witnesses = _exact_edges(ps, *_outer_candidates(ps, sx, sy, slack), sx, sy, slack, -1)
    return ColorGraph(ps.num_colors, witnesses)


def many_points(seed: int, i: int) -> ColoredPointSet:
    """Instance ``i`` of the many-points benchmark workload at ``seed``."""
    return generate_points(10_000, 20, seed * 1_000_003 + i, "clusters")


def varied_set(seed: int) -> ColoredPointSet:
    """A set of one of ``FAMILIES``, past the full-scan cutoff."""
    rng = np.random.default_rng(seed)
    family = FAMILIES[seed % len(FAMILIES)]
    n = int(rng.integers(_SCAN_CUTOFF + 1, 5001))
    t = 2 * int(rng.integers(1, 21))
    colors = rng.permutation(np.r_[np.arange(t), rng.integers(0, t, n - t)])
    if family == "lattice":
        side = max(2, int(math.sqrt(n)) // 3)
        xs, ys = rng.integers(0, side, (2, n)).astype(float)
    elif family == "coincident":
        sites = rng.random((2, n // 20 + 1))
        xs, ys = sites[:, rng.integers(0, sites.shape[1], n)]
    elif family in ("clusters", "mixed"):
        centers = rng.random((2, t))
        xs, ys = centers[:, colors] + rng.normal(0, 0.05, (2, n))
    else:
        xs, ys = rng.random((2, n))
    if family == "scaled":
        scale = 10.0 ** int(rng.integers(-200, 201))
        xs, ys = xs * scale, ys * scale
    if family == "mixed":
        # One scale per class: the far classes' closest pairs span many
        # binades, and the near ones crowd into one grid cell.
        exponent = rng.integers(-15, 16, t)[colors]
        xs, ys = np.ldexp(xs, exponent), np.ldexp(ys, exponent)
    return ColoredPointSet(xs, ys, colors, t)


def far_clusters() -> ColoredPointSet:
    """Four tight clusters, one per color, far apart: no color pair has a
    pair in the grid, so every color's pairs are walked before Λ."""
    rng = np.random.default_rng(3)
    xs = np.concatenate([x + rng.normal(0, 0.1, 150) for x in (0, 10, 0, 10)])
    ys = np.concatenate([y + rng.normal(0, 0.1, 150) for y in (0, 0, 10, 10)])
    return ColoredPointSet(xs, ys, np.repeat(np.arange(4), 150), 4)
