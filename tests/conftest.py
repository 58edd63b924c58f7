import math
from collections import Counter
from pathlib import Path
from typing import Iterator, Sequence

import pytest

from colorspan import ColoredPointSet, solvers
from colorspan.geometry import (
    ColorGraph,
    _exact_edges,
    _outer_candidates,
    _unit_scaled,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


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

        def counted(point_set, name=name, build=getattr(solvers, name)):
            counts[name] += 1
            return build(point_set)

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


def outer_farthest_graph(ps: ColoredPointSet) -> ColorGraph:
    """The farthest color graph from the outer-point candidates, which the
    builder uses only above its full-scan cutoff, at any set size."""
    sx, sy, slack = _unit_scaled(ps)
    witnesses = _exact_edges(ps, *_outer_candidates(ps, sx, sy, slack), sx, sy, slack, -1)
    return ColorGraph(ps.num_colors, witnesses)
