import math
from pathlib import Path

import pytest

from colorspan import ColoredPointSet
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


def exhaustive_color_extremes(ps: ColoredPointSet, mode: str):
    """Reference bichromatic extremes by full scan, with the tie-break.

    Returns ``{(ci, cj): (distance, point_a, point_b)}`` computed with the
    same exact arithmetic the library is required to use.
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
