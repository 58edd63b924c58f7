from pathlib import Path

import pytest

from colorspan import ColoredPointSet, distance

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
                    d = distance(ps.points[a], ps.points[b])
                    key = (d, a, b) if mode == "closest" else (-d, a, b)
                    if best is None or key < best:
                        best = key
            d, a, b = best
            out[(i, j)] = (abs(d) if mode == "closest" else -d, a, b)
    return out

