"""The bottleneck-bounded closest color graph against the complete one.

``solve_minmax`` builds the closest color graph bounded: after the grid
pass, Λ is the bottleneck value of a perfect matching over the grid's
least distance per color pair, and only the color pairs whose closest
distance lies within the cut of Λ (the cap) are built.  On every input
here the bounded graph must hold exactly the complete graph's edges
within the cap, each with the same witness, and minmax must return the
complete graph's bottleneck matching.

Inputs: the benchmark's many-points shape (n = 10k, t = 20, clusters) at
seeds 1 to 10; uniform, clustered, lattice, coincident, scaled (1e-200 to
1e200) and per-class-scaled sets with n from 257 to 5000 and t from 2 to
40; one set with t = 300; and float ties that only the cap's cut keeps.
Recorders on the solvers' ``build_closest_color_graph``, on
``_bottleneck_cap`` and on ``_quadtree_pairs`` tell which path a bounded
build took: a walk of every color pair of each color that has no pair in
the grid (lone walk), then no walk, a walk under a finite cap, or no cap
(Λ infinite, when the color pairs known by then admit no perfect
matching).
"""

import math

import numpy as np
import pytest

from colorspan import ColoredPointSet, build_closest_color_graph, solve_minmax
from colorspan import geometry, solvers
from colorspan.generate import generate_points
from colorspan.geometry import _morton_distinct, _unit_scaled
from colorspan.matching import Objective, bottleneck_perfect_matching
from colorspan.solvers import _match_color_graph

from conftest import FAMILIES, distinct_indices, far_clusters, many_points, varied_set

class Paths:
    """The cap of each bounded build, and the path it took."""

    def __init__(self):
        self.caps: list[float] = []
        self.taken: list[str] = []


@pytest.fixture
def paths(monkeypatch) -> Paths:
    seen = Paths()
    # The stages of the bounded build under way, if one is.
    stages: list[list[str]] = []

    def build(ps, objective=None, inner=solvers.build_closest_color_graph):
        if objective is not Objective.MINMAX or not geometry._partial(ps):
            return inner(ps, objective)
        stages.append([])
        try:
            return inner(ps, objective)
        finally:
            seen.taken.append(" + ".join(stages.pop()) or "no walk")

    def cap(*args, bound=geometry._bottleneck_cap):
        value = bound(*args)
        seen.caps.append(value)
        if value == math.inf:
            stages[-1].append("no cap")
        return value

    def walk(*args, pairs=geometry._quadtree_pairs):
        # A walk before Λ is the lone colors'; one after an infinite Λ
        # is the uncapped walk that "no cap" names.
        if stages and np.isfinite(args[0].cap).any():
            stages[-1].append("capped walk")
        elif stages and not stages[-1]:
            stages[-1].append("lone walk")
        return pairs(*args)

    monkeypatch.setattr(solvers, "build_closest_color_graph", build)
    monkeypatch.setattr(geometry, "_bottleneck_cap", cap)
    monkeypatch.setattr(geometry, "_quadtree_pairs", walk)
    return seen


def assert_bounded_equals_full(ps: ColoredPointSet, paths: Paths) -> None:
    full = build_closest_color_graph(ps)
    bounded = solvers.build_closest_color_graph(ps, Objective.MINMAX)
    cap = paths.caps[-1]
    sx, sy, _ = _unit_scaled(ps)
    within = {
        key: (d, a, b)
        for key, (d, a, b) in full.witnesses.items()
        if np.hypot(sx[a] - sx[b], sy[a] - sy[b]) <= cap
    }
    assert bounded.witnesses == within
    assert solve_minmax(ps) == _match_color_graph(full, bottleneck_perfect_matching)


class TestBoundedMatchesFull:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_many_points(self, paths, seed):
        for i in range(3):
            assert_bounded_equals_full(many_points(seed, i), paths)

    @pytest.mark.parametrize("seed", range(8 * len(FAMILIES)))
    def test_varied_sets(self, paths, seed):
        assert_bounded_equals_full(varied_set(seed), paths)

    def test_three_hundred_colors(self, paths):
        assert_bounded_equals_full(generate_points(3000, 300, 7), paths)

    def test_each_path_runs(self, paths):
        cases = (
            (many_points(1, 0), "no walk"),
            (many_points(2, 0), "capped walk"),
            # The grid's 54 color pairs admit no perfect matching.
            (many_points(9, 0), "no cap"),
            (far_clusters(), "lone walk"),
            # One color has no pair in the grid; once its pairs are
            # walked, Λ is finite.
            (many_points(3, 1), "lone walk + capped walk"),
        )
        for ps, path in cases:
            paths.taken.clear()
            assert_bounded_equals_full(ps, paths)
            assert set(paths.taken) == {path}

    def test_float_tie_beyond_the_optimum_bound(self, paths):
        # Subnormal points, in units of 2^-1074, where exact distances
        # round to whole units: colors 0 and 2 at sqrt(101) units tie with
        # (0, 1) and (1, 3) at 10, and (2, 3) is at 9, so the optimum is 10
        # and its level holds all four near color pairs.  At unit scale Λ
        # is 10, from {(0, 1), (2, 3)}, and (0, 2) lies beyond Λ but
        # within its cut.  The witness run on that level picks
        # {(0, 2), (1, 3)}, which it cannot without (0, 2).
        unit = math.ldexp(1.0, -1074)
        core_x, core_y = [0, 10, 1, 10], [0, 0, 10, 10]
        fill = np.arange(70) * 10_000
        xs = np.r_[core_x, np.tile(fill + 1_000_000, 4)]
        ys = np.r_[core_y, np.repeat(np.arange(4) * 1_000_000 + 2_000_000, 70)]
        colors = np.r_[np.arange(4), np.repeat(np.arange(4), 70)]
        ps = ColoredPointSet(xs * unit, ys * unit, colors, 4)
        assert_bounded_equals_full(ps, paths)
        assert solve_minmax(ps).edges == ((0, 2), (1, 3))


class TestMortonDedup:
    def test_keeps_the_per_class_representatives(self):
        # The lowest index of each coordinate in each class, as
        # ``distinct_indices`` keeps it: coincident points within and
        # across classes, +0.0 against -0.0, and distinct points 2^-40
        # apart, which share a Morton code.
        rng = np.random.default_rng(12)
        n = 600
        xs, ys = rng.random((2, n)) * 0.9
        colors = rng.integers(0, 4, n)
        copies = rng.integers(0, n, (2, 150))
        xs[copies[0]], ys[copies[0]] = xs[copies[1]], ys[copies[1]]
        colors[copies[0][:75]] = colors[copies[1][:75]]
        xs[[40, 7, 300]], ys[[40, 7, 300]] = (0.0, -0.0, 0.0), (-0.0, 0.0, 0.0)
        colors[[40, 7, 300]] = 2
        xs[[9, 500]], ys[[9, 500]] = (0.5, 0.5 + math.ldexp(1.0, -40)), 0.25
        colors[[9, 500]] = 1
        ps = ColoredPointSet(xs, ys, colors, 4)
        sx, sy, _ = _unit_scaled(ps)
        expected = sorted(
            np.concatenate([distinct_indices(ps, ps.color_indices(c)) for c in range(4)])
        )
        for depth in (30, 12, 3):
            pts, codes, ix, iy = _morton_distinct(ps, sx, sy, depth)
            assert sorted(pts.tolist()) == expected
            assert (np.diff(codes) >= 0).all()
            close = np.isin(pts, [9, 500])
            assert close.sum() == 2 and np.ptp(codes[close]) == 0
            assert 7 in pts.tolist() and not {40, 300} & set(pts.tolist())
