"""The dual-priced closest color graph against the complete one.

``solve_minsum`` builds the closest color graph priced: it starts from the
color pairs the grid pass settles, plus every pair of each color that has
none, and grows by the limits of the optimal duals of a minimum-weight
perfect matching on it until no missing color pair is within its limit.
On every input here the priced graph must carry the complete graph's
witness on each color pair it holds, hold every color pair of the
complete graph's minimum-weight perfect matching, and give a matching of
the same exact value (a ``Fraction`` sum of its weights); where the two
matchings differ, both are optima of the complete graph.

Inputs: the benchmark's many-points shape (n = 10k, t = 20, clusters) at
seeds 1 to 10; the ``varied_set`` families with n from 257 to 5000 and t
from 2 to 40; and one set with t = 300.  Recorders on the solvers'
``build_closest_color_graph``, on ``PricedColorGraph.grown`` and on
``_quadtree_pairs`` tell which path a priced solve took, and one on the
solvers' ``min_weight_perfect_matching`` which graphs it matched.  The
walks of one solve share one class tree.  Sets of at most
``_SCAN_CUTOFF`` points get the complete graph, and a set whose distances
overflow gets the complete build's error.
"""

from fractions import Fraction

import numpy as np
import pytest

from colorspan import ColoredPointSet, build_closest_color_graph, cli, solve_minsum
from colorspan import geometry, solvers
from colorspan.errors import InvalidInstanceError
from colorspan.fileio import serialize_points
from colorspan.generate import generate_points
from colorspan.geometry import _SCAN_CUTOFF, PricedColorGraph
from colorspan.matching import min_weight_perfect_matching

from conftest import FAMILIES, far_clusters, many_points, varied_set


class Paths:
    """What each priced solve did: ``stages`` names its steps in order,
    ``built`` is the last priced graph it built, and ``graphs`` holds
    every graph it matched, the last one its answer's."""

    def __init__(self):
        self.stages: list[str] = []
        self.built: PricedColorGraph | None = None
        self.graphs: list = []

    def clear(self):
        self.stages.clear()
        self.built = None
        self.graphs.clear()


@pytest.fixture
def paths(monkeypatch) -> Paths:
    seen = Paths()
    # The priced step under way, which a walk is part of.
    step: list[str] = []

    def start(ps, *args, inner=solvers.build_closest_color_graph):
        # Only a set that may be built in part has a priced start.
        if geometry._partial(ps):
            seen.stages.append("start")
        step.append("lone walk")
        try:
            seen.built = inner(ps, *args)
        finally:
            step.pop()
        return seen.built

    def grown(self, limit, inner=PricedColorGraph.grown):
        seen.stages.append("grow all" if limit is None else "price")
        step.append("walk" if limit is None else "capped walk")
        try:
            result = inner(self, limit)
        finally:
            step.pop()
        if result is not None:
            seen.stages.append("built")
            seen.built = result
        return result

    def walk(*args, pairs=geometry._quadtree_pairs):
        if step:
            seen.stages.append(step[-1])
        return pairs(*args)

    def match(g, *args, inner=solvers.min_weight_perfect_matching, **kwargs):
        seen.graphs.append(g)
        return inner(g, *args, **kwargs)

    monkeypatch.setattr(solvers, "build_closest_color_graph", start)
    monkeypatch.setattr(PricedColorGraph, "grown", grown)
    monkeypatch.setattr(geometry, "_quadtree_pairs", walk)
    monkeypatch.setattr(solvers, "min_weight_perfect_matching", match)
    return seen


def exact_value(ps: ColoredPointSet, edges) -> Fraction:
    return sum((Fraction(ps.distance(a, b)) for a, b in edges), Fraction(0))


def assert_priced_equals_full(ps: ColoredPointSet, paths: Paths) -> None:
    full = build_closest_color_graph(ps)
    optimum = min_weight_perfect_matching(full.graph)
    paths.clear()
    got = solve_minsum(ps)
    built = paths.built
    assert paths.graphs[-1] == built.graph
    assert {key: full.witnesses[key] for key in built.witnesses} == built.witnesses
    assert set(optimum.edges) <= set(built.witnesses)
    # Equal exact values: where the matchings differ, both are optima of
    # the complete graph, whose optimum is then not unique.
    assert exact_value(ps, got.edges) == exact_value(
        ps, [full.witnesses[key][1:] for key in optimum.edges]
    )
    # Each graph is matched once.
    assert len({g.edges for g in paths.graphs}) == len(paths.graphs)


class TestPricedMatchesFull:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_many_points(self, paths, seed):
        for i in range(3):
            ps = many_points(seed, i)
            assert_priced_equals_full(ps, paths)
            assert solve_minsum(ps) == solvers._match_color_graph(
                build_closest_color_graph(ps), min_weight_perfect_matching
            )

    @pytest.mark.parametrize("seed", range(8 * len(FAMILIES)))
    def test_varied_sets(self, paths, seed):
        assert_priced_equals_full(varied_set(seed), paths)

    def test_three_hundred_colors(self, paths):
        assert_priced_equals_full(generate_points(3000, 300, 7), paths)

    def test_each_path_runs(self, paths):
        cases = (
            # Every open color pair is priced out at the grid level.
            (many_points(1, 0), ["start", "price"]),
            # A walk under the limits builds color pairs, and the graph is
            # matched again; the second pricing builds none and walks
            # nothing: each color pair the grid leaves open was walked
            # under a cap as high in the first.
            (
                many_points(6, 1),
                ["start", "lone walk", "price", "capped walk", "built", "price"],
            ),
            # Every color has no settled pair, so all are walked at the start.
            (far_clusters(), ["start", "lone walk", "price"]),
            # The start has no perfect matching: every missing pair is built.
            (many_points(9, 0), ["start", "grow all", "walk", "built", "price"]),
        )
        for ps, stages in cases:
            assert_priced_equals_full(ps, paths)
            assert paths.stages == stages

    def test_small_sets_build_the_complete_graph(self, paths):
        ps = generate_points(_SCAN_CUTOFF, 6, 2, "clusters")
        paths.clear()
        solve_minsum(ps)
        # The complete graph, matched once: pricing finds no missing pair.
        assert paths.stages == ["price"]
        assert [len(g.edges) for g in paths.graphs] == [15]

    def test_walks_share_one_class_tree_and_never_repeat_a_cap(self, monkeypatch):
        # One priced solve walks at the start and again while pricing.
        # The class tree is sorted once for both, and no color pair is
        # walked again under a cap that is not higher than before.
        trees, walks, caps = [], [], {}

        def tree(*args, inner=geometry._ClassTree):
            trees.append(inner(*args))
            return trees[-1]

        def walk(tiers, pi, pj, inner=geometry._quadtree_pairs):
            walks.append(len(pi))
            for code in (pi * tiers.t + pj).tolist():
                caps.setdefault(code, []).append(tiers.cap[code])
            return inner(tiers, pi, pj)

        monkeypatch.setattr(geometry, "_ClassTree", tree)
        monkeypatch.setattr(geometry, "_quadtree_pairs", walk)
        solve_minsum(many_points(6, 1))
        assert len(walks) == 2 and len(trees) == 1
        assert all(all(np.diff(seen) > 0) for seen in caps.values())


# 300 points in four classes, two near -1e308 and two near 1e308: the
# closest distance of colors 0 and 1 exceeds the float range.
def overflowing_set() -> ColoredPointSet:
    rng = np.random.default_rng(5)
    colors = np.repeat(np.arange(4), 75)
    side = np.where(colors % 2, 1.0, -1.0)
    xs = side * (1e308 - rng.random(300) * 1e300)
    ys = rng.random(300)
    return ColoredPointSet(xs, ys, colors, 4)


class TestOverflow:
    def test_solve_minsum_raises_the_full_builds_error(self):
        ps = overflowing_set()
        assert len(ps) > _SCAN_CUTOFF
        with pytest.raises(InvalidInstanceError, match="exceeds the float range") as priced:
            solve_minsum(ps)
        with pytest.raises(InvalidInstanceError) as full:
            build_closest_color_graph(ps)
        assert str(priced.value) == str(full.value)

    def test_cli_solve_exits_3(self, capsys, tmp_path):
        f = tmp_path / "overflow.points"
        f.write_text(serialize_points(overflowing_set()))
        code = cli.main(["solve", str(f), "--objective", "minsum"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == "invalid input: the distance between colors 0 and 1 exceeds the float range\n"
