"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them).  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from colorspan import (
    ColoredPointSet,
    Objective,
    brute_force_colorful_graph_matching,
    brute_force_geometric,
    brute_force_graph_matching,
    build_closest_color_graph,
    build_farthest_color_graph,
    certify_equivalence,
    has_perfect_matching,
    bottleneck_perfect_matching,
    maxmin_perfect_matching,
    min_weight_perfect_matching,
    reduce_is_to_mcis,
    reduce_mcis_to_mcim,
    solve_k_multicolored_matching,
    solve_maxmin,
    solve_minmax,
    solve_minsum,
)
from colorspan.cli import main
from colorspan.fileio import parse_points
from colorspan.generate import (
    generate_colorful_matching_instance,
    generate_complete_weighted_graph,
    generate_matching_instance,
    generate_points,
    generate_uncolored_graph,
)

from conftest import FIXTURE_DIR, exhaustive_color_extremes, perfect_pairings

TOLERANCE = 1e-9

GEOMETRIC_SOLVERS = {
    Objective.MINSUM: solve_minsum,
    Objective.MAXMIN: solve_maxmin,
    Objective.MINMAX: solve_minmax,
}


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def geometric_sweep():
    """200 seeded instances with their solver outputs, shared by 1 and 5."""
    sweep = []
    for i in range(200):
        k = (2, 3, 4)[i % 3]
        cap = 5 if k < 4 else 3
        ps = generate_matching_instance(k, 910_000 + i, max_class_size=cap)
        solutions = {obj: solver(ps) for obj, solver in GEOMETRIC_SOLVERS.items()}
        sweep.append((ps, solutions))
    return sweep


def test_criterion_1_geometric_oracle_equivalence(geometric_sweep):
    start = time.perf_counter()
    mismatches = 0
    for ps, solutions in geometric_sweep:
        for objective, solution in solutions.items():
            expected = brute_force_geometric(ps, objective)
            if abs(solution.value(objective) - expected.value(objective)) > TOLERANCE:
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "geometric solvers equal the exhaustive oracle on 200 instances",
        mismatches == 0 and elapsed < 120.0,
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_criterion_2_graph_oracle_equivalence():
    mismatches = 0
    for i in range(100):
        k = (2, 3)[i % 2]
        g = generate_colorful_matching_instance(k, 920_000 + i, max_vertices=14)
        got = solve_k_multicolored_matching(g)
        expected = brute_force_colorful_graph_matching(g)
        if (got is None) != (expected is None):
            mismatches += 1
        elif got is not None and got.total_weight != expected.total_weight:
            mismatches += 1
    report(
        2,
        "colorful graph matching equals the exhaustive oracle on 100 instances",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_criterion_3_two_squares_fixture():
    ps = parse_points((FIXTURE_DIR / "figure1.points").read_text())
    minsum = solve_minsum(ps)
    maxmin = solve_maxmin(ps)
    maxsum = brute_force_geometric(ps, Objective.MAXSUM)
    checks = [
        abs(minsum.total_weight - 1.8) <= TOLERANCE,
        abs(maxsum.total_weight - (1 + math.sqrt(5))) <= TOLERANCE,
        abs(maxmin.min_edge_weight - math.sqrt(2)) <= TOLERANCE,
        abs(maxmin.total_weight - 2 * math.sqrt(2)) <= TOLERANCE,
    ]
    report(
        3,
        "two-squares fixture reproduces minsum 1.8, maxsum 1+sqrt5, maxmin sqrt2",
        all(checks),
        f"minsum={minsum.total_weight!r}, maxsum={maxsum.total_weight!r}, "
        f"maxmin={maxmin.min_edge_weight!r}",
    )


def test_criterion_4_stacked_rows_fixture():
    ps = parse_points((FIXTURE_DIR / "figure2.points").read_text())
    minsum = solve_minsum(ps)
    minmax = solve_minmax(ps)
    checks = [
        abs(minsum.total_weight - 3.0) <= TOLERANCE,
        abs(minmax.max_edge_weight - 1.6) <= TOLERANCE,
        abs(minmax.total_weight - 3.2) <= TOLERANCE,
    ]
    report(
        4,
        "stacked-rows fixture reproduces minsum 3 and minmax 1.6 (total 3.2)",
        all(checks),
        f"minsum={minsum.total_weight!r}, minmax={minmax.max_edge_weight!r}",
    )


def test_criterion_5_structural_extreme_pair_property(geometric_sweep):
    violations = 0
    for ps, solutions in geometric_sweep:
        closest = build_closest_color_graph(ps)
        farthest = build_farthest_color_graph(ps)
        for objective, solution in solutions.items():
            graph = farthest if objective is Objective.MAXMIN else closest
            for a, b in solution.edges:
                ca, cb = int(ps.colors[a]), int(ps.colors[b])
                d = math.hypot(
                    float(ps.xs[a]) - float(ps.xs[b]), float(ps.ys[a]) - float(ps.ys[b])
                )
                if d != graph.graph.weight(ca, cb):
                    violations += 1
    report(
        5,
        "every matched edge realizes its color pair's extreme distance",
        violations == 0,
        f"violations={violations} over 200 instances x 3 objectives",
    )


def test_criterion_6_matching_core_oracle_equivalence():
    mismatches = 0
    for i in range(50):
        g = generate_complete_weighted_graph(10, 930_000 + i)
        if min_weight_perfect_matching(g).total_weight != brute_force_graph_matching(
            g, Objective.MINSUM
        ).total_weight:
            mismatches += 1
        if bottleneck_perfect_matching(g).max_edge_weight != brute_force_graph_matching(
            g, Objective.MINMAX
        ).max_edge_weight:
            mismatches += 1
        if maxmin_perfect_matching(g).min_edge_weight != brute_force_graph_matching(
            g, Objective.MAXMIN
        ).min_edge_weight:
            mismatches += 1
    existence_mismatches = 0
    for i in range(50):
        g = generate_uncolored_graph(8, 940_000 + i, 0.5)
        expected = any(
            all(g.has_edge(u, v) for u, v in pairing)
            for pairing in perfect_pairings(range(8))
        )
        if has_perfect_matching(g) != expected:
            existence_mismatches += 1
    report(
        6,
        "matching core equals enumeration on 50 K10s and 50 existence checks",
        mismatches == 0 and existence_mismatches == 0,
        f"value mismatches={mismatches}, existence mismatches={existence_mismatches}",
    )


def test_criterion_7_reduction_certification():
    violations = 0
    size_failures = 0
    for i in range(200):
        n = 3 + i % 8
        k = (2, 3)[i % 2]
        g = generate_uncolored_graph(n, 950_000 + i, 0.45)
        certify_equivalence(g, k)  # raises on any feasibility disagreement
        step1 = reduce_is_to_mcis(g, k)
        step2 = reduce_mcis_to_mcim(step1.graph)
        if step1.graph.num_vertices != k * n:
            size_failures += 1
        mid_n, mid_m = step1.graph.num_vertices, len(step1.graph.edges)
        if step2.graph.num_vertices != mid_n + k:
            size_failures += 1
        if len(step2.graph.edges) != mid_m + mid_n:
            size_failures += 1
        if step2.graph.num_colors != 2 * k:
            size_failures += 1
    report(
        7,
        "reduction chain feasibility and size identities hold on 200 instances",
        violations == 0 and size_failures == 0,
        f"violations={violations}, size failures={size_failures}",
    )


def test_criterion_8_closest_graph_scale_smoke():
    ps = generate_points(100_000, 20, seed=960_000)
    start = time.perf_counter()
    build_closest_color_graph(ps)
    elapsed = time.perf_counter() - start

    rng = np.random.default_rng(960_001)
    keep = sorted(int(i) for i in rng.choice(len(ps), size=2000, replace=False))
    keep_set = set(keep)
    colors = ps.colors.tolist()
    for c in range(20):  # keep every color present in the replica
        if not any(colors[i] == c for i in keep):
            extra = int(ps.color_indices(c)[0])
            keep.append(extra)
            keep_set.add(extra)
    rows = sorted(keep_set)
    replica = ColoredPointSet(ps.xs[rows], ps.ys[rows], ps.colors[rows], 20)
    got = build_closest_color_graph(replica)
    expected = exhaustive_color_extremes(replica, "closest")
    exact = got.witnesses == expected
    report(
        8,
        "closest color graph: 100k points under 10s, replica exact vs full scan",
        elapsed < 10.0 and exact,
        f"{elapsed:.2f}s for n=100000 t=20, replica exact={exact}",
    )


def test_criterion_9_seeded_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.points", tmp_path / "b.points"
    main(["gen", "points", "--n", "40", "--t", "6", "--seed", "77", "--out", str(a)])
    main(["gen", "points", "--n", "40", "--t", "6", "--seed", "77", "--out", str(b)])
    files_equal = a.read_bytes() == b.read_bytes()

    ga, gb = tmp_path / "a.graph", tmp_path / "b.graph"
    main(["gen", "graph", "--n", "12", "--k", "3", "--seed", "77", "--out", str(ga)])
    main(["gen", "graph", "--n", "12", "--k", "3", "--seed", "77", "--out", str(gb)])
    graphs_equal = ga.read_bytes() == gb.read_bytes()

    fig1 = str(FIXTURE_DIR / "figure1.points")
    main(["solve", fig1, "--objective", "minsum"])
    out1 = capsys.readouterr().out
    main(["solve", fig1, "--objective", "minsum"])
    out2 = capsys.readouterr().out
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("time_ms=")]
    results_equal = strip(out1) == strip(out2)

    sa, sb = tmp_path / "a.svg", tmp_path / "b.svg"
    main(["render", fig1, "--objective", "maxmin", "--out", str(sa)])
    main(["render", fig1, "--objective", "maxmin", "--out", str(sb)])
    svg_equal = sa.read_bytes() == sb.read_bytes()

    report(
        9,
        "seeded runs are byte-identical (files, results sans timing, SVG)",
        files_equal and graphs_equal and results_equal and svg_equal,
        f"files={files_equal}, graphs={graphs_equal}, "
        f"results={results_equal}, svg={svg_equal}",
    )
