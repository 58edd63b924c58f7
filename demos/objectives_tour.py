#!/usr/bin/env python3
"""Tour of the three geometric objectives on the shipped fixtures.

The two fixtures are built so the objectives visibly disagree: the pairs
that minimize total length are useless for maximizing the smallest edge,
and vice versa.  Every solver value is cross-checked against the
exhaustive oracle before printing.
"""

from colorspan import (
    Objective,
    brute_force_geometric,
    solve_maxmin,
    solve_minmax,
    solve_minsum,
    stacked_rows_point_set,
    two_squares_point_set,
)

SOLVERS = {
    Objective.MINSUM: solve_minsum,
    Objective.MAXMIN: solve_maxmin,
    Objective.MINMAX: solve_minmax,
}

NAMES = "abcdef"


def show(title, ps):
    print(f"\n{title}")
    rows = zip(NAMES, ps.xs.tolist(), ps.ys.tolist(), ps.colors.tolist())
    print("  points:", ", ".join(
        f"{name}=({x:g},{y:g}) c{color}" for name, x, y, color in rows
    ))
    for objective, solver in SOLVERS.items():
        got = solver(ps)
        oracle = brute_force_geometric(ps, objective)
        pairs = " ".join(f"({NAMES[a]},{NAMES[b]})" for a, b in got.pairs)
        agree = abs(got.value(objective) - oracle.value(objective)) <= 1e-9
        print(
            f"  {objective.value:6s} -> value {got.value(objective):.6f}  "
            f"pairs {pairs}  oracle agrees: {agree}"
        )
    maxsum = brute_force_geometric(ps, Objective.MAXSUM)
    print(f"  maxsum -> value {maxsum.total_weight:.6f}  (oracle only)")


def main():
    show("Two unit squares (eps = 0.1)", two_squares_point_set(0.1))
    show("Three stacked rows (eps = 0.1)", stacked_rows_point_set(0.1))
    print(
        "\nNote how minsum picks the short perturbed edges while maxmin"
        " and minmax switch to entirely different color-spanning sets."
    )


if __name__ == "__main__":
    main()
