#!/usr/bin/env python3
"""Timing of the closest color graph builder at increasing sizes.

The builder collects candidate pairs in two tiers: one grid pass over all
points settles every color pair whose closest pair lies well inside a cell,
and a quadtree walk per remaining color pair prunes node pairs by bounds
that actual pairs meet.  It stays fast far beyond what the exhaustive pair
scan could handle; a small replica is verified against the scan for
confidence.
"""

import math
import time

from colorspan import build_closest_color_graph
from colorspan.generate import generate_points


def exhaustive_weight(ps, ci, cj):
    xs, ys = ps.xs.tolist(), ps.ys.tolist()
    return min(
        math.hypot(xs[a] - xs[b], ys[a] - ys[b])
        for a in ps.color_indices(ci).tolist()
        for b in ps.color_indices(cj).tolist()
    )


def main():
    for n in (1_000, 10_000, 100_000):
        ps = generate_points(n, 20, seed=31)
        start = time.perf_counter()
        graph = build_closest_color_graph(ps)
        elapsed = time.perf_counter() - start
        print(f"n={n:>7} t=20: {elapsed * 1e3:8.1f} ms "
              f"(190 color pairs, min weight {min(w for w, _, _ in graph.witnesses.values()):.6f})")

    replica = generate_points(1_500, 10, seed=32)
    graph = build_closest_color_graph(replica)
    exact = all(
        graph.graph.weight(i, j) == exhaustive_weight(replica, i, j)
        for i in range(10)
        for j in range(i + 1, 10)
    )
    print(f"replica n=1500 t=10 exact vs exhaustive scan: {exact}")


if __name__ == "__main__":
    main()
