"""The benchmark's workloads: which instance files to write, which CLI
operations to run on them, and which traced features each one exercises.

Every instance derives from the workload seed alone.  Setup calls the
program's generators and serializers through their modules, so the
tracer's wrappers on ``colorspan.generate`` and ``colorspan.fileio`` see
them, and returns the file texts without writing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from colorspan import fileio, generate

OBJECTIVES = ("minsum", "minmax", "maxmin")

# The CLI's default oracle budget; certify instances are redrawn until their
# predicted enumeration fits it, so no operation of the sweep exits 4.
ORACLE_BUDGET = 10_000_000

# The sweep's instances, per repeat: points check at each k with its class
# cap (the acceptance sweep's), graph check at each k on colored graphs of
# at most GRAPH_MAX_VERTICES vertices, and certify on uncolored n-vertex
# graphs, n drawn from [lo, hi], edge probability CERTIFY_EDGE_PROB.
POINT_CAPS = ((2, 5), (3, 5), (4, 3))
GRAPH_KS = (2, 3)
GRAPH_MAX_VERTICES = 14
GRAPH_EDGE_PROB = 0.5
CERTIFY_SIZES = ((2, 6, 14), (3, 6, 13))  # (k, lo, hi)
CERTIFY_EDGE_PROB = 0.45


@dataclass(frozen=True)
class Op:
    """One ``colorspan`` CLI call and what its output is checked against."""

    kind: str  # "solve", "check" or "certify"
    file: Path
    objective: str | None = None  # solve ops
    k: int | None = None  # certify ops
    graph: bool = False  # check ops on a graph instance

    @property
    def argv(self) -> list[str]:
        if self.kind == "solve":
            return ["solve", str(self.file), "--objective", self.objective, "--json"]
        if self.kind == "certify":
            return ["certify", str(self.file), "--k", str(self.k)]
        return ["check", str(self.file)]


@dataclass(frozen=True)
class PointsWorkload:
    """Large point instances, each solved at all three objectives."""

    name: str
    n: int
    t: int
    distribution: str
    instances: int = 1
    features = ("gen-points", "write-points", "solve-points")

    def setup(self, seed: int, workdir: Path) -> tuple[dict[Path, str], list[Op]]:
        """Instance files to write, by path, and the operations on them."""
        files: dict[Path, str] = {}
        ops = []
        for i in range(self.instances):
            ps = generate.generate_points(
                self.n, self.t, seed * 1_000_003 + i, distribution=self.distribution
            )
            path = workdir / f"instance-{i}.points"
            files[path] = fileio.serialize_points(ps)
            ops.extend(Op("solve", path, objective=obj) for obj in OBJECTIVES)
        return files, ops

    def describe(self) -> dict:
        return {
            "points": {
                "n": self.n,
                "t": self.t,
                "distribution": self.distribution,
                "instances": self.instances,
            }
        }


def _certify_states(n: int, m: int, k: int) -> int:
    """Largest enumeration ``certify --k k`` predicts on an n-vertex,
    m-edge graph: k-subsets of vertices, one vertex per copy, and k-subsets
    of the cross-color edges after both reductions (C(k, 2) * (n + 2m)
    copy-to-copy edges plus k * n anchor edges)."""
    cross = math.comb(k, 2) * (n + 2 * m) + k * n
    return max(math.comb(n, k), n**k, math.comb(cross, k))


@dataclass(frozen=True)
class SweepWorkload:
    """Desk-scale instances: every solver checked against its oracle, plus
    the reduction certifier, interleaved so each latency sample sees the
    same mix."""

    name: str
    per_k: int
    features = (
        "gen-sweep",
        "write-points",
        "write-graph",
        "solve-points",
        "check-points",
        "check-graph",
        "certify",
    )

    def setup(self, seed: int, workdir: Path) -> tuple[dict[Path, str], list[Op]]:
        files: dict[Path, str] = {}
        ops: list[Op] = []
        for i in range(self.per_k):
            sub = seed * 1_000_003 + i * 101
            for k, cap in POINT_CAPS:
                ps = generate.generate_matching_instance(k, sub + k, cap)
                path = workdir / f"points-k{k}-{i}.points"
                files[path] = fileio.serialize_points(ps)
                ops.append(Op("check", path))
                ops.extend(Op("solve", path, objective=obj) for obj in OBJECTIVES)
            for k in GRAPH_KS:
                g = generate.generate_colorful_matching_instance(
                    k, sub + 10 + k, GRAPH_MAX_VERTICES, GRAPH_EDGE_PROB
                )
                path = workdir / f"graph-k{k}-{i}.graph"
                files[path] = fileio.serialize_graph(g)
                ops.append(Op("check", path, graph=True))
            for k, n_lo, n_hi in CERTIFY_SIZES:
                draw = sub + 20 + k
                while True:
                    n = n_lo + draw % (n_hi - n_lo + 1)
                    g = generate.generate_uncolored_graph(n, draw, CERTIFY_EDGE_PROB)
                    if _certify_states(n, len(g.edges), k) <= ORACLE_BUDGET:
                        break
                    draw += 1_000_000_007
                path = workdir / f"uncolored-k{k}-{i}.graph"
                files[path] = fileio.serialize_graph(g)
                ops.append(Op("certify", path, k=k))
        return files, ops

    def describe(self) -> dict:
        return {
            "points_check": [
                {"k": k, "class_cap": cap, "instances": self.per_k} for k, cap in POINT_CAPS
            ],
            "graph_check": [
                {
                    "k": k,
                    "max_vertices": GRAPH_MAX_VERTICES,
                    "edge_prob": GRAPH_EDGE_PROB,
                    "instances": self.per_k,
                }
                for k in GRAPH_KS
            ],
            "certify": [
                {
                    "k": k,
                    "n": [lo, hi],
                    "edge_prob": CERTIFY_EDGE_PROB,
                    "instances": self.per_k,
                }
                for k, lo, hi in CERTIFY_SIZES
            ],
            "solve_per_points_instance": list(OBJECTIVES),
        }


WORKLOADS = {
    w.name: w
    for w in (
        # The size keeps one solve near a tenth of a second: on a shared
        # host, solves with larger working sets slowed by up to 60% for
        # minutes at a time, even in their best repeat.  Solve cost also
        # varies between instances, so the workload averages three.
        PointsWorkload("many-points", n=10_000, t=20, distribution="clusters", instances=3),
        SweepWorkload("certify-sweep", per_k=8),
    )
}
