"""Output checks, written against the file formats rather than the
program's own parsers, so a defect in the program cannot vouch for itself.

Each ``*_problems`` function returns a list of human-readable problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations

import numpy as np

REL_TOL = 1e-12
_BLOCK = 128
_TIME_MS = re.compile(r'"time_ms": [-+0-9.eE]+(, )?')


def strip_volatile(text: str) -> str:
    """The output with the one wall-time field of a JSON record removed."""
    return _TIME_MS.sub("", text)


class Points:
    """A point file read with numpy: coordinates, colors, color count."""

    def __init__(self, text: str):
        tokens = text.split()
        n, self.t = int(tokens[0]), int(tokens[1])
        table = np.array(tokens[2:], dtype=np.float64).reshape(n, 3)
        self.xs = np.ascontiguousarray(table[:, 0])
        self.ys = np.ascontiguousarray(table[:, 1])
        self.colors = table[:, 2].astype(np.int64)
        order = np.argsort(self.colors, kind="stable")
        bounds = np.searchsorted(self.colors[order], np.arange(self.t + 1))
        self.classes = [order[bounds[c] : bounds[c + 1]] for c in range(self.t)]
        self._extremes: dict[tuple[int, int, bool], float] = {}

    def extreme(self, ci: int, cj: int, farthest: bool) -> float:
        key = (min(ci, cj), max(ci, cj), farthest)
        if key not in self._extremes:
            a, b = self.classes[key[0]], self.classes[key[1]]
            self._extremes[key] = extreme_distance(
                self.xs[a], self.ys[a], self.xs[b], self.ys[b], farthest
            )
        return self._extremes[key]


class Graph:
    """A graph file: vertex count, colors and edge list."""

    def __init__(self, text: str):
        lines = text.split("\n")
        n, m, self.t = map(int, lines[0].split())
        self.n = n
        self.colors = [int(c) for c in lines[1 : 1 + n]]
        self.edges = {
            tuple(sorted(map(int, line.split()[:2]))) for line in lines[1 + n : 1 + n + m]
        }

    def independent(self, vertices) -> bool:
        return all((min(u, v), max(u, v)) not in self.edges for u, v in combinations(vertices, 2))


def _spatial_order(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indexes sorted into vertical strips, by y inside each strip, so runs
    of consecutive points have small bounding boxes."""
    strips = max(1, int(math.sqrt(len(xs) / _BLOCK)))
    span = float(xs.max() - xs.min()) or 1.0
    column = np.minimum(((xs - xs.min()) / span * strips).astype(np.int64), strips - 1)
    return np.lexsort((ys, column))


def extreme_distance(ax, ay, bx, by, farthest: bool) -> float:
    """Exact minimum (or maximum) Euclidean distance over all of A x B.

    Scans A in blocks of nearby points.  A point of B is skipped for a
    block only when the distance bound from the block's bounding box
    proves it cannot beat the best distance found so far; the bound is
    widened by a relative margin so rounding never skips a winner.
    """
    order = _spatial_order(ax, ay)
    ax, ay = ax[order], ay[order]
    best = -math.inf if farthest else math.inf
    for lo in range(0, len(ax), _BLOCK):
        cx, cy = ax[lo : lo + _BLOCK], ay[lo : lo + _BLOCK]
        x0, x1, y0, y1 = cx.min(), cx.max(), cy.min(), cy.max()
        if farthest:
            bound = np.hypot(np.maximum(abs(bx - x0), abs(bx - x1)),
                             np.maximum(abs(by - y0), abs(by - y1)))
            keep = bound >= best * (1 - 1e-9)
        else:
            bound = np.hypot(np.maximum(0.0, np.maximum(x0 - bx, bx - x1)),
                             np.maximum(0.0, np.maximum(y0 - by, by - y1)))
            keep = bound <= best * (1 + 1e-9)
        if not keep.any():
            continue
        d = np.hypot(cx[:, None] - bx[keep][None, :], cy[:, None] - by[keep][None, :])
        best = max(best, float(d.max())) if farthest else min(best, float(d.min()))
    return best


def solve_problems(text: str, points: Points, objective: str) -> list[str]:
    """Check one ``solve --json`` record against the point file."""
    try:
        rec = json.loads(text)
        pairs = [(int(a), int(b)) for a, b in rec["pairs"]]
        value = float(rec["value"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable record: {exc}"]
    problems = []
    if rec.get("status") != "solved" or rec.get("objective") != objective:
        problems.append(f"status {rec.get('status')!r} objective {rec.get('objective')!r}")
    n = len(points.xs)
    if not pairs or any(not (0 <= a < n and 0 <= b < n) for a, b in pairs):
        return problems + ["pairs missing or out of range"]
    colors = sorted(int(points.colors[i]) for pair in pairs for i in pair)
    if colors != list(range(points.t)):
        problems.append("pairs do not cover every color exactly once")
    canon = sorted((min(a, b), max(a, b)) for a, b in pairs)
    xs, ys = points.xs, points.ys
    dists = [math.hypot(xs[a] - xs[b], ys[a] - ys[b]) for a, b in canon]
    expected = sum(dists) if objective == "minsum" else (
        min(dists) if objective == "maxmin" else max(dists)
    )
    if not math.isclose(value, expected, rel_tol=REL_TOL):
        problems.append(f"value {value!r} != recomputed {expected!r}")
    farthest = objective == "maxmin"
    for (a, b), d in zip(canon, dists):
        ci, cj = int(points.colors[a]), int(points.colors[b])
        if ci == cj:
            continue  # already reported by the color cover check
        best = points.extreme(ci, cj, farthest)
        if not math.isclose(d, best, rel_tol=REL_TOL):
            kind = "farthest" if farthest else "closest"
            problems.append(f"pair {a}:{b} has {d!r}, {kind} of colors {ci},{cj} is {best!r}")
    return problems


def check_problems(text: str, graph: bool) -> list[str]:
    """Check the report of ``colorspan check <file>``: every expected
    objective present, and solver and oracle agreeing."""
    expected = {"minsum"} if graph else {"minsum", "minmax", "maxmin"}
    seen = set()
    problems = []
    for line in text.splitlines():
        try:
            fields = dict(tok.split("=", 1) for tok in line.split())
            solver, oracle = fields["solver"], fields["oracle"]
            if "infeasible" in (solver, oracle):
                agree = solver == oracle
            else:
                agree = math.isclose(float(solver), float(oracle), rel_tol=1e-9, abs_tol=1e-12)
        except (ValueError, KeyError):
            problems.append(f"unreadable line {line!r}")
            continue
        seen.add(fields.get("objective"))
        if fields.get("status") != "ok" or not agree:
            problems.append(line)
    if seen != expected:
        problems.append(f"objectives {sorted(map(str, seen))}, expected {sorted(expected)}")
    return problems


def certify_problems(text: str, graph: Graph, k: int) -> list[str]:
    """Check a ``certify`` report against a brute-force independent-set
    search and the independence of every printed witness."""
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    problems = []
    if fields.get("k") != str(k) or fields.get("equivalent") != "true":
        problems.append(f"k={fields.get('k')} equivalent={fields.get('equivalent')}")
    answers = {
        fields.get(key)
        for key in (
            "k_independent_set",
            "colorful_independent_set",
            "colorful_independent_matching",
        )
    }
    truth = any(graph.independent(s) for s in combinations(range(graph.n), k))
    if answers != {str(truth).lower()}:
        problems.append(f"answers {sorted(map(str, answers))}, brute force says {truth}")
    if truth:
        for key in ("independent_set", "lifted_colorful_set", "lifted_matching_set"):
            vertices = [int(v) for v in fields.get(key, "").split()]
            if len(set(vertices)) != k or not graph.independent(vertices):
                problems.append(f"{key}={fields.get(key)} is not an independent {k}-set")
    return problems
