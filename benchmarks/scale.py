"""Scale harness: times the library's stages far beyond desk scale.

    python3 benchmarks/scale.py

Every row times calls in this process on instances generated from fixed
seeds, with generation and any input the calls need built outside the
timed region.  The builder and solve rows call on a fresh copy of their
point set in every run, as each command-line call parses its own: a set
caches its class indexes, which a reused set would hide after one run.
A row runs ``REPEATS`` times (``DESK_REPEATS`` for the millisecond-scale
``check`` rows) and records its best run, which is the least disturbed by
other load on the host, and the spread of all its runs (median and
worst).  The rows:

- n = 100k points, t = 100 colors, uniform and clustered: the closest and
  farthest color graph builders, min-weight matching on the closest K100,
  the three solves, and parsing and serializing the point file;
- n = 1M points, t = 100, both distributions: both builders;
- many colors, uniform: the closest builder at n = 3000, t = 300 and
  n = 5000, t = 500, and the farthest builder at n = 5000, t = 500;
- the many-points benchmark shape, n = 10k, t = 20, clustered: the
  farthest builder and the minmax and minsum solves on the first instance
  of seeds 1 to 3, and on three more instances whose grid pass leaves
  paths of their own: seed 3 instance 1 and seed 6 instance 0, where one
  color has no settled pair and is walked first, and seed 9 instance 0,
  whose grid pairs admit no perfect matching, so minmax walks without a
  cap and minsum grows into the whole graph (minmax builds its closest
  graph bounded, minsum priced);
- mixed scales: the closest builder on ``mixed_scale_points()``, 4002
  points of which two lie near 1e6 and the rest within 1e-6 of the origin,
  so at unit scale the small cluster is under 1e-12 wide; the row also
  records how many candidate pairs reach the builder's exact pass;
- min-weight and bottleneck matching on the complete graph K_t with random
  weights, t in 20, 60, 100, 200 and 300, and at t in 20, 100 and 200 the
  one unit-weight blossom run by which bottleneck matching picks its
  witness, on the same arguments the run gets there;
- desk scale: ``colorspan check FILE`` through ``cli.main`` on generated
  matching instances at k = 2, 3 and 4 (the certify sweep's class caps),
  one run checking every file of its k once;
- cold start: ``python -m colorspan`` in a fresh child process, ``COLD_RUNS``
  times, on a k = 3 desk file (``check``), a 10-vertex uncolored graph
  (``certify --k 2``) and n = 10k, t = 20 clustered points (``solve
  --objective minsum``, past the full-scan cutoff of the closest builder),
  and ``LARGE_COLD_RUNS`` times on n = 1M, t = 100 uniform points and on
  the mixed-scale set (``solve --objective minsum``).  These rows keep the
  best and median wall time, start to exit, and the largest of the
  children's own peak RSS (``os.wait4``, so no child's peak hides
  another's).

The program is imported from ``src/`` of this checkout, by this process
and by the cold-start children.  The results, with ``nproc`` and the
Python and numpy versions, go to ``BENCH_scale.json`` at the checkout's
root; progress goes to stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from colorspan import (  # noqa: E402
    ColoredPointSet,
    bottleneck_perfect_matching,
    build_closest_color_graph,
    build_farthest_color_graph,
    cli,
    geometry,
    matching,
    min_weight_perfect_matching,
    solve_maxmin,
    solve_minmax,
    solve_minsum,
)
from colorspan.fileio import parse_points, serialize_graph, serialize_points  # noqa: E402
from colorspan.generate import (  # noqa: E402
    generate_complete_weighted_graph,
    generate_matching_instance,
    generate_points,
    generate_uncolored_graph,
)

REPEATS = 3
DESK_REPEATS = 25
SEED = 7
DISTRIBUTIONS = ("uniform", "clusters")
K_SIZES = (20, 60, 100, 200, 300)
WITNESS_SIZES = (20, 100, 200)
# (seed, instance) of the many-points rows.
MANY_POINTS_INSTANCES = ((1, 0), (2, 0), (3, 0), (3, 1), (6, 0), (9, 0))
# (k, class cap) of the desk-scale check rows, and the files per k.
DESK_CAPS = ((2, 5), (3, 5), (4, 3))
DESK_FILES = 8
COLD_RUNS = 10
LARGE_COLD_RUNS = 3


def timed(name: str, call, repeats: int = REPEATS, points: ColoredPointSet | None = None) -> dict:
    """``call()`` run ``repeats`` times, or with ``points``, ``call(copy)``
    on a fresh copy of them each time, made outside the timed region; its
    best, median and worst wall time."""
    runs = []
    for _ in range(repeats):
        args = () if points is None else (fresh(points),)
        start = time.perf_counter()
        call(*args)
        runs.append(time.perf_counter() - start)
    row = {
        "name": name,
        "runs": repeats,
        "best_s": min(runs),
        "median_s": statistics.median(runs),
        "worst_s": max(runs),
    }
    print(
        f"{name:50s} best {row['best_s']:9.4f} s  median {row['median_s']:9.4f} s  "
        f"worst {row['worst_s']:9.4f} s",
        flush=True,
    )
    return row


def fresh(ps: ColoredPointSet) -> ColoredPointSet:
    """A copy of ``ps`` with nothing cached."""
    return ColoredPointSet(ps.xs, ps.ys, ps.colors, ps.num_colors)


def points_rows() -> list[dict]:
    rows = []
    for distribution in DISTRIBUTIONS:
        ps = generate_points(100_000, 100, SEED, distribution)
        text = serialize_points(ps)
        closest = build_closest_color_graph(ps).graph
        at = f"n=100k t=100 {distribution}"
        rows += [
            timed(f"{at}: closest color graph", build_closest_color_graph, points=ps),
            timed(f"{at}: farthest color graph", build_farthest_color_graph, points=ps),
            timed(
                f"{at}: min-weight on closest K100", lambda: min_weight_perfect_matching(closest)
            ),
            timed(f"{at}: solve_minsum", solve_minsum, points=ps),
            timed(f"{at}: solve_minmax", solve_minmax, points=ps),
            timed(f"{at}: solve_maxmin", solve_maxmin, points=ps),
            timed(f"{at}: parse_points", lambda: parse_points(text)),
            timed(f"{at}: serialize_points", lambda: serialize_points(ps)),
        ]
    for distribution in DISTRIBUTIONS:
        ps = generate_points(1_000_000, 100, SEED, distribution)
        at = f"n=1M t=100 {distribution}"
        rows += [
            timed(f"{at}: closest color graph", build_closest_color_graph, points=ps),
            timed(f"{at}: farthest color graph", build_farthest_color_graph, points=ps),
        ]
    for n, t in ((3000, 300), (5000, 500)):
        ps = generate_points(n, t, SEED)
        at = f"n={n} t={t} uniform"
        rows.append(timed(f"{at}: closest color graph", build_closest_color_graph, points=ps))
        if t == 500:
            rows.append(
                timed(f"{at}: farthest color graph", build_farthest_color_graph, points=ps)
            )
    for seed, i in MANY_POINTS_INSTANCES:
        ps = generate_points(10_000, 20, seed * 1_000_003 + i, "clusters")
        at = f"n=10k t=20 clusters seed={seed}" + (f" instance={i}" if i else "")
        rows += [
            timed(f"{at}: farthest color graph", build_farthest_color_graph, points=ps),
            timed(f"{at}: solve_minmax", solve_minmax, points=ps),
            timed(f"{at}: solve_minsum", solve_minsum, points=ps),
        ]
    ps = mixed_scale_points()
    at = "n=4002 t=2 mixed scales"
    rows.append(timed(f"{at}: closest color graph", build_closest_color_graph, points=ps))
    rows[-1]["exact_candidates"] = exact_candidates(ps)
    return rows


def mixed_scale_points() -> ColoredPointSet:
    """Points 0 and 1, of colors 0 and 1, at (1e6, 0) and (1e6, 1), and
    4000 points of random colors 0 and 1 in the square of side 1e-6 at the
    origin."""
    rng = numpy.random.default_rng(SEED)
    xs = numpy.r_[1e6, 1e6, rng.random(4000) * 1e-6]
    ys = numpy.r_[0.0, 1.0, rng.random(4000) * 1e-6]
    return ColoredPointSet(xs, ys, numpy.r_[0, 1, rng.integers(0, 2, 4000)], 2)


def exact_candidates(ps: ColoredPointSet) -> int:
    """The candidate pairs that the closest builder passes to its exact
    pass on ``ps``."""
    exact = geometry._exact_edges
    counts = []

    def recording(point_set, a, *args):
        counts.append(len(a))
        return exact(point_set, a, *args)

    geometry._exact_edges = recording
    try:
        build_closest_color_graph(ps)
    finally:
        geometry._exact_edges = exact
    (count,) = counts
    return count


def witness_call(g) -> tuple:
    """The arguments of the blossom engine call that bottleneck matching
    makes on ``g`` to pick its witness."""
    engine = matching.maximum_weight_matching
    calls = []

    def recording(*args):
        calls.append(args)
        return engine(*args)

    matching.maximum_weight_matching = recording
    try:
        bottleneck_perfect_matching(g)
    finally:
        matching.maximum_weight_matching = engine
    (args,) = calls
    return args


def complete_graph_rows() -> list[dict]:
    rows = []
    for t in K_SIZES:
        g = generate_complete_weighted_graph(t, SEED)
        rows += [
            timed(f"K{t}: min-weight perfect matching", lambda: min_weight_perfect_matching(g)),
            timed(f"K{t}: bottleneck perfect matching", lambda: bottleneck_perfect_matching(g)),
        ]
        if t in WITNESS_SIZES:
            args = witness_call(g)
            rows.append(
                timed(
                    f"K{t}: bottleneck witness blossom run",
                    lambda: matching.maximum_weight_matching(*args),
                )
            )
    return rows


def desk_rows() -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, cap in DESK_CAPS:
            paths = []
            for i in range(DESK_FILES):
                path = Path(tmp) / f"k{k}-{i}.points"
                path.write_text(serialize_points(generate_matching_instance(k, SEED + i, cap)))
                paths.append(str(path))

            def check_all():
                with contextlib.redirect_stdout(io.StringIO()):
                    for path in paths:
                        if cli.main(["check", path]) != cli.EXIT_OK:
                            raise RuntimeError(f"check {path} failed")

            check_all()  # warm-up: imports, the parser and the pairing tables
            rows.append(
                timed(f"check, {DESK_FILES} files at k={k} cap={cap}", check_all, DESK_REPEATS)
            )
    return rows


# Starts the cold-start children and prints, per child, its wall time,
# exit code and peak RSS.  A bare interpreter: Linux carries the peak RSS
# of a process into its child's ``ru_maxrss`` when the child execs, so
# children started from this process would all read at least its peak.
LAUNCHER = """
import json, os, sys, time
argv = [sys.executable, "-m", "colorspan", *sys.argv[2:]]
quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
runs = []
for _ in range(int(sys.argv[1])):
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    runs.append((time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss))
print(json.dumps(runs))
"""


def cold_row(name: str, argv: list[str], cwd: str, runs: int = COLD_RUNS) -> dict:
    """``python -m colorspan *argv`` in ``runs`` fresh processes."""
    launched = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(runs), *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    runs = json.loads(launched.stdout)
    if any(code != cli.EXIT_OK for _, code, _ in runs):
        raise RuntimeError(f"{name} failed: {launched.stderr}")
    walls = [wall for wall, _, _ in runs]
    row = {
        "name": name,
        "runs": runs,
        "best_s": min(walls),
        "median_s": statistics.median(walls),
        "peak_rss_mb": max(kib for _, _, kib in runs) / 1024,  # ru_maxrss is in KiB on Linux
    }
    print(
        f"{name:50s} best {row['best_s']:9.4f} s  median {row['median_s']:9.4f} s  "
        f"peak RSS {row['peak_rss_mb']:6.1f} MB",
        flush=True,
    )
    return row


def cold_rows() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            "desk.points": serialize_points(generate_matching_instance(3, SEED, 5)),
            "desk.graph": serialize_graph(generate_uncolored_graph(10, SEED, 0.45)),
            "clusters.points": serialize_points(generate_points(10_000, 20, SEED, "clusters")),
            "uniform.points": serialize_points(generate_points(1_000_000, 100, SEED)),
            "mixed.points": serialize_points(mixed_scale_points()),
        }
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        del files
        return [
            cold_row("cold: check, k=3 cap=5 file", ["check", "desk.points"], tmp),
            cold_row("cold: certify --k 2, n=10 uncolored", ["certify", "desk.graph", "--k", "2"], tmp),
            cold_row(
                "cold: solve minsum, n=10k t=20 clusters",
                ["solve", "clusters.points", "--objective", "minsum"],
                tmp,
            ),
            cold_row(
                "cold: solve minsum, n=1M t=100 uniform",
                ["solve", "uniform.points", "--objective", "minsum"],
                tmp,
                LARGE_COLD_RUNS,
            ),
            cold_row(
                "cold: solve minsum, n=4002 t=2 mixed scales",
                ["solve", "mixed.points", "--objective", "minsum"],
                tmp,
                LARGE_COLD_RUNS,
            ),
        ]


def main() -> int:
    rows = cold_rows() + desk_rows() + complete_graph_rows() + points_rows()
    result = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "seed": SEED,
        "rows": rows,
    }
    (ROOT / "BENCH_scale.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
