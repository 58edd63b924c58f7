"""Timed and traced runs of one workload, in this process.

A timed run sets the workload up, then calls ``colorspan.cli.main`` on the
generated files, one operation at a time, round-robin over the workload's
operation list until the time is up.  Between passes over the list it sets
the workload up again, without writing the files, so the set-up samples
are spread over the run like the operation samples.  Each output is compared
with the operation's first output as it arrives; the first outputs are
verified after the loop.

A trace pass runs the operation list once to warm up, then in rounds runs
each operation untraced and again under the outside-in tracer, and reports
layer times, deterministic counters, the spans and the tracing overhead
(traced minus untraced wall time).
"""

from __future__ import annotations

import gc
import io
import resource
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout

from colorspan import cli, fileio, generate, hardness, matching, solvers

import tracer as tr
import verify
from workloads import OBJECTIVES, Op

# Set-up repeats happen between passes over the operation list while their
# total stays under this share of the timed loop's wall time.
SETUP_SHARE = 0.1

# Rounds of a trace pass: each runs every operation untraced and traced.
# An even count, so each order of the two runs is used equally often.
TRACE_ROUNDS = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_minsum_s": "s",
    "solve_minmax_s": "s",
    "solve_maxmin_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run's result.  Layer times that a workload
# never exercises (graph parsing, the graph solver, the oracles and the
# hardness chain) stay out of this list because they would read 0.0 on
# every run of that workload; they are printed and written to the trace file.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "fileio.parse_points.busy_s": "s",
    "fileio.parse_points.calls": "count",
    "fileio.bytes_in": "bytes",
    "geometry.pointset.busy_s": "s",
    "geometry.closest.busy_s": "s",
    "geometry.closest.calls": "count",
    "geometry.closest.color_pairs": "count",
    "geometry.farthest.busy_s": "s",
    "geometry.farthest.color_pairs": "count",
    "matching.min_weight.busy_s": "s",
    "matching.min_weight.calls": "count",
    "matching.edges_in": "count",
    "matching.bottleneck.busy_s": "s",
    "matching.maxmin.busy_s": "s",
    "matching.has_perfect.busy_s": "s",
    "matching.has_perfect.calls": "count",
    "blossom.busy_s": "s",
    "blossom.calls": "count",
    "solvers.pipeline.self_s": "s",
    "generate.busy_s": "s",
    "fileio.serialize.busy_s": "s",
    "oracles.geometric.states": "count",
    "oracles.colorful.states": "count",
    "trace.overhead_s": "s",
}

PRINTED_LAYER_TIMES = (
    "fileio.parse_graph.busy_s",
    "solvers.colorful.busy_s",
    "oracles.geometric.busy_s",
    "oracles.colorful.busy_s",
    "hardness.reduce.busy_s",
    "hardness.exhaustive.busy_s",
    "hardness.certify.self_s",
)


def run_op(op: Op, tracer: tr.Tracer | None = None) -> tuple[float, int | None, str]:
    """One in-process CLI call: (wall seconds, exit code, stdout).

    An exception escaping ``main`` is a failed operation with exit code
    None, not a crash of the benchmark.
    """
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        root = tracer.span("cli") if tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with root:
                rc = cli.main(op.argv)
        except Exception:
            rc = None
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue()


class Verifier:
    """Failures over a run's outputs.

    :meth:`add` takes each output as it arrives: a nonzero exit code fails
    at once, and a repeat must reproduce the operation's first output with
    ``time_ms`` removed.  Only the first output of each operation is kept.
    :meth:`finish` then checks each first output against its input file;
    a wrong answer fails every attempt that reproduced it.
    """

    def __init__(self):
        self._refs: dict = {}
        self._first: dict[Op, tuple[str, str]] = {}  # raw, stripped
        self._reproduced: Counter[Op] = Counter()
        self.failed = 0
        self.notes: list[str] = []

    def _fail(self, op: Op, problems: list[str], times: int = 1) -> None:
        self.failed += times
        if len(self.notes) < 5:
            self.notes.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")

    def _ref(self, op: Op):
        if op.file not in self._refs:
            text = op.file.read_text()
            self._refs[op.file] = verify.Points(text) if op.kind == "solve" else verify.Graph(text)
        return self._refs[op.file]

    def _check(self, op: Op, out: str) -> list[str]:
        if op.kind == "solve":
            return verify.solve_problems(out, self._ref(op), op.objective)
        if op.kind == "check":
            return verify.check_problems(out, op.graph)
        return verify.certify_problems(out, self._ref(op), op.k)

    def add(self, op: Op, rc: int | None, out: str) -> None:
        if rc != 0:
            self._fail(op, [f"exit code {rc}"])
            return
        stripped = verify.strip_volatile(out)
        if op not in self._first:
            self._first[op] = (out, stripped)
        elif stripped != self._first[op][1]:
            self._fail(op, ["output differs from an earlier run of the same operation"])
            return
        self._reproduced[op] += 1

    def finish(self) -> tuple[int, list[str]]:
        """(failed count, first few problems) over every output added."""
        for op, (out, _) in self._first.items():
            problems = self._check(op, out)
            if problems:
                self._fail(op, problems, self._reproduced[op])
        return self.failed, self.notes


def timed_setup(workload, seed: int, workdir) -> tuple[float, dict, list[Op]]:
    """Wall seconds of one set-up, its files and its operations.

    Only the program's work, generating and serializing the instances, is
    timed.  Writing the files is not: on a 2-vCPU shared virtual machine
    with an ext4 disk, writing certify-sweep's 56 files took from 3 to
    45 ms, and that spread is the host's, not the program's.
    """
    start = time.perf_counter()
    files, ops = workload.setup(seed, workdir)
    return time.perf_counter() - start, files, ops


def write_files(files: dict) -> None:
    for path, text in files.items():
        path.write_text(text)


def percentiles(values: list[float]) -> dict[str, float]:
    """p50 plus the highest of p90/p95/p99 with ten samples beyond it."""
    out = {"p50": statistics.median(values)}
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def timed_run(workload, seed: int, seconds: float, workdir) -> tuple[dict, dict]:
    """Set up, time operations round-robin for ``seconds``, verify.

    Returns the result object (the benchmark's last output line, plus
    ``notes`` on failures) and the printed rows ``name -> (value, unit)``.
    """
    elapsed, files, ops = timed_setup(workload, seed, workdir)
    write_files(files)
    setup = [elapsed]
    verifier = Verifier()
    samples: dict[str, list[float]] = defaultdict(list)
    gc.collect()
    loop_start = time.perf_counter()
    timings: dict[Op, list[float]] = defaultdict(list)
    timed = 0
    while timed < len(ops) or time.perf_counter() - loop_start < seconds:
        if timed and timed % len(ops) == 0:
            if sum(setup) < SETUP_SHARE * (time.perf_counter() - loop_start):
                setup.append(timed_setup(workload, seed, workdir)[0])
        op = ops[timed % len(ops)]
        elapsed, rc, out = run_op(op)
        verifier.add(op, rc, out)
        samples[f"solve_{op.objective}_s" if op.kind == "solve" else op.kind].append(elapsed)
        timings[op].append(elapsed)
        timed += 1
    loop_wall = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, notes = verifier.finish()
    # The code under test is deterministic and single-threaded, so on a
    # shared host the spread of one operation's timings is interference
    # from outside, and the first call of a process is slower still.  Each
    # operation, and the set-up, is therefore scored by its best repeat; a
    # solve metric is the mean of those over the workload's instances, and
    # throughput is the operation count over the sum of the best repeats,
    # counting only check and certify operations when the workload has
    # them, as its solves are scored on their own.  Medians of all samples
    # are printed beside them.
    best = {op: min(v) for op, v in timings.items()}
    throughput_ops = [op for op in ops if op.kind != "solve"] or ops
    solves = [k for k in END_TO_END_UNITS if k.startswith("solve_")]
    values = {
        "setup_s": min(setup),
        **{
            f"solve_{obj}_s": statistics.fmean(
                t for op, t in best.items() if op.objective == obj
            )
            for obj in OBJECTIVES
        },
        "ops_per_s": len(throughput_ops) / sum(best[op] for op in throughput_ops),
        "peak_rss_mb": peak_rss_mb,
    }
    rows = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    rows["setup_s.p50"] = (statistics.median(setup), "s")
    rows.update({f"{k}.p50": (statistics.median(samples[k]), "s") for k in solves})
    rows["ops_per_s.mean"] = (timed / (loop_wall - sum(setup[1:])), "1/s")
    rows["error_rate"] = (failed / timed, "ratio")
    for kind in ("check", "certify"):
        if kind in samples:
            for name, value in percentiles(samples[kind]).items():
                rows[f"{kind}_ms.{name}"] = (value * 1e3, "ms")
    rows.update({f"samples.{k}": (len(v), "count") for k, v in sorted(samples.items())})
    rows["samples.setup"] = (len(setup), "count")
    result = {
        "correct": failed == 0,
        "attempted": timed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "notes": notes,
    }
    return result, rows


def install(tracer: tr.Tracer) -> dict[str, list[str]]:
    """Wrap every traced name; returns wrapper keys grouped by the workload
    feature whose calls must fire them."""
    wrap = tracer.wrap
    table = cli._GEOMETRIC_SOLVERS
    return {
        "gen-points": [wrap(generate, "generate_points", "generate")],
        "gen-sweep": [
            wrap(generate, name, "generate")
            for name in (
                "generate_matching_instance",
                "generate_colorful_matching_instance",
                "generate_colored_graph",
                "generate_uncolored_graph",
            )
        ],
        "write-points": [wrap(fileio, "serialize_points", "fileio.serialize")],
        "write-graph": [wrap(fileio, "serialize_graph", "fileio.serialize")],
        "solve-points": [
            wrap(cli, "parse_points", "fileio.parse_points", tr.count_bytes_in),
            wrap(fileio, "ColoredPointSet", "geometry.pointset"),
            *[
                tracer.wrap_item(
                    table, obj, f"colorspan.cli._GEOMETRIC_SOLVERS[{obj.value}]", "solvers.pipeline"
                )
                for obj in list(table)
            ],
            wrap(
                solvers,
                "build_closest_color_graph",
                "geometry.closest",
                tr.count_color_pairs("geometry.closest"),
            ),
            wrap(
                solvers,
                "build_farthest_color_graph",
                "geometry.farthest",
                tr.count_color_pairs("geometry.farthest"),
            ),
            wrap(solvers, "min_weight_perfect_matching", "matching.min_weight", tr.count_edges_in),
            wrap(solvers, "bottleneck_perfect_matching", "matching.bottleneck", tr.count_edges_in),
            wrap(solvers, "maxmin_perfect_matching", "matching.maxmin", tr.count_edges_in),
            wrap(matching, "has_perfect_matching", "matching.has_perfect"),
            wrap(matching, "maximum_weight_matching", "blossom"),
        ],
        "check-points": [
            wrap(cli, "brute_force_geometric", "oracles.geometric", tr.count_geometric_states),
        ],
        "check-graph": [
            wrap(cli, "parse_graph", "fileio.parse_graph", tr.count_bytes_in),
            wrap(cli, "solve_k_multicolored_matching", "solvers.colorful"),
            wrap(
                cli,
                "brute_force_colorful_graph_matching",
                "oracles.colorful",
                tr.count_colorful_states,
            ),
        ],
        "certify": [
            wrap(cli, "certify_equivalence", "hardness.certify"),
            wrap(hardness, "reduce_is_to_mcis", "hardness.reduce"),
            wrap(hardness, "reduce_mcis_to_mcim", "hardness.reduce"),
            wrap(hardness, "find_k_independent_set", "hardness.exhaustive"),
            wrap(hardness, "brute_force_mcis", "hardness.exhaustive"),
            wrap(hardness, "brute_force_mcim", "hardness.exhaustive"),
        ],
    }


@contextmanager
def installed(tracer: tr.Tracer):
    """Every traced name wrapped for the duration; yields :func:`install`'s
    wrapper keys."""
    try:
        yield install(tracer)
    finally:
        tracer.restore()


def trace_pass(workload, seed: int, workdir) -> dict:
    """Set-up, the operation list once to warm up (imports, first calls),
    then ``TRACE_ROUNDS`` rounds.  Each round sets up again under a fresh
    tracer, then runs every operation twice in a row, untraced and traced,
    in an order that alternates between rounds so neither run always
    finds the other's warm caches.

    Layer times are means over the rounds, and counters must be equal in
    every round.  The tracing overhead sums, over the operations, the
    median over rounds of the traced run's wall time minus the untraced
    one's: neighbouring runs share the host's state, and the median drops
    the rounds that interference from outside hit.
    """
    files, ops = workload.setup(seed, workdir)
    write_files(files)
    verifier = Verifier()
    for op in ops:
        _, rc, out = run_op(op)
        verifier.add(op, rc, out)
    untraced: dict[Op, list[float]] = defaultdict(list)
    traced: dict[Op, list[float]] = defaultdict(list)
    tracers: list[tr.Tracer] = []
    for rnd in range(TRACE_ROUNDS):
        tracer = tr.Tracer()
        tracers.append(tracer)
        with installed(tracer) as features:
            workload.setup(seed, workdir)
        gc.collect()
        for op in ops:
            for with_tracer in (False, True) if rnd % 2 == 0 else (True, False):
                # Each run starts from a collected heap.  Without this the
                # collector ran at other points in the two runs, and traced
                # runs of many-points read 2% faster than untraced ones.
                gc.collect()
                if with_tracer:
                    with installed(tracer):
                        elapsed, rc, out = run_op(op, tracer)
                    traced[op].append(elapsed)
                else:
                    elapsed, rc, out = run_op(op)
                    untraced[op].append(elapsed)
                verifier.add(op, rc, out)
    failed, notes = verifier.finish()
    counts = [dict(sorted(t.counts.items())) for t in tracers]
    if any(c != counts[0] for c in counts):
        notes.append(f"counters differ between rounds of one traced run: {counts}")
    unfired = [
        key
        for feature in workload.features
        for key in features[feature]
        if not all(t.fired[key] for t in tracers)
    ]
    per_round = [t.layer_times() for t in tracers]
    times = {k: statistics.fmean(r.get(k, 0.0) for r in per_round) for k in per_round[0]}
    op_layers_self = sum(
        v for k, v in times.items()
        if k.endswith(".self_s") and not k.startswith(("generate.", "fileio.serialize."))
    )
    return {
        "attempted": len(ops) * (1 + 2 * TRACE_ROUNDS),
        "failed": failed,
        "notes": notes,
        "unfired": unfired,
        "counts": counts[0],
        "times": times,
        "traced_wall_s": sum(map(sum, traced.values())) / TRACE_ROUNDS,
        "untraced_wall_s": sum(map(sum, untraced.values())) / TRACE_ROUNDS,
        "overhead_s": sum(
            statistics.median(t - u for t, u in zip(traced[op], untraced[op])) for op in ops
        ),
        "self_sum_s": op_layers_self,
        "spans": tracers[0].dump(),
    }


def traced_report(passes: list[dict]) -> tuple[dict, dict]:
    """Result and printed rows from two trace passes of one workload.

    Times are averaged over the passes; counters must repeat exactly, and
    every wrapper the workload should reach must have fired.
    """
    notes = [note for p in passes for note in p["notes"]]
    if any(p["counts"] != passes[0]["counts"] for p in passes):
        notes.append(f"counters differ between traced runs: {[p['counts'] for p in passes]}")
    notes.extend(f"wrappers never fired: {p['unfired']}" for p in passes if p["unfired"])
    values: dict[str, float] = {}
    for name in list(PER_LAYER_UNITS) + list(PRINTED_LAYER_TIMES):
        if name == "trace.overhead_s":
            values[name] = statistics.mean(p["overhead_s"] for p in passes)
        elif name.endswith("_s"):
            values[name] = statistics.mean(p["times"].get(name, 0.0) for p in passes)
        else:
            values[name] = passes[0]["counts"].get(name, 0)
    rows = {k: (v, PER_LAYER_UNITS.get(k, "s")) for k, v in values.items()}
    for name in ("traced_wall_s", "untraced_wall_s", "self_sum_s"):
        rows[f"trace.{name}"] = (statistics.mean(p[name] for p in passes), "s")
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0 and not notes,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {
            k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()
        },
        "notes": notes,
    }
    return result, rows


def fmt(value: float) -> str:
    return repr(value) if isinstance(value, int) else f"{value:.6g}"


def table(workload: str, rows: dict[str, tuple[float, str]]) -> list[str]:
    width = max(len(k) for k in rows)
    return [
        f"{workload:14} {name:<{width}} {fmt(v):>14} {unit}" for name, (v, unit) in rows.items()
    ]

