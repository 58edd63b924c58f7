"""Command-line interface.

Subcommands: ``gen`` (instances), ``solve`` (pipelines), ``oracle``
(exhaustive reference), ``check`` (solver vs oracle), ``reduce`` and
``certify`` (hardness constructions), ``render`` (SVG).

Exit codes: 0 solved/passed, 2 infeasible, 3 invalid input (including
usage and parse errors), 4 enumeration budget exceeded, 5 check mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from . import generate
from .errors import BudgetExceededError, InvalidInstanceError
from .fileio import (
    ResultRecord,
    parse_graph,
    parse_points,
    serialize_graph,
    serialize_points,
    serialize_provenance,
    sniff_kind,
)
from .geometry import ColoredPointSet
from .hardness import (
    DEFAULT_MAX_STATES,
    VertexColoredGraph,
    certify_equivalence,
    reduce_is_to_mcis,
    reduce_mcis_to_mcim,
)
from .matching import Matching, WeightedGraph
from .oracles import brute_force_colorful_graph_matching, brute_force_geometric
from .render import render_svg
from .solvers import (
    ColorSpanningMatching,
    Objective,
    solve_k_multicolored_matching,
    solve_maxmin,
    solve_minmax,
    solve_minsum,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5

DEFAULT_TOLERANCE = 1e-9

_GEOMETRIC_SOLVERS = {
    Objective.MINSUM: solve_minsum,
    Objective.MAXMIN: solve_maxmin,
    Objective.MINMAX: solve_minmax,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 means infeasible here,
    # so reroute usage problems through the invalid-input path instead.
    def error(self, message):
        raise _UsageError(message)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InvalidInstanceError(f"cannot read {path}: {exc}") from None


def _record_for_points(
    objective: Objective, solution: ColorSpanningMatching, elapsed_ms: float
) -> ResultRecord:
    return ResultRecord(
        kind="points",
        objective=objective.value,
        status="solved",
        value=solution.value(objective),
        pairs=solution.pairs,
        total_weight=solution.total_weight,
        min_edge_weight=solution.min_edge_weight,
        max_edge_weight=solution.max_edge_weight,
        time_ms=elapsed_ms,
    )


def _record_for_graph(
    objective: Objective, matching: Matching | None, elapsed_ms: float
) -> ResultRecord:
    if matching is None:
        return ResultRecord(
            kind="graph",
            objective=objective.value,
            status="infeasible",
            value=None,
            pairs=(),
            total_weight=None,
            min_edge_weight=None,
            max_edge_weight=None,
            time_ms=elapsed_ms,
        )
    return ResultRecord(
        kind="graph",
        objective=objective.value,
        status="solved",
        value=matching.total_weight,
        pairs=matching.edges,
        total_weight=matching.total_weight,
        min_edge_weight=matching.min_edge_weight,
        max_edge_weight=matching.max_edge_weight,
        time_ms=elapsed_ms,
    )


def _emit_record(record: ResultRecord, as_json: bool, out: str | None) -> None:
    _write_output(record.to_json() if as_json else record.to_text(), out)


def _cmd_gen(args) -> int:
    if args.kind == "points":
        if args.t is None:
            raise InvalidInstanceError("gen points requires --t")
        if args.t > args.n:
            raise InvalidInstanceError(f"--t {args.t} exceeds --n {args.n}")
        if args.matching and args.t % 2:
            raise InvalidInstanceError("--matching instances need an even --t")
        ps = generate.generate_points(
            args.n,
            args.t,
            args.seed,
            distribution=args.distribution,
            max_class_size=args.max_class_size,
        )
        _write_output(serialize_points(ps), args.out)
    else:
        if args.uncolored:
            g = generate.generate_uncolored_graph(args.n, args.seed, args.edge_prob)
            _write_output(serialize_graph(g), args.out)
        else:
            if args.k is None:
                raise InvalidInstanceError("gen graph requires --k (or --uncolored)")
            t = 2 * args.k
            if t > args.n:
                raise InvalidInstanceError(f"2k = {t} colors exceed --n {args.n}")
            g = generate.generate_colored_graph(
                args.n, t, args.seed, edge_prob=args.edge_prob, weighted=not args.unweighted
            )
            _write_output(serialize_graph(g), args.out)
    return EXIT_OK


def _solve_points(ps: ColoredPointSet, objective: Objective) -> ResultRecord:
    if objective not in _GEOMETRIC_SOLVERS:
        raise InvalidInstanceError(
            f"objective {objective.value!r} has no solver; use the oracle for it"
        )
    start = time.perf_counter()
    solution = _GEOMETRIC_SOLVERS[objective](ps)
    return _record_for_points(objective, solution, (time.perf_counter() - start) * 1e3)


def _solve_graph(g: VertexColoredGraph, objective: Objective) -> ResultRecord:
    if objective is not Objective.MINSUM:
        raise InvalidInstanceError("graph instances only support the minsum objective")
    start = time.perf_counter()
    matching = solve_k_multicolored_matching(g)
    return _record_for_graph(objective, matching, (time.perf_counter() - start) * 1e3)


def _cmd_solve(args) -> int:
    text = _read_input(args.input)
    objective = Objective.from_string(args.objective)
    if sniff_kind(text) == "points":
        ps = parse_points(text)
        record = _solve_points(ps, objective)
        if args.render_out is not None:
            svg = render_svg(ps, record.pairs, objective.value, record.value)
            Path(args.render_out).write_text(svg)
    else:
        g = parse_graph(text)
        if not isinstance(g, VertexColoredGraph):
            raise InvalidInstanceError("solve needs a colored graph (t > 0)")
        record = _solve_graph(g, objective)
        if args.render_out is not None:
            raise InvalidInstanceError("--render-out only applies to point instances")
    _emit_record(record, args.json, args.out)
    return EXIT_OK if record.status == "solved" else EXIT_INFEASIBLE


def _oracle_record(text: str, objective: Objective, budget: int) -> ResultRecord:
    if sniff_kind(text) == "points":
        ps = parse_points(text)
        start = time.perf_counter()
        solution = brute_force_geometric(ps, objective, budget)
        return _record_for_points(objective, solution, (time.perf_counter() - start) * 1e3)
    g = parse_graph(text)
    if not isinstance(g, VertexColoredGraph):
        raise InvalidInstanceError("the graph oracle needs a colored graph (t > 0)")
    if objective is not Objective.MINSUM:
        raise InvalidInstanceError("graph instances only support the minsum objective")
    start = time.perf_counter()
    matching = brute_force_colorful_graph_matching(g, budget)
    return _record_for_graph(objective, matching, (time.perf_counter() - start) * 1e3)


def _cmd_oracle(args) -> int:
    text = _read_input(args.input)
    objective = Objective.from_string(args.objective)
    record = _oracle_record(text, objective, args.budget)
    _emit_record(record, args.json, args.out)
    return EXIT_OK if record.status == "solved" else EXIT_INFEASIBLE


def _agrees(solved: float, expected: float, tolerance: float) -> bool:
    """Whether ``solved`` is within ``tolerance`` of ``expected`` both
    absolutely and relative to ``expected``; the relative bound keeps the
    check meaningful at tiny coordinate scales, where any absolute
    tolerance accepts every answer."""
    gap = abs(solved - expected)
    return gap <= tolerance and gap <= tolerance * abs(expected)


def _check_points_instance(
    ps: ColoredPointSet, objectives, budget, tolerance, perturb
) -> list[str]:
    failures = []
    for objective in objectives:
        solved = _GEOMETRIC_SOLVERS[objective](ps).value(objective) + perturb
        expected = brute_force_geometric(ps, objective, budget).value(objective)
        status = "ok" if _agrees(solved, expected, tolerance) else "MISMATCH"
        print(
            f"objective={objective.value} solver={solved!r} oracle={expected!r} status={status}"
        )
        if status != "ok":
            failures.append(objective.value)
    return failures


def _check_graph_instance(g: VertexColoredGraph, budget, tolerance, perturb) -> list[str]:
    solved = solve_k_multicolored_matching(g)
    expected = brute_force_colorful_graph_matching(g, budget)
    if (solved is None) != (expected is None):
        print(
            f"objective=minsum solver={'infeasible' if solved is None else solved.total_weight!r} "
            f"oracle={'infeasible' if expected is None else expected.total_weight!r} status=MISMATCH"
        )
        return ["minsum"]
    if solved is None:
        print("objective=minsum solver=infeasible oracle=infeasible status=ok")
        return []
    value = solved.total_weight + perturb
    status = "ok" if _agrees(value, expected.total_weight, tolerance) else "MISMATCH"
    print(
        f"objective=minsum solver={value!r} oracle={expected.total_weight!r} status={status}"
    )
    return [] if status == "ok" else ["minsum"]


def _cmd_check(args) -> int:
    perturb = args.debug_perturb
    failures = 0
    if args.sweep is not None:
        if args.sweep < 1:
            raise InvalidInstanceError(f"sweep count must be positive, got {args.sweep}")
        if args.seed < 0:
            raise InvalidInstanceError(f"seed must be non-negative, got {args.seed}")
        k_values = _parse_k_list(args.k_list)
        for i in range(args.sweep):
            k = k_values[i % len(k_values)]
            seed = args.seed * 1_000_003 + i
            # Each instance is generated before its header line, so an
            # argument the generator rejects leaves no partial report.
            if args.kind == "points":
                ps = generate.generate_matching_instance(k, seed, args.max_class_size)
                print(f"instance={i} k={k}")
                failures += len(
                    _check_points_instance(
                        ps, tuple(_GEOMETRIC_SOLVERS), args.budget, args.tolerance, perturb
                    )
                )
            else:
                g = generate.generate_colorful_matching_instance(k, seed)
                print(f"instance={i} k={k}")
                failures += len(_check_graph_instance(g, args.budget, args.tolerance, perturb))
        print(f"sweep={args.sweep} failures={failures}")
        return EXIT_OK if failures == 0 else EXIT_MISMATCH
    if args.input is None:
        raise InvalidInstanceError("check needs an input file or --sweep")
    text = _read_input(args.input)
    if sniff_kind(text) == "points":
        ps = parse_points(text)
        objectives = (
            tuple(_GEOMETRIC_SOLVERS)
            if args.objective == "all"
            else (Objective.from_string(args.objective),)
        )
        for objective in objectives:
            if objective not in _GEOMETRIC_SOLVERS:
                raise InvalidInstanceError(f"objective {objective.value!r} has no solver")
        failures = len(
            _check_points_instance(ps, objectives, args.budget, args.tolerance, perturb)
        )
    else:
        g = parse_graph(text)
        if not isinstance(g, VertexColoredGraph):
            raise InvalidInstanceError("check needs a colored graph (t > 0)")
        failures = len(_check_graph_instance(g, args.budget, args.tolerance, perturb))
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def _parse_k_list(spec: str) -> list[int]:
    try:
        values = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInstanceError(f"bad k list {spec!r}") from None
    if not values or any(k < 1 for k in values):
        raise InvalidInstanceError(f"bad k list {spec!r}")
    return values


def _cmd_reduce(args) -> int:
    text = _read_input(args.input)
    g = parse_graph(text)
    if args.step == "is2mcis":
        if not isinstance(g, WeightedGraph):
            raise InvalidInstanceError("is2mcis starts from an uncolored graph (t = 0)")
        if args.k is None:
            raise InvalidInstanceError("is2mcis requires --k")
        artifact = reduce_is_to_mcis(g, args.k)
    else:
        if not isinstance(g, VertexColoredGraph):
            raise InvalidInstanceError("mcis2mcim starts from a colored graph (t > 0)")
        if args.k is not None and args.k != g.num_colors:
            raise InvalidInstanceError(
                f"--k {args.k} disagrees with the input's {g.num_colors} colors"
            )
        artifact = reduce_mcis_to_mcim(g)
    out = Path(args.out)
    out.write_text(serialize_graph(artifact.graph))
    sidecar = Path(str(out) + ".prov")
    sidecar.write_text(serialize_provenance(artifact.provenance))
    print(
        f"vertices={artifact.graph.num_vertices} edges={len(artifact.graph.edges)} "
        f"colors={artifact.graph.num_colors} out={out} provenance={sidecar}"
    )
    return EXIT_OK


def _cmd_certify(args) -> int:
    text = _read_input(args.input)
    g = parse_graph(text)
    if not isinstance(g, WeightedGraph):
        raise InvalidInstanceError("certify starts from an uncolored graph (t = 0)")
    certificate = certify_equivalence(g, args.k, args.budget)
    print(f"k={certificate.k}")
    print(f"k_independent_set={str(certificate.has_independent_set).lower()}")
    print(
        "colorful_independent_set="
        + str(certificate.has_colorful_independent_set).lower()
    )
    print(
        "colorful_independent_matching="
        + str(certificate.has_colorful_independent_matching).lower()
    )
    print("equivalent=true")
    if certificate.independent_set is not None:
        print("independent_set=" + " ".join(map(str, certificate.independent_set)))
        print("lifted_colorful_set=" + " ".join(map(str, certificate.lifted_colorful_set)))
        print("lifted_matching_set=" + " ".join(map(str, certificate.lifted_matching_set)))
    return EXIT_OK


def _cmd_render(args) -> int:
    text = _read_input(args.input)
    if sniff_kind(text) != "points":
        raise InvalidInstanceError("render needs a point instance")
    ps = parse_points(text)
    if args.result is not None:
        record = ResultRecord.from_json(_read_input(args.result))
        if record.status != "solved" or not record.pairs:
            raise InvalidInstanceError("refusing to render an empty or unsolved result")
        n = len(ps)
        if any(not (0 <= a < n and 0 <= b < n) for a, b in record.pairs):
            raise InvalidInstanceError("result pairs do not match this point file")
        objective = Objective.from_string(record.objective)
        recomputed = ColorSpanningMatching.from_pairs(ps, record.pairs).value(objective)
        if not _agrees(record.value, recomputed, DEFAULT_TOLERANCE):
            raise InvalidInstanceError(
                f"result value {record.value!r} does not match these points "
                f"(recomputed {recomputed!r})"
            )
        svg = render_svg(ps, record.pairs, record.objective, record.value)
    elif args.objective is not None:
        record = _solve_points(ps, Objective.from_string(args.objective))
        svg = render_svg(ps, record.pairs, record.objective, record.value)
    else:
        raise InvalidInstanceError("render needs --result or --objective")
    _write_output(svg, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="colorspan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("kind", choices=("points", "graph"))
    gen.add_argument("--n", type=int, required=True, help="number of points/vertices")
    gen.add_argument("--t", type=int, help="number of colors (points)")
    gen.add_argument("--k", type=int, help="half the number of colors (graph)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--distribution", choices=generate.DISTRIBUTIONS, default="uniform")
    gen.add_argument("--max-class-size", type=int, default=None)
    gen.add_argument("--matching", action="store_true", help="require an even color count")
    gen.add_argument("--uncolored", action="store_true", help="graph: emit t = 0")
    gen.add_argument("--unweighted", action="store_true", help="graph: omit edge weights")
    gen.add_argument("--edge-prob", type=float, default=0.5)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run a matching pipeline on an instance file")
    solve.add_argument("input")
    solve.add_argument("--objective", default="minsum")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--render-out", help="also write an SVG of the solution")
    solve.add_argument("--out")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="run the exhaustive reference solver")
    oracle.add_argument("input")
    oracle.add_argument("--objective", default="minsum")
    oracle.add_argument("--budget", type=int, default=DEFAULT_MAX_STATES)
    oracle.add_argument("--json", action="store_true")
    oracle.add_argument("--out")
    oracle.set_defaults(func=_cmd_oracle)

    check = sub.add_parser("check", help="compare solver against oracle")
    check.add_argument("input", nargs="?")
    check.add_argument("--objective", default="all")
    check.add_argument("--budget", type=int, default=DEFAULT_MAX_STATES)
    check.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    check.add_argument("--sweep", type=int, help="check this many generated instances")
    check.add_argument("--kind", choices=("points", "graph"), default="points")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--k-list", default="2,3")
    check.add_argument("--max-class-size", type=int, default=5)
    check.add_argument(
        "--debug-perturb",
        type=float,
        default=0.0,
        help="add this to every solver value (harness self-test)",
    )
    check.set_defaults(func=_cmd_check)

    reduce_cmd = sub.add_parser("reduce", help="run a hardness reduction step")
    reduce_cmd.add_argument("input")
    reduce_cmd.add_argument("--step", choices=("is2mcis", "mcis2mcim"), required=True)
    reduce_cmd.add_argument("--k", type=int)
    reduce_cmd.add_argument("--out", required=True)
    reduce_cmd.set_defaults(func=_cmd_reduce)

    certify = sub.add_parser("certify", help="certify the reduction chain on one instance")
    certify.add_argument("input")
    certify.add_argument("--k", type=int, required=True)
    certify.add_argument("--budget", type=int, default=DEFAULT_MAX_STATES)
    certify.set_defaults(func=_cmd_certify)

    render = sub.add_parser("render", help="render a solved matching as SVG")
    render.add_argument("input")
    render.add_argument("--result", help="JSON result file from solve --json")
    render.add_argument("--objective", help="solve now instead of reading a result")
    render.add_argument("--out")
    render.set_defaults(func=_cmd_render)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares, built on first use.

    Sharing is safe: argument defaults are immutable, and ``parse_args``
    writes only to the fresh namespace it returns (``_Parser.error`` raises
    without touching the parser).
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvalidInstanceError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
