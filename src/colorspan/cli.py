"""Command-line interface.

Subcommands: ``gen`` (instances), ``solve`` (pipelines), ``oracle``
(exhaustive reference), ``check`` (solver vs oracle), ``reduce`` and
``certify`` (hardness constructions), ``render`` (SVG).

``check`` on a graph file, or a ``--sweep --kind graph``, takes
``--objective minsum`` or ``all`` only.

Exit codes: 0 solved/passed, 2 infeasible, 3 invalid input (including
usage and parse errors and unwritable output paths), 4 enumeration
budget exceeded, 5 check mismatch.
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


_Instance = ColoredPointSet | VertexColoredGraph


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 means infeasible here,
    # so reroute usage problems through the invalid-input path instead.
    def error(self, message):
        raise _UsageError(message)


def _write_file(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InvalidInstanceError(f"cannot write {path}: {exc}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InvalidInstanceError(f"cannot read {path}: {exc}") from None


def _read_instance(path: str, who: str) -> _Instance:
    """The point set or colored graph in ``path``; ``who`` names the
    command in the error for an uncolored graph."""
    text = _read_input(path)
    if sniff_kind(text) == "points":
        return parse_points(text)
    g = parse_graph(text)
    if not isinstance(g, VertexColoredGraph):
        raise InvalidInstanceError(f"{who} needs a colored graph (t > 0)")
    return g


def _record(
    objective: Objective,
    solution: ColorSpanningMatching | Matching | None,
    elapsed_ms: float,
) -> ResultRecord:
    """The record of one solver or oracle answer; ``None`` is an
    infeasible graph instance."""
    if solution is None:
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
    points = isinstance(solution, ColorSpanningMatching)
    return ResultRecord(
        kind="points" if points else "graph",
        objective=objective.value,
        status="solved",
        value=solution.value(objective) if points else solution.total_weight,
        pairs=solution.pairs if points else solution.edges,
        total_weight=solution.total_weight,
        min_edge_weight=solution.min_edge_weight,
        max_edge_weight=solution.max_edge_weight,
        time_ms=elapsed_ms,
    )


def _require_minsum(objective: Objective) -> None:
    if objective is not Objective.MINSUM:
        raise InvalidInstanceError("graph instances only support the minsum objective")


def _solve(instance: _Instance, objective: Objective) -> ResultRecord:
    start = time.perf_counter()
    if isinstance(instance, VertexColoredGraph):
        _require_minsum(objective)
        solution = solve_k_multicolored_matching(instance)
    elif objective in _GEOMETRIC_SOLVERS:
        solution = _GEOMETRIC_SOLVERS[objective](instance)
    else:
        raise InvalidInstanceError(
            f"objective {objective.value!r} has no solver; use the oracle for it"
        )
    return _record(objective, solution, (time.perf_counter() - start) * 1e3)


def _oracle(instance: _Instance, objective: Objective, budget: int) -> ResultRecord:
    start = time.perf_counter()
    if isinstance(instance, VertexColoredGraph):
        _require_minsum(objective)
        solution = brute_force_colorful_graph_matching(instance, budget)
    else:
        solution = brute_force_geometric(instance, objective, budget)
    return _record(objective, solution, (time.perf_counter() - start) * 1e3)


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
        text = serialize_points(ps)
    elif args.uncolored:
        g = generate.generate_uncolored_graph(args.n, args.seed, args.edge_prob)
        text = serialize_graph(g)
    else:
        if args.k is None:
            raise InvalidInstanceError("gen graph requires --k (or --uncolored)")
        t = 2 * args.k
        if t > args.n:
            raise InvalidInstanceError(f"2k = {t} colors exceed --n {args.n}")
        g = generate.generate_colored_graph(
            args.n, t, args.seed, edge_prob=args.edge_prob, weighted=not args.unweighted
        )
        text = serialize_graph(g)
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = _read_instance(args.input, "solve")
    record = _solve(instance, Objective.from_string(args.objective))
    if args.render_out is not None:
        if isinstance(instance, VertexColoredGraph):
            raise InvalidInstanceError("--render-out only applies to point instances")
        svg = render_svg(instance, record.pairs, record.objective, record.value)
        _write_file(args.render_out, svg)
    _write_output(record.to_json() if args.json else record.to_text(), args.out)
    return EXIT_OK if record.status == "solved" else EXIT_INFEASIBLE


def _cmd_oracle(args) -> int:
    instance = _read_instance(args.input, "the graph oracle")
    record = _oracle(instance, Objective.from_string(args.objective), args.budget)
    _write_output(record.to_json() if args.json else record.to_text(), args.out)
    return EXIT_OK if record.status == "solved" else EXIT_INFEASIBLE


def _agrees(solved: float, expected: float, tolerance: float) -> bool:
    """Whether ``solved`` is within ``tolerance`` of ``expected`` both
    absolutely and relative to ``expected``; the relative bound keeps the
    check meaningful at tiny coordinate scales, where any absolute
    tolerance accepts every answer."""
    gap = abs(solved - expected)
    return gap <= tolerance and gap <= tolerance * abs(expected)


def _check_objectives(name: str, instance: _Instance) -> tuple[Objective, ...]:
    """The objectives ``check`` compares: for ``all``, every one the
    instance's solver has."""
    graph = isinstance(instance, VertexColoredGraph)
    if name == "all":
        return (Objective.MINSUM,) if graph else tuple(_GEOMETRIC_SOLVERS)
    objective = Objective.from_string(name)
    if graph:
        _require_minsum(objective)
    elif objective not in _GEOMETRIC_SOLVERS:
        raise InvalidInstanceError(f"objective {objective.value!r} has no solver")
    return (objective,)


def _check_instance(instance: _Instance, objectives: tuple[Objective, ...], args) -> int:
    """Print one solver-vs-oracle line per objective; return the mismatch count."""
    failures = 0
    for objective in objectives:
        solved = _solve(instance, objective).value
        expected = _oracle(instance, objective, args.budget).value
        if solved is None or expected is None:
            ok = solved is expected
        else:
            solved += args.debug_perturb
            ok = _agrees(solved, expected, args.tolerance)
        shown = ["infeasible" if v is None else repr(v) for v in (solved, expected)]
        print(
            f"objective={objective.value} solver={shown[0]} oracle={shown[1]} "
            f"status={'ok' if ok else 'MISMATCH'}"
        )
        failures += not ok
    return failures


def _cmd_check(args) -> int:
    if args.sweep is None:
        if args.input is None:
            raise InvalidInstanceError("check needs an input file or --sweep")
        instance = _read_instance(args.input, "check")
        failures = _check_instance(instance, _check_objectives(args.objective, instance), args)
        return EXIT_OK if failures == 0 else EXIT_MISMATCH
    if args.sweep < 1:
        raise InvalidInstanceError(f"sweep count must be positive, got {args.sweep}")
    if args.seed < 0:
        raise InvalidInstanceError(f"seed must be non-negative, got {args.seed}")
    k_values = _parse_k_list(args.k_list)
    ks = [k_values[i % len(k_values)] for i in range(args.sweep)]
    seeds = range(args.seed * 1_000_003, args.seed * 1_000_003 + args.sweep)
    # Every instance is generated and the objectives resolved before the
    # first line is printed, so a rejected argument leaves no partial report.
    if args.kind == "points":
        make = functools.partial(
            generate.generate_matching_instance, max_class_size=args.max_class_size
        )
    else:
        make = generate.generate_colorful_matching_instance
    instances = [make(k, seed) for k, seed in zip(ks, seeds)]
    objectives = _check_objectives(args.objective, instances[0])
    failures = 0
    for i, (k, instance) in enumerate(zip(ks, instances)):
        print(f"instance={i} k={k}")
        failures += _check_instance(instance, objectives, args)
    print(f"sweep={args.sweep} failures={failures}")
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
    _write_file(out, serialize_graph(artifact.graph))
    sidecar = Path(str(out) + ".prov")
    _write_file(sidecar, serialize_provenance(artifact.provenance))
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
    elif args.objective is not None:
        record = _solve(ps, Objective.from_string(args.objective))
    else:
        raise InvalidInstanceError("render needs --result or --objective")
    _write_output(render_svg(ps, record.pairs, record.objective, record.value), args.out)
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
