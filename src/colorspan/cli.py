"""Command-line interface.

Subcommands: ``gen points`` and ``gen graph`` (instances), ``solve``
(pipelines), ``oracle`` (exhaustive reference), ``check`` (solver vs
oracle), ``reduce`` and ``certify`` (hardness constructions), ``render``
(SVG).

Each subcommand, and each ``gen`` kind, takes only its own options: an
option of another kind, or two options that conflict (such as ``check
FILE --sweep N``), exits 3 before anything is read or written.

``--objective`` follows one rule in every command: graphs take minsum
only, points every objective with a solver (``oracle`` also maxsum), and
``check`` reads ``all`` as every objective the instance's solver has.

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
from .geometry import ColoredPointSet, color_spanning_matching
from .hardness import (
    DEFAULT_MAX_STATES,
    VertexColoredGraph,
    certify_equivalence,
    reduce_is_to_mcis,
    reduce_mcis_to_mcim,
)
from .matching import Objective, WeightedGraph
from .oracles import brute_force_colorful_graph_matching, brute_force_geometric
from .render import render_svg
from .solvers import (
    solve_geometric,
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

# ``check --sweep``'s own options and their defaults.  The parser leaves
# them None, so a file check can tell that one was given and reject it.
_SWEEP_DEFAULTS = {"kind": "points", "seed": 0, "k_list": (2, 3), "max_class_size": 5}

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


def _at_least(convert, low, rule):
    """An argparse ``type``: ``convert``, then reject a value below ``low``
    or not finite (NaN fails the comparison) with "must be <rule>"."""

    def parse(text):
        value = convert(text)
        if not low <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value

    # argparse names the type in its "invalid int value: 'x'" message.
    parse.__name__ = convert.__name__
    return parse


_positive_int = _at_least(int, 1, "positive")
_non_negative_int = _at_least(int, 0, "non-negative")
_tolerance = _at_least(float, 0, "finite and non-negative")


def _k_list(spec: str) -> list[int]:
    """``--k-list``: comma-separated positive ints."""
    try:
        values = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"bad k list {spec!r}")
    return values


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
    except (OSError, UnicodeDecodeError) as exc:
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


def _objectives(name: str, instance: _Instance, command: str) -> tuple[Objective, ...]:
    """The objectives ``--objective name`` selects on ``instance`` for
    ``command``.

    Graphs take minsum only.  Points take every objective with a solver,
    and ``oracle`` also takes maxsum.  ``check`` reads ``all`` as every
    objective the instance's solver has.
    """
    graph = isinstance(instance, VertexColoredGraph)
    solved = (Objective.MINSUM,) if graph else tuple(_GEOMETRIC_SOLVERS)
    if command == "check" and name == "all":
        return solved
    objective = Objective.from_string(name)
    if graph and objective is not Objective.MINSUM:
        raise InvalidInstanceError("graph instances only support the minsum objective")
    if objective not in solved and command != "oracle":
        raise InvalidInstanceError(
            f"objective {objective.value!r} has no solver; use the oracle for it"
        )
    return (objective,)


def _solve(instance: _Instance, objective: Objective) -> ResultRecord:
    """The solver's record; ``objective`` comes from :func:`_objectives`."""
    start = time.perf_counter()
    if isinstance(instance, VertexColoredGraph):
        solution = solve_k_multicolored_matching(instance)
    else:
        solution = _GEOMETRIC_SOLVERS[objective](instance)
    kind = "graph" if isinstance(instance, VertexColoredGraph) else "points"
    return ResultRecord(kind, objective, solution, (time.perf_counter() - start) * 1e3)


def _oracle(
    instance: _Instance, objectives: tuple[Objective, ...], budget: int
) -> list[ResultRecord]:
    """One record per objective, all from one oracle call, whose time each
    record carries; ``objectives`` come from :func:`_objectives`."""
    start = time.perf_counter()
    if isinstance(instance, VertexColoredGraph):
        solutions = [brute_force_colorful_graph_matching(instance, budget)] * len(objectives)
    else:
        solutions = brute_force_geometric(instance, objectives, budget)
    kind = "graph" if isinstance(instance, VertexColoredGraph) else "points"
    time_ms = (time.perf_counter() - start) * 1e3
    return [ResultRecord(kind, o, m, time_ms) for o, m in zip(objectives, solutions)]


def _cmd_gen_points(args) -> int:
    if args.matching and args.t % 2:
        raise InvalidInstanceError("--matching instances need an even --t")
    ps = generate.generate_points(
        args.n, args.t, args.seed, args.distribution, max_class_size=args.max_class_size
    )
    _write_output(serialize_points(ps), args.out)
    return EXIT_OK


def _cmd_gen_graph(args) -> int:
    if args.uncolored:
        if args.unweighted:
            raise _UsageError("argument --unweighted: not allowed with argument --uncolored")
        g = generate.generate_uncolored_graph(args.n, args.seed, args.edge_prob)
    else:
        g = generate.generate_colored_graph(
            args.n, 2 * args.k, args.seed, edge_prob=args.edge_prob, weighted=not args.unweighted
        )
    _write_output(serialize_graph(g), args.out)
    return EXIT_OK


def _svg(point_set: ColoredPointSet, record: ResultRecord) -> str:
    """``record``'s matching drawn over ``point_set``."""
    if record.solution is None:
        raise InvalidInstanceError("refusing to render an empty matching")
    return render_svg(point_set, record.solution.edges, record.objective.value, record.value)


def _cmd_solve(args) -> int:
    instance = _read_instance(args.input, "solve")
    (objective,) = _objectives(args.objective, instance, args.command)
    record = _solve(instance, objective)
    if args.render_out is not None:
        if isinstance(instance, VertexColoredGraph):
            raise InvalidInstanceError("--render-out only applies to point instances")
        _write_file(args.render_out, _svg(instance, record))
    _write_output(record.to_json() if args.json else record.to_text(), args.out)
    return EXIT_OK if record.status == "solved" else EXIT_INFEASIBLE


def _cmd_oracle(args) -> int:
    instance = _read_instance(args.input, "the graph oracle")
    (record,) = _oracle(instance, _objectives(args.objective, instance, args.command), args.budget)
    _write_output(record.to_json() if args.json else record.to_text(), args.out)
    return EXIT_OK if record.status == "solved" else EXIT_INFEASIBLE


def _agrees(solved: float, expected: float, tolerance: float) -> bool:
    """Whether ``solved`` is within ``tolerance`` of ``expected`` both
    absolutely and relative to ``expected``; the relative bound keeps the
    check meaningful at tiny coordinate scales, where any absolute
    tolerance accepts every answer."""
    gap = abs(solved - expected)
    return gap <= tolerance and gap <= tolerance * abs(expected)


def _check_instance(
    instance: _Instance, objectives: tuple[Objective, ...], args
) -> tuple[list[str], int]:
    """One solver-vs-oracle line per objective, and the mismatch count.

    One solver call, which builds each color graph once for all the
    objectives, and the one oracle call both run before any line is made.
    """
    if isinstance(instance, VertexColoredGraph):
        solutions = [solve_k_multicolored_matching(instance)] * len(objectives)
    else:
        solutions = solve_geometric(instance, objectives)
    solved = [None if m is None else m.value(o) for m, o in zip(solutions, objectives)]
    lines, failures = [], 0
    for value, record in zip(solved, _oracle(instance, objectives, args.budget)):
        expected = record.value
        if value is None or expected is None:
            ok = value is expected
        else:
            value += args.debug_perturb
            ok = _agrees(value, expected, args.tolerance)
        shown = ["infeasible" if v is None else repr(v) for v in (value, expected)]
        lines.append(
            f"objective={record.objective.value} solver={shown[0]} oracle={shown[1]} "
            f"status={'ok' if ok else 'MISMATCH'}"
        )
        failures += not ok
    return lines, failures


def _cmd_check(args) -> int:
    given = [name for name in _SWEEP_DEFAULTS if getattr(args, name) is not None]
    if args.sweep is None:
        if given:
            option = "--" + given[0].replace("_", "-")
            raise _UsageError(f"argument {option}: only allowed with argument --sweep")
        instance = _read_instance(args.input, "check")
        objectives = _objectives(args.objective, instance, args.command)
        report, failures = _check_instance(instance, objectives, args)
        print(*report, sep="\n")
        return EXIT_OK if failures == 0 else EXIT_MISMATCH
    vars(args).update((name, d) for name, d in _SWEEP_DEFAULTS.items() if name not in given)
    ks = [args.k_list[i % len(args.k_list)] for i in range(args.sweep)]
    seeds = range(args.seed * 1_000_003, args.seed * 1_000_003 + args.sweep)
    # The report is printed only once every instance is checked, so an
    # error on any instance leaves no partial report.
    if args.kind == "points":
        make = functools.partial(
            generate.generate_matching_instance, max_class_size=args.max_class_size
        )
    else:
        make = generate.generate_colorful_matching_instance
    instances = [make(k, seed) for k, seed in zip(ks, seeds)]
    objectives = _objectives(args.objective, instances[0], args.command)
    report, failures = [], 0
    for i, (k, instance) in enumerate(zip(ks, instances)):
        lines, mismatches = _check_instance(instance, objectives, args)
        report += [f"instance={i} k={k}", *lines]
        failures += mismatches
    print(*report, f"sweep={args.sweep} failures={failures}", sep="\n")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


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
        if record.kind != "points":
            raise InvalidInstanceError(f"render needs a points result, got kind {record.kind!r}")
        if record.solution is None:
            raise InvalidInstanceError("refusing to render an empty or unsolved result")
        recomputed = color_spanning_matching(ps, record.solution.edges).value(record.objective)
        if record.value != recomputed:
            raise InvalidInstanceError(
                f"result value {record.value!r} does not match these points "
                f"(recomputed {recomputed!r})"
            )
    else:
        (objective,) = _objectives(args.objective, ps, args.command)
        record = _solve(ps, objective)
    _write_output(_svg(ps, record), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="colorspan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    kinds = gen.add_subparsers(dest="kind", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--n", type=int, required=True, help="number of points/vertices")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--out")
    points = kinds.add_parser("points", parents=[shared], help="colored points in the plane")
    points.add_argument("--t", type=int, required=True, help="number of colors")
    points.add_argument("--distribution", choices=generate.DISTRIBUTIONS, default="uniform")
    points.add_argument("--max-class-size", type=int)
    points.add_argument("--matching", action="store_true", help="require an even color count")
    points.set_defaults(func=_cmd_gen_points)
    graph = kinds.add_parser("graph", parents=[shared], help="a vertex-colored graph")
    colors = graph.add_mutually_exclusive_group(required=True)
    colors.add_argument("--k", type=_positive_int, help="half the number of colors")
    colors.add_argument("--uncolored", action="store_true", help="emit t = 0")
    graph.add_argument("--unweighted", action="store_true", help="omit edge weights")
    graph.add_argument("--edge-prob", type=float, default=0.5)
    graph.set_defaults(func=_cmd_gen_graph)

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
    oracle.add_argument("--budget", type=_non_negative_int, default=DEFAULT_MAX_STATES)
    oracle.add_argument("--json", action="store_true")
    oracle.add_argument("--out")
    oracle.set_defaults(func=_cmd_oracle)

    check = sub.add_parser("check", help="compare solver against oracle")
    source = check.add_mutually_exclusive_group(required=True)
    source.add_argument("input", nargs="?")
    source.add_argument("--sweep", type=_positive_int, help="check this many generated instances")
    check.add_argument("--objective", default="all")
    check.add_argument("--budget", type=_non_negative_int, default=DEFAULT_MAX_STATES)
    check.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE)
    check.add_argument("--kind", choices=("points", "graph"), help="sweep only")
    check.add_argument("--seed", type=_non_negative_int, help="sweep only")
    check.add_argument("--k-list", type=_k_list, help="sweep only")
    check.add_argument("--max-class-size", type=int, help="sweep only")
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
    certify.add_argument("--budget", type=_non_negative_int, default=DEFAULT_MAX_STATES)
    certify.set_defaults(func=_cmd_certify)

    render = sub.add_parser("render", help="render a solved matching as SVG")
    render.add_argument("input")
    record = render.add_mutually_exclusive_group(required=True)
    record.add_argument("--result", help="JSON result file from solve --json")
    record.add_argument("--objective", help="solve now instead of reading a result")
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
