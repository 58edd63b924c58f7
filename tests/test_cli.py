import hashlib
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from colorspan import cli, hardness
from colorspan.cli import (
    EXIT_BUDGET,
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    main,
)
from colorspan import ColoredPointSet
from colorspan.fileio import ResultRecord, parse_graph, parse_points, serialize_points
from colorspan.generate import generate_points

from conftest import FIXTURE_DIR

FIG1 = str(FIXTURE_DIR / "figure1.points")
FIG2 = str(FIXTURE_DIR / "figure2.points")

# The only bichromatic distance, 2e308, exceeds the float range.
OVERFLOW_POINTS = "2 2\n1e308 0 0\n-1e308 0 1\n"
# Each color has a point at x = -1e308 and one at x = 1e308: every
# farthest distance exceeds the float range, no closest one does.
SPLIT_POINTS = "8 4\n" + "".join(f"{x} {c} {c}\n" for c in range(4) for x in ("-1e308", "1e308"))
OVERFLOW_ERROR = "invalid input: the distance between colors 0 and 1 exceeds the float range\n"
# The stderr prefixes of a rejected instance and of a rejected command line.
INVALID = "invalid input: "
USAGE = "error: "


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_lines(out):
    """Result text minus the volatile timing line."""
    return [line for line in out.splitlines() if not line.startswith("time_ms=")]


class TestGen:
    def test_points_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.points", tmp_path / "b.points"
        assert main(["gen", "points", "--n", "8", "--t", "4", "--seed", "1", "--out", str(a)]) == EXIT_OK
        assert main(["gen", "points", "--n", "8", "--t", "4", "--seed", "1", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_points_cover_every_color(self, capsys):
        code, out, _ = run(capsys, "gen", "points", "--n", "8", "--t", "4", "--seed", "5")
        assert code == EXIT_OK
        ps = parse_points(out)
        assert set(ps.colors.tolist()) == {0, 1, 2, 3}

    def test_graph_round_trips(self, capsys):
        code, out, _ = run(capsys, "gen", "graph", "--n", "10", "--k", "2", "--seed", "7")
        assert code == EXIT_OK
        g = parse_graph(out)
        assert g.num_vertices == 10
        assert g.num_colors == 4

    def test_t_larger_than_n_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "points", "--n", "3", "--t", "4", "--seed", "0")
        assert code == EXIT_INVALID
        assert "invalid" in err

    def test_odd_t_with_matching_flag_rejected(self, capsys):
        code, _, _ = run(
            capsys, "gen", "points", "--n", "9", "--t", "3", "--seed", "0", "--matching"
        )
        assert code == EXIT_INVALID

    def test_odd_t_without_flag_allowed(self, capsys):
        code, _, _ = run(capsys, "gen", "points", "--n", "9", "--t", "3", "--seed", "0")
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in (
                (["gen", "points", "--n", "4", "--t", "0"], INVALID + "color count must be positive, got 0"),
                (["gen", "graph", "--n", "4", "--k", "0"], USAGE + "argument --k: must be positive, got 0"),
                (["gen", "graph", "--n", "4", "--k", "-1"], USAGE + "argument --k: must be positive, got -1"),
                (
                    ["check", "--sweep", "1", "--max-class-size", "0"],
                    INVALID + "max class size must be positive, got 0",
                ),
                (
                    ["check", "--sweep", "1", "--max-class-size", "-2"],
                    INVALID + "max class size must be positive, got -2",
                ),
                (
                    ["gen", "points", "--n", "4", "--t", "2", "--seed", "-1"],
                    INVALID + "seed must be non-negative, got -1",
                ),
                (
                    ["gen", "graph", "--n", "4", "--k", "1", "--seed", "-1"],
                    INVALID + "seed must be non-negative, got -1",
                ),
                (
                    ["check", "--sweep", "1", "--seed", "-1"],
                    USAGE + "argument --seed: must be non-negative, got -1",
                ),
                (
                    ["check", "--sweep", "1", "--kind", "graph", "--seed", "-1"],
                    USAGE + "argument --seed: must be non-negative, got -1",
                ),
                (["check", "--sweep", "0"], USAGE + "argument --sweep: must be positive, got 0"),
                (["check", "--sweep", "-3"], USAGE + "argument --sweep: must be positive, got -3"),
                # k=8 needs 16 vertices; the graph generator caps at 14.
                (
                    ["check", "--sweep", "2", "--kind", "graph", "--k-list", "2,8"],
                    INVALID + "need at least 16 vertices, got cap 14",
                ),
            )
        ],
    )
    def test_out_of_range_arguments_are_invalid_input(self, capsys, argv, message):
        assert run(capsys, *argv) == (EXIT_INVALID, "", message + "\n")

    def test_sweep_seed_error_names_the_given_seed(self, capsys):
        code, out, err = run(capsys, "check", "--sweep", "1", "--seed", "-1")
        assert (code, out) == (EXIT_INVALID, "")
        assert err == "error: argument --seed: must be non-negative, got -1\n"

    def test_graph_k_error_names_the_given_k(self, capsys):
        code, out, err = run(capsys, "gen", "graph", "--n", "4", "--k", "-1")
        assert (code, out) == (EXIT_INVALID, "")
        assert err == "error: argument --k: must be positive, got -1\n"


SMALL_INTS = st.integers(-3, 6).map(str)
# Numbers as typed on a command line, some of which every range rule refuses.
FLOAT_TEXTS = st.floats(-1.5, 1.5).map(repr) | st.sampled_from(["nan", "inf", "-inf", "x"])
K_LISTS = st.lists(st.integers(-1, 3).map(str) | st.just("x"), max_size=3).map(",".join)
# Option tables: each option with the values drawn for it, None for a flag.
GEN_OPTIONS = {
    "points": {
        "--t": SMALL_INTS,
        "--max-class-size": SMALL_INTS,
        "--distribution": st.sampled_from(["uniform", "clusters"]),
        "--matching": None,
    },
    "graph": {
        "--k": SMALL_INTS,
        "--edge-prob": FLOAT_TEXTS,
        "--uncolored": None,
        "--unweighted": None,
    },
}
CHECK_NUMBERS = {
    "--budget": st.integers(-2, 400).map(str),
    "--tolerance": FLOAT_TEXTS,
    "--debug-perturb": FLOAT_TEXTS,
}
SWEEP_ONLY = {
    "--kind": st.sampled_from(["points", "graph"]),
    "--seed": SMALL_INTS,
    "--k-list": K_LISTS,
    "--max-class-size": SMALL_INTS,
}


def some_options(draw, options, rarely=False):
    """Each of ``options`` or not, with a drawn value; ``rarely`` draws
    none at all three times in four."""
    if rarely and draw(st.integers(0, 3)):
        return []
    argv = []
    for option, values in options.items():
        if draw(st.booleans()):
            argv += [option] if values is None else [option, draw(values)]
    return argv


@st.composite
def generator_argvs(draw):
    """``gen`` and ``check --sweep`` argument lists with small, possibly
    out-of-range numbers; a ``gen`` list may carry the other kind's options."""
    kind, other = draw(st.permutations(["points", "graph"]))
    if draw(st.booleans()):
        argv = ["gen", kind, "--n", draw(SMALL_INTS), "--seed", draw(SMALL_INTS)]
        if kind == "points":
            argv += ["--t", draw(SMALL_INTS), "--max-class-size", draw(SMALL_INTS)]
            argv += some_options(draw, {"--matching": None})
        else:
            argv += ["--k", draw(SMALL_INTS)] if draw(st.booleans()) else ["--uncolored"]
            argv += ["--edge-prob", repr(draw(st.floats(-0.5, 1.5)))]
            argv += some_options(draw, {"--unweighted": None})
        return argv + some_options(draw, GEN_OPTIONS[other], rarely=True)
    return [
        "check", "--sweep", draw(SMALL_INTS), "--kind", kind,
        "--seed", draw(SMALL_INTS), "--max-class-size", draw(SMALL_INTS),
        *some_options(draw, {"--k-list": K_LISTS, **CHECK_NUMBERS}, rarely=True),
    ]


@st.composite
def file_argvs(draw):
    """``oracle``, ``check``, ``reduce`` and ``certify`` argument lists on
    the instance files, named ``{points}``, ``{colored}`` and
    ``{uncolored}``, with small, possibly out-of-range numbers; a file
    ``check`` may carry options that only a sweep takes."""
    command = draw(st.sampled_from(["oracle", "check", "reduce", "certify"]))
    if command == "reduce":
        source, step = draw(st.sampled_from([("{uncolored}", "is2mcis"), ("{colored}", "mcis2mcim")]))
        k = some_options(draw, {"--k": SMALL_INTS})
        return ["reduce", source, "--step", step, *k, "--out", "{out}"]
    budget = some_options(draw, {"--budget": CHECK_NUMBERS["--budget"]})
    if command == "certify":
        return ["certify", "{uncolored}", "--k", draw(SMALL_INTS), *budget]
    instance = draw(st.sampled_from(["{points}", "{colored}"]))
    if command == "oracle":
        return ["oracle", instance, *budget]
    return [
        "check", instance,
        *some_options(draw, CHECK_NUMBERS),
        *some_options(draw, {"--sweep": SMALL_INTS, **SWEEP_ONLY}, rarely=True),
    ]


def assert_documented(code, out, err):
    """A documented exit code, no traceback, and no output from a call
    rejected as invalid."""
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_INVALID, EXIT_BUDGET, EXIT_MISMATCH)
    assert "Traceback" not in err
    assert code != EXIT_INVALID or out == ""


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    """The figure 1 points, a colored and an uncolored graph, and a
    directory for outputs."""
    d = tmp_path_factory.mktemp("instances")
    colored, uncolored = d / "colored.graph", d / "uncolored.graph"
    assert main(["gen", "graph", "--n", "8", "--k", "2", "--seed", "1", "--out", str(colored)]) == EXIT_OK
    assert main(["gen", "graph", "--n", "8", "--seed", "3", "--uncolored", "--out", str(uncolored)]) == EXIT_OK
    return {"points": FIG1, "colored": str(colored), "uncolored": str(uncolored), "dir": d}


class TestCliFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(generator_argvs())
    def test_exit_code_is_documented(self, capsys, argv):
        assert_documented(*run(capsys, *argv))

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(file_argvs())
    def test_file_command_exit_code_is_documented(self, capsys, instance_files, argv):
        out = instance_files["dir"] / "out.graph"
        assert_documented(*run(capsys, *(a.format(out=out, **instance_files) for a in argv)))

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(["solve", "oracle", "check"]),
        kind=st.sampled_from(["points", "colored", "uncolored"]),
        objective=st.sampled_from(["minsum", "maxmin", "minmax", "maxsum", "all", "bogus"]),
        out=st.sampled_from([None, "out.txt", "missing/out.txt"]),
    )
    def test_pipeline_exit_code_is_documented(
        self, capsys, instance_files, command, kind, objective, out
    ):
        argv = [command, instance_files[kind], "--objective", objective]
        if out is not None and command != "check":
            argv += ["--out", str(instance_files["dir"] / out)]
        assert_documented(*run(capsys, *argv))


class TestSolve:
    def test_fig1_minsum_value(self, capsys):
        code, out, _ = run(capsys, "solve", FIG1, "--objective", "minsum")
        assert code == EXIT_OK
        assert "status=solved" in out
        value = float(out.split("value=")[1].splitlines()[0])
        assert value == pytest.approx(1.8, abs=1e-9)

    def test_fig2_minmax_value(self, capsys):
        code, out, _ = run(capsys, "solve", FIG2, "--objective", "minmax")
        assert code == EXIT_OK
        value = float(out.split("value=")[1].splitlines()[0])
        assert value == pytest.approx(1.6, abs=1e-9)

    def test_solve_equals_library(self, capsys):
        from colorspan import solve_maxmin
        from colorspan.fixtures import two_squares_point_set

        code, out, _ = run(capsys, "solve", FIG1, "--objective", "maxmin", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        expected = solve_maxmin(two_squares_point_set(0.1))
        assert payload["value"] == expected.min_edge_weight

    @pytest.mark.parametrize("objective", ["minsum", "minmax", "maxmin"])
    def test_huge_coordinates_match_oracle(self, capsys, tmp_path, objective):
        # Squared distances of 1e200 coordinates overflow a float; the
        # closest builder must still solve, and agree with the oracle.
        f = tmp_path / "huge.points"
        f.write_text("4 4\n1e200 0 0\n2e200 1e200 1\n3e200 0 2\n0 3e200 3\n")
        code, out, _ = run(capsys, "solve", str(f), "--objective", objective, "--json")
        assert code == EXIT_OK
        solved = json.loads(out)
        code, out, _ = run(capsys, "oracle", str(f), "--objective", objective, "--json")
        assert code == EXIT_OK
        reference = json.loads(out)
        assert solved["pairs"] == reference["pairs"]
        assert solved["value"] == reference["value"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("objective", ["minsum", "minmax", "maxmin"])
    def test_overflowing_distance_is_invalid_input(self, capsys, tmp_path, objective):
        f = tmp_path / "overflow.points"
        f.write_text(OVERFLOW_POINTS)
        code, out, err = run(capsys, "solve", str(f), "--objective", objective)
        assert code == EXIT_INVALID
        assert out == ""
        assert err == OVERFLOW_ERROR

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--json"],
            ["solve", "--objective", "minmax"],
            ["oracle"],
            ["oracle", "--objective", "maxmin"],
            ["check"],
        ],
    )
    def test_overflowing_total_is_invalid_input(self, capsys, tmp_path, argv):
        # Every distance is finite, but every pairing's total exceeds the
        # float range, so no record with a finite total exists.
        f = tmp_path / "total.points"
        f.write_text("4 4\n0 0 0\n1e308 0 1\n0 1e308 2\n1e308 1e308 3\n")
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == EXIT_INVALID
        assert out == ""
        assert err == "invalid input: the total edge weight exceeds the float range\n"

    def test_graph_infeasible_exit_code(self, capsys, tmp_path):
        f = tmp_path / "mono.graph"
        f.write_text("4 2 2\n0\n0\n1\n1\n0 1\n2 3\n")
        code, out, _ = run(capsys, "solve", str(f))
        assert code == EXIT_INFEASIBLE
        assert "status=infeasible" in out

    # Every byte of the record but the time_ms value, for one infeasible
    # graph and one solved point set, in both output formats.
    @pytest.mark.parametrize(
        "instance, code, text, json_text",
        [
            (
                "4 1 4\n0\n1\n2\n3\n0 1\n",
                EXIT_INFEASIBLE,
                "kind=graph\nobjective=minsum\nstatus=infeasible\ntime_ms=T\n",
                '{"kind": "graph", "max_edge_weight": null, "min_edge_weight": null, '
                '"objective": "minsum", "pairs": [], "status": "infeasible", '
                '"time_ms": T, "total_weight": null, "value": null}\n',
            ),
            (
                None,
                EXIT_OK,
                "kind=points\nobjective=minsum\nstatus=solved\nvalue=1.7999999999999998\n"
                "pairs=0:2 1:5\ntotal_weight=1.7999999999999998\n"
                "min_edge_weight=0.8999999999999999\nmax_edge_weight=0.9\ntime_ms=T\n",
                '{"kind": "points", "max_edge_weight": 0.9, "min_edge_weight": '
                '0.8999999999999999, "objective": "minsum", "pairs": [[0, 2], [1, 5]], '
                '"status": "solved", "time_ms": T, "total_weight": 1.7999999999999998, '
                '"value": 1.7999999999999998}\n',
            ),
        ],
        ids=["infeasible-graph", "figure1-minsum"],
    )
    def test_full_record_pinned(self, capsys, tmp_path, instance, code, text, json_text):
        path = FIG1
        if instance is not None:
            path = str(tmp_path / "instance.graph")
            Path(path).write_text(instance)
        got_code, out, err = run(capsys, "solve", path)
        assert (got_code, re.sub(r"time_ms=[0-9.]+", "time_ms=T", out), err) == (code, text, "")
        got_code, out, err = run(capsys, "solve", path, "--json")
        out = re.sub(r'"time_ms": [0-9.e-]+', '"time_ms": T', out)
        assert (got_code, out, err) == (code, json_text, "")

    def test_maxsum_has_no_solver(self, capsys):
        code, _, err = run(capsys, "solve", FIG1, "--objective", "maxsum")
        assert code == EXIT_INVALID
        assert "oracle" in err

    def test_unknown_objective(self, capsys):
        code, _, _ = run(capsys, "solve", FIG1, "--objective", "bogus")
        assert code == EXIT_INVALID

    def test_parse_error_names_line(self, capsys, tmp_path):
        f = tmp_path / "bad.points"
        f.write_text("2 2\n0 0 0\n1 1 9\n")
        code, _, err = run(capsys, "solve", str(f))
        assert code == EXIT_INVALID
        assert "line 3" in err

    def test_huge_color_count_fails_fast(self, capsys, tmp_path):
        # Two points cannot cover ten million colors; the error must not
        # list (or even count) the colors.
        f = tmp_path / "colors.points"
        f.write_text("2 10000000\n0 0 0\n1 1 1\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", str(f))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INVALID
        assert out == ""
        assert err == "invalid input: line 1: 2 points cannot cover 10000000 colors\n"

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "solve", "no-such-file.points")
        assert code == EXIT_INVALID

    def test_render_out_writes_svg(self, capsys, tmp_path):
        svg = tmp_path / "m.svg"
        code, _, _ = run(
            capsys, "solve", FIG1, "--objective", "maxmin", "--render-out", str(svg)
        )
        assert code == EXIT_OK
        assert svg.read_text().startswith("<?xml")

    def test_result_deterministic_modulo_time(self, capsys):
        _, out1, _ = run(capsys, "solve", FIG1, "--objective", "minsum")
        _, out2, _ = run(capsys, "solve", FIG1, "--objective", "minsum")
        assert record_lines(out1) == record_lines(out2)


class TestOracle:
    def test_fig1_maxsum(self, capsys):
        code, out, _ = run(capsys, "oracle", FIG1, "--objective", "maxsum")
        assert code == EXIT_OK
        value = float(out.split("value=")[1].splitlines()[0])
        assert value == pytest.approx(1 + 5 ** 0.5, abs=1e-9)

    def test_budget_exceeded_exit_code(self, capsys, tmp_path):
        f = tmp_path / "big.points"
        code, out, _ = run(
            capsys, "gen", "points", "--n", "50", "--t", "20", "--seed", "3", "--out", str(f)
        )
        assert code == EXIT_OK
        code, _, err = run(capsys, "oracle", str(f), "--budget", "1000")
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_graph_oracle(self, capsys, tmp_path):
        f = tmp_path / "g.graph"
        main(["gen", "graph", "--n", "8", "--k", "2", "--seed", "13", "--out", str(f)])
        capsys.readouterr()
        code, out, _ = run(capsys, "oracle", str(f))
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        assert "kind=graph" in out

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 0 3\n0\n1\n2\n", "colorful matching needs an even, positive color count, got 3"),
            ("4 2 4\n0\n1\n2\n2\n0 1\n2 3\n", "colors without vertices: [3]"),
        ],
    )
    def test_graph_oracle_rejects_what_the_solver_rejects(self, capsys, tmp_path, text, message):
        f = tmp_path / "bad.graph"
        f.write_text(text)
        for command in ("solve", "oracle", "check"):
            code, out, err = run(capsys, command, str(f))
            assert (code, out, err) == (EXIT_INVALID, "", f"invalid input: {message}\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, objective",
        [
            pytest.param(text, o, id=f"{name}-{o}")
            for name, text, objectives in (
                ("overflow", OVERFLOW_POINTS, ("minsum", "minmax", "maxmin", "maxsum")),
                ("split", SPLIT_POINTS, ("maxmin", "maxsum")),
            )
            for o in objectives
        ],
    )
    def test_overflowing_distance_rejected_as_the_solvers_do(
        self, capsys, tmp_path, text, objective
    ):
        f = tmp_path / "overflow.points"
        f.write_text(text)
        code, out, err = run(capsys, "oracle", str(f), "--objective", objective)
        assert (code, out, err) == (EXIT_INVALID, "", OVERFLOW_ERROR)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("objective", ["minsum", "minmax"])
    def test_overflowing_farthest_distances_leave_closest_objectives(
        self, capsys, tmp_path, objective
    ):
        f = tmp_path / "split.points"
        f.write_text(SPLIT_POINTS)
        _, solved, _ = run(capsys, "solve", str(f), "--objective", objective)
        code, out, err = run(capsys, "oracle", str(f), "--objective", objective)
        assert (code, err) == (EXIT_OK, "")
        assert record_lines(out) == record_lines(solved)
        assert "pairs=0:2 4:6" in out.splitlines()


class TestCheck:
    @pytest.mark.parametrize(
        "argv, instances",
        [
            ([str(FIXTURE_DIR / "figure1.points")], 1),
            ([str(FIXTURE_DIR / "figure2.points")], 1),
            (["--sweep", "3"], 3),
            (["--sweep", "3", "--seed", "1", "--k-list", "2,3,4"], 3),
        ],
    )
    def test_each_color_graph_built_once_per_instance(
        self, capsys, build_counts, argv, instances
    ):
        code, out, _ = run(capsys, "check", *argv)
        assert code == EXIT_OK
        assert out.count("status=ok") == 3 * instances
        assert build_counts == {
            "build_closest_color_graph": instances,
            "build_farthest_color_graph": instances,
        }

    def test_overflowing_farthest_distances_fail_the_check(self, capsys, tmp_path, build_counts):
        # The closest graph serves minsum; the farthest one fails to build.
        f = tmp_path / "split.points"
        f.write_text(SPLIT_POINTS)
        assert run(capsys, "check", str(f)) == (EXIT_INVALID, "", OVERFLOW_ERROR)
        assert build_counts == {
            "build_closest_color_graph": 1,
            "build_farthest_color_graph": 1,
        }

    def test_single_instance_passes(self, capsys, tmp_path):
        f = tmp_path / "i.points"
        main(["gen", "points", "--n", "10", "--t", "4", "--seed", "2", "--out", str(f)])
        capsys.readouterr()
        code, out, _ = run(capsys, "check", str(f))
        assert code == EXIT_OK
        assert out.count("status=ok") == 3

    def test_perturbation_is_caught(self, capsys, tmp_path):
        f = tmp_path / "i.points"
        main(["gen", "points", "--n", "10", "--t", "4", "--seed", "2", "--out", str(f)])
        capsys.readouterr()
        code, out, _ = run(capsys, "check", str(f), "--debug-perturb", "0.001")
        assert code == EXIT_MISMATCH
        assert "MISMATCH" in out

    def test_tiny_perturbation_is_caught_at_tiny_scale(self, capsys, tmp_path):
        # Values near 1e-250 sit far inside any absolute tolerance, so the
        # check must also compare relative to the oracle's value.
        ps = generate_points(10, 4, seed=2)
        f = tmp_path / "tiny.points"
        f.write_text(
            serialize_points(
                ColoredPointSet(ps.xs * 1e-250, ps.ys * 1e-250, ps.colors, ps.num_colors)
            )
        )
        code, out, _ = run(capsys, "check", str(f))
        assert code == EXIT_OK
        assert out.count("status=ok") == 3
        code, out, _ = run(capsys, "check", str(f), "--debug-perturb", "1e-255")
        assert code == EXIT_MISMATCH
        assert out.count("status=MISMATCH") == 3

    def test_budget_exit_code(self, capsys, tmp_path):
        f = tmp_path / "big.points"
        main(["gen", "points", "--n", "50", "--t", "20", "--seed", "3", "--out", str(f)])
        capsys.readouterr()
        code, _, _ = run(capsys, "check", str(f), "--budget", "1000")
        assert code == EXIT_BUDGET

    def test_sweep_hundred_instances_pass(self, capsys):
        code, out, _ = run(
            capsys, "check", "--sweep", "100", "--kind", "points", "--seed", "9",
            "--k-list", "2,3", "--max-class-size", "4",
        )
        assert code == EXIT_OK
        assert "sweep=100 failures=0" in out

    def test_graph_sweep(self, capsys):
        code, out, _ = run(
            capsys, "check", "--sweep", "20", "--kind", "graph", "--seed", "4"
        )
        assert code == EXIT_OK
        assert "failures=0" in out

    def test_single_graph_instance(self, capsys, tmp_path):
        f = tmp_path / "g.graph"
        main(["gen", "graph", "--n", "10", "--k", "2", "--seed", "11", "--out", str(f)])
        capsys.readouterr()
        code, out, _ = run(capsys, "check", str(f))
        assert code == EXIT_OK
        assert "status=ok" in out

    def test_graph_instance_takes_minsum_only(self, capsys, instance_files):
        graph = instance_files["colored"]
        code, out, err = run(capsys, "check", graph, "--objective", "minsum")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("objective=minsum ") and out.endswith(" status=ok\n")
        assert run(capsys, "check", graph, "--objective", "all") == (EXIT_OK, out, "")
        for objective in ("maxmin", "minmax", "maxsum"):
            assert run(capsys, "check", graph, "--objective", objective) == (
                EXIT_INVALID,
                "",
                "invalid input: graph instances only support the minsum objective\n",
            )
        assert run(capsys, "check", graph, "--objective", "bogus") == (
            EXIT_INVALID,
            "",
            "invalid input: unknown objective 'bogus'; "
            "expected one of minsum, maxmin, minmax, maxsum\n",
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--objective", "bogus"],
                "unknown objective 'bogus'; expected one of minsum, maxmin, minmax, maxsum",
            ),
            (["--objective", "maxsum"], "objective 'maxsum' has no solver; use the oracle for it"),
            (
                ["--kind", "graph", "--objective", "maxmin"],
                "graph instances only support the minsum objective",
            ),
        ],
        ids=["unknown", "no-solver", "graph-maxmin"],
    )
    def test_sweep_rejects_objective_before_output(self, capsys, argv, message):
        assert run(capsys, "check", "--sweep", "1", *argv) == (
            EXIT_INVALID,
            "",
            f"invalid input: {message}\n",
        )

    @pytest.mark.parametrize("tolerance", ["-1", "-0.5", "nan", "inf"])
    @pytest.mark.parametrize("source", [[FIG1], ["--sweep", "2"]], ids=["file", "sweep"])
    def test_rejects_invalid_tolerance_before_output(self, capsys, source, tolerance):
        # A negative or NaN tolerance used to report every equal value as
        # a MISMATCH (exit 5).
        shown = repr(float(tolerance))
        assert run(capsys, "check", *source, "--tolerance", tolerance) == (
            EXIT_INVALID,
            "",
            f"error: argument --tolerance: must be finite and non-negative, got {shown}\n",
        )

    def test_zero_tolerance_accepts_equal_values(self, capsys):
        code, out, _ = run(capsys, "check", FIG1, "--tolerance", "0")
        assert code == EXIT_OK
        assert out.count("status=ok") == 3

    @pytest.mark.parametrize("objective", ["maxmin", "MinMax"])
    def test_sweep_checks_the_given_objective_only(self, capsys, objective):
        code, out, _ = run(capsys, "check", "--sweep", "2", "--objective", objective)
        assert code == EXIT_OK
        checked = [line.split()[0] for line in out.splitlines() if line.startswith("objective=")]
        assert checked == [f"objective={objective.lower()}"] * 2

    def test_infeasible_on_both_sides_passes(self, capsys, tmp_path):
        f = tmp_path / "mono.graph"
        f.write_text("4 2 2\n0\n0\n1\n1\n0 1\n2 3\n")
        code, out, _ = run(capsys, "check", str(f))
        assert code == EXIT_OK
        assert "solver=infeasible oracle=infeasible" in out


class TestReduce:
    def test_single_edge_is2mcis(self, capsys, tmp_path):
        src = tmp_path / "edge.graph"
        src.write_text("2 1 0\n0\n0\n0 1 1.0\n")
        out = tmp_path / "out.graph"
        code, text, _ = run(
            capsys, "reduce", str(src), "--step", "is2mcis", "--k", "2", "--out", str(out)
        )
        assert code == EXIT_OK
        g = parse_graph(out.read_text())
        assert g.num_vertices == 4
        assert len(g.edges) == 6
        sidecar = Path(str(out) + ".prov").read_text().splitlines()
        assert len(sidecar) == 4
        assert sidecar[0] == "0 0 copy0"

    def test_chain_then_certify(self, capsys, tmp_path):
        c5 = tmp_path / "c5.graph"
        c5.write_text("5 5 0\n" + "0\n" * 5 + "".join(f"{i} {(i + 1) % 5}\n" for i in range(5)))
        mid = tmp_path / "mcis.graph"
        code, _, _ = run(capsys, "reduce", str(c5), "--step", "is2mcis", "--k", "2", "--out", str(mid))
        assert code == EXIT_OK
        final = tmp_path / "mcim.graph"
        code, _, _ = run(capsys, "reduce", str(mid), "--step", "mcis2mcim", "--out", str(final))
        assert code == EXIT_OK
        g_mid = parse_graph(mid.read_text())
        g_fin = parse_graph(final.read_text())
        assert g_fin.num_vertices == g_mid.num_vertices + g_mid.num_colors
        assert len(g_fin.edges) == len(g_mid.edges) + g_mid.num_vertices
        code, out, _ = run(capsys, "certify", str(c5), "--k", "2")
        assert code == EXIT_OK
        assert "equivalent=true" in out
        assert "k_independent_set=true" in out

    def test_colored_input_rejected_for_is2mcis(self, capsys, tmp_path):
        f = tmp_path / "col.graph"
        f.write_text("2 1 2\n0\n1\n0 1\n")
        code, _, _ = run(capsys, "reduce", str(f), "--step", "is2mcis", "--k", "2", "--out", str(tmp_path / "x"))
        assert code == EXIT_INVALID


class TestCertify:
    def test_k4_all_false(self, capsys, tmp_path):
        k4 = tmp_path / "k4.graph"
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        k4.write_text("4 6 0\n" + "0\n" * 4 + "".join(f"{u} {v}\n" for u, v in edges))
        code, out, _ = run(capsys, "certify", str(k4), "--k", "2")
        assert code == EXIT_OK
        assert "k_independent_set=false" in out
        assert "colorful_independent_matching=false" in out
        assert "equivalent=true" in out

    def test_empty_graph_all_false(self, capsys, tmp_path):
        # The reduced graph's source colors have no vertices, which the
        # matching oracle reports as infeasible instead of rejecting.
        f = tmp_path / "empty.graph"
        f.write_text("0 0 0\n")
        code, out, err = run(capsys, "certify", str(f), "--k", "2")
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            "k=2\nk_independent_set=false\ncolorful_independent_set=false\n"
            "colorful_independent_matching=false\nequivalent=true\n"
        )


class TestStateCountsPastPrinting:
    def test_oracle_on_one_point_per_color(self, capsys, tmp_path):
        # (3200 - 1)!! pairings exceed the digits an int may print with.
        f = tmp_path / "m.points"
        assert main(["gen", "points", "--n", "3200", "--t", "3200", "--seed", "1", "--out", str(f)]) == EXIT_OK
        code, out, err = run(capsys, "oracle", str(f))
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == "budget exceeded: more than 10^4913 candidate states exceed the budget of 10000000\n"

    def test_certify_before_the_reduction(self, capsys, tmp_path, monkeypatch):
        # 3^10000 one-vertex-per-copy states; built, the reduction would
        # hold 30000 vertices and about 250M edges.
        def reduce(*_, **__):
            raise AssertionError("the reduction was built past the budget")

        monkeypatch.setattr(hardness, "reduce_is_to_mcis", reduce)
        f = tmp_path / "s.graph"
        f.write_text("3 1 0\n0\n0\n0\n0 1\n")
        code, out, err = run(capsys, "certify", str(f), "--k", "10000")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == "budget exceeded: more than 10^4771 candidate states exceed the budget of 10000000\n"

    def test_certify_checks_the_matching_count_before_the_reduction(
        self, capsys, tmp_path, monkeypatch
    ):
        # One vertex: 1^1000 one-vertex-per-copy states pass the budget, but
        # the second reduction's C(1000, 2) + 1000 cross-color edges give
        # C(500500, 1000) edge subsets.
        def reduce(*_, **__):
            raise AssertionError("the reduction was built past the budget")

        monkeypatch.setattr(hardness, "reduce_is_to_mcis", reduce)
        f = tmp_path / "one.graph"
        f.write_text("1 0 0\n0\n")
        code, out, err = run(capsys, "certify", str(f), "--k", "1000")
        assert (code, out) == (EXIT_BUDGET, "")
        count = math.comb(math.comb(1000, 2) + 1000, 1000)
        assert err == f"budget exceeded: {count} candidate states exceed the budget of 10000000\n"


# The last point's x coordinate starts with a byte that is not UTF-8.
UNDECODABLE = b"2 2\n0 0 0\n\xff 1 1\n"


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{bad}"],
            ["oracle", "{bad}"],
            ["check", "{bad}"],
            ["render", "{bad}", "--objective", "minsum"],
            ["render", FIG1, "--result", "{bad}"],
            ["reduce", "{bad}", "--step", "is2mcis", "--k", "2", "--out", "{out}"],
            ["certify", "{bad}", "--k", "2"],
        ],
        ids=["solve", "oracle", "check", "render", "render --result", "reduce", "certify"],
    )
    def test_is_invalid_input(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.in"
        bad.write_bytes(UNDECODABLE)
        argv = [a.format(bad=bad, out=tmp_path / "out.graph") for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith(f"invalid input: cannot read {bad}: ")
        assert "can't decode byte 0xff" in err


class TestBudgetArgument:
    @pytest.mark.parametrize("budget", ["-1", "-12"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "points"],
            ["check", "--sweep", "2"],
            ["oracle", "points"],
            ["certify", "uncolored", "--k", "2"],
        ],
        ids=["check-file", "check-sweep", "oracle", "certify"],
    )
    def test_negative_budget_is_invalid_before_output(
        self, capsys, instance_files, argv, budget
    ):
        # A negative budget used to read as an exhausted one (exit 4), and
        # a sweep printed its first instance header before failing.
        argv = [instance_files.get(arg, arg) for arg in argv]
        assert run(capsys, *argv, "--budget", budget) == (
            EXIT_INVALID,
            "",
            f"error: argument --budget: must be non-negative, got {budget}\n",
        )

    def test_zero_budget_is_exhausted(self, capsys):
        code, out, err = run(capsys, "check", FIG1, "--budget", "0")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == "budget exceeded: 12 candidate states exceed the budget of 0\n"


class TestRender:
    def test_glyph_counts(self, capsys, tmp_path):
        svg = tmp_path / "f.svg"
        code, _, _ = run(capsys, "render", FIG1, "--objective", "maxmin", "--out", str(svg))
        assert code == EXIT_OK
        text = svg.read_text()
        assert text.count("<line") == 2
        assert text.count("<circle") == 6

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", FIG1, "--objective", "minsum", "--out", str(a))
        run(capsys, "render", FIG1, "--objective", "minsum", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    # SHA-256 of the SVG on stdout; a rewrite of the renderer must keep
    # every byte, which two runs of one build cannot show.
    @pytest.mark.parametrize(
        "figure, objective, digest",
        [
            ("figure1", "minsum", "50d17aee9151348e292ec9df59c06fd02dff12b143b5b9046cdd83725921844e"),
            ("figure1", "maxmin", "bceaf6dd3bedc6e7d7a4d502ca9b14140cf7b08a39cd5e08d8c2e793fbc1a083"),
            ("figure1", "minmax", "c3ffb6ee40aa30e7e4486a3ccefaf5f441e8efba5218354c4e2851c329907599"),
            ("figure2", "minsum", "78827dac468f7958e3bc83c1927175f3a1e77d19bc362dd414df98a20ec33179"),
            ("figure2", "maxmin", "010444d375448224c6414a08a503eb25ea32329e2b899368d2e51dcc730b403d"),
            ("figure2", "minmax", "812e31fb0a41e41f3de03a29315c7512c8eb567108122be149d39dafa78b2ac1"),
        ],
    )
    def test_pinned_bytes(self, capsys, figure, objective, digest):
        path = str(FIXTURE_DIR / f"{figure}.points")
        code, out, _ = run(capsys, "render", path, "--objective", objective)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("objective", ["minsum", "minmax"])
    def test_span_past_the_float_range_stays_on_the_canvas(self, capsys, tmp_path, objective):
        # x runs from -1e308 to 1e308: the span overflows, and the offsets
        # once came out as inf * 0 = nan.
        f = tmp_path / "split.points"
        f.write_text(SPLIT_POINTS)
        code, out, _ = run(capsys, "render", str(f), "--objective", objective)
        assert code == EXIT_OK
        assert "nan" not in out and "inf" not in out
        coords = re.findall(r' (?:cx|cy|x1|y1|x2|y2)="([^"]*)"', out)
        assert len(coords) == 8 * 2 + 2 * 4  # eight circles, two lines
        assert all(0.0 <= float(c) <= 640.0 for c in coords)

    def test_result_file_accepted(self, capsys, tmp_path):
        result = tmp_path / "r.json"
        run(capsys, "solve", FIG1, "--objective", "maxmin", "--json", "--out", str(result))
        svg = tmp_path / "out.svg"
        code, _, _ = run(capsys, "render", FIG1, "--result", str(result), "--out", str(svg))
        assert code == EXIT_OK
        assert svg.exists()

    def test_tampered_result_rejected(self, capsys, tmp_path):
        result = tmp_path / "r.json"
        run(capsys, "solve", FIG1, "--objective", "maxmin", "--json", "--out", str(result))
        payload = json.loads(result.read_text())
        payload["value"] = payload["value"] + 0.5
        result.write_text(json.dumps(payload))
        code, _, err = run(capsys, "render", FIG1, "--result", str(result), "--out", str(tmp_path / "x.svg"))
        assert code == EXIT_INVALID
        assert "does not match" in err

    def test_tiny_value_error_rejected_at_tiny_scale(self, capsys, tmp_path):
        # At 1e-250 scale any absolute tolerance accepts every value; the
        # recorded value must also agree relative to the recomputed one.
        ps = generate_points(10, 4, seed=2)
        f = tmp_path / "tiny.points"
        f.write_text(
            serialize_points(
                ColoredPointSet(ps.xs * 1e-250, ps.ys * 1e-250, ps.colors, ps.num_colors)
            )
        )
        result = tmp_path / "r.json"
        run(capsys, "solve", str(f), "--objective", "minsum", "--json", "--out", str(result))
        code, _, _ = run(capsys, "render", str(f), "--result", str(result), "--out", str(tmp_path / "ok.svg"))
        assert code == EXIT_OK
        payload = json.loads(result.read_text())
        payload["value"] = payload["value"] + 1e-255
        result.write_text(json.dumps(payload))
        code, _, err = run(capsys, "render", str(f), "--result", str(result), "--out", str(tmp_path / "x.svg"))
        assert code == EXIT_INVALID
        assert "does not match" in err

    def test_result_from_other_instance_rejected(self, capsys, tmp_path):
        result = tmp_path / "r.json"
        run(capsys, "solve", FIG2, "--objective", "minsum", "--json", "--out", str(result))
        code, _, _ = run(capsys, "render", FIG1, "--result", str(result), "--out", str(tmp_path / "x.svg"))
        assert code == EXIT_INVALID

    # Figure 1's maxmin pairs are 0:3 1:4; a fraction, a bool or a string
    # must not be read as one of them.
    @pytest.mark.parametrize(
        "pairs", [[[0.5, 3], [1, 4]], [[0, 3], [True, 4]], [[0, 3], ["1", 4]]],
        ids=["fraction", "bool", "string"],
    )
    def test_non_integer_pair_index_rejected(self, capsys, tmp_path, pairs):
        result = tmp_path / "r.json"
        run(capsys, "solve", FIG1, "--objective", "maxmin", "--json", "--out", str(result))
        payload = json.loads(result.read_text())
        result.write_text(json.dumps({**payload, "pairs": pairs}))
        code, out, err = run(capsys, "render", FIG1, "--result", str(result))
        assert (code, out) == (EXIT_INVALID, "")
        assert "pair indices must be integers" in err

    # Figure 1's maxmin record with a value that is not a JSON number.
    @pytest.mark.parametrize("value", [None, "1.4142135623730951"], ids=["null", "string"])
    def test_non_number_value_rejected(self, capsys, tmp_path, value):
        result = tmp_path / "r.json"
        run(capsys, "solve", FIG1, "--objective", "maxmin", "--json", "--out", str(result))
        payload = json.loads(result.read_text())
        result.write_text(json.dumps({**payload, "value": value}))
        code, out, err = run(capsys, "render", FIG1, "--result", str(result))
        assert (code, out) == (EXIT_INVALID, "")
        assert "value must be a finite number" in err

    def test_graph_record_rejected(self, capsys, tmp_path):
        # A graph record's pairs are vertex ids, not point indexes.
        result = tmp_path / "r.json"
        run(capsys, "solve", FIG1, "--objective", "maxmin", "--json", "--out", str(result))
        payload = json.loads(result.read_text())
        result.write_text(json.dumps({**payload, "kind": "graph"}))
        code, out, err = run(capsys, "render", FIG1, "--result", str(result))
        assert (code, out) == (EXIT_INVALID, "")
        assert err == "invalid input: render needs a points result, got kind 'graph'\n"

    def test_empty_matching_rejected(self, capsys, tmp_path):
        result = tmp_path / "r.json"
        result.write_text(json.dumps({
            "kind": "points", "objective": "minsum", "status": "solved",
            "value": 0.0, "pairs": [], "total_weight": 0.0,
            "min_edge_weight": 0.0, "max_edge_weight": 0.0, "time_ms": 0.0,
        }))
        code, _, _ = run(capsys, "render", FIG1, "--result", str(result), "--out", str(tmp_path / "x.svg"))
        assert code == EXIT_INVALID


INFEASIBLE_GRAPH = "4 1 4\n0\n1\n2\n3\n0 1\n"


class TestRecordRoundTrip:
    """Every JSON record the CLI writes reads back to the same bytes."""

    # solve has no maxsum pipeline; the oracle scores all four objectives.
    @pytest.mark.parametrize(
        "command, objective",
        [("solve", o) for o in ("minsum", "minmax", "maxmin")]
        + [("oracle", o) for o in ("minsum", "minmax", "maxmin", "maxsum")],
    )
    def test_figure1_record(self, capsys, command, objective):
        code, out, _ = run(capsys, command, FIG1, "--objective", objective, "--json")
        assert code == EXIT_OK
        assert ResultRecord.from_json(out).to_json() == out

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_infeasible_record(self, capsys, tmp_path, command):
        graph = tmp_path / "g.graph"
        graph.write_text(INFEASIBLE_GRAPH)
        code, out, _ = run(capsys, command, str(graph), "--json")
        assert code == EXIT_INFEASIBLE
        record = ResultRecord.from_json(out)
        assert (record.status, record.value, record.solution) == ("infeasible", None, None)
        assert record.to_json() == out


class TestUsage:
    def test_usage_error_maps_to_invalid(self, capsys):
        code, _, _ = run(capsys, "solve")
        assert code == EXIT_INVALID

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_INVALID


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "points", "--n", "6", "--t", "3", "--out", "{missing}"],
            ["gen", "graph", "--n", "6", "--k", "1", "--out", "{missing}"],
            ["solve", FIG1, "--out", "{missing}"],
            ["solve", FIG1, "--render-out", "{missing}"],
            ["oracle", FIG1, "--out", "{missing}"],
            ["render", FIG1, "--objective", "minsum", "--out", "{missing}"],
            ["reduce", "{uncolored}", "--step", "is2mcis", "--k", "2", "--out", "{missing}"],
        ],
        ids=[
            "gen points", "gen graph", "solve --out", "solve --render-out", "oracle --out",
            "render --out", "reduce --out",
        ],
    )
    def test_missing_directory_is_invalid_input(self, capsys, instance_files, tmp_path, argv):
        missing = str(tmp_path / "missing" / "dir" / "x")
        argv = [a.format(missing=missing, **instance_files) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith(f"invalid input: cannot write {missing}: ")
        assert "Traceback" not in err

    def test_unwritable_provenance_sidecar(self, capsys, instance_files, tmp_path):
        out = tmp_path / "reduced.graph"
        Path(str(out) + ".prov").mkdir()
        code, text, err = run(
            capsys, "reduce", instance_files["uncolored"], "--step", "is2mcis", "--k", "2",
            "--out", str(out),
        )
        assert (code, text) == (EXIT_INVALID, "")
        assert err.startswith(f"invalid input: cannot write {out}.prov: ")


class TestParserReuse:
    """``main`` shares one parser across calls; no call may leak options,
    defaults or error state into the next."""

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        assert run(capsys, "solve", FIG1)[0] == EXIT_OK
        assert run(capsys, "solve", FIG2, "--objective", "minmax")[0] == EXIT_OK
        assert built == [1]

    def test_flag_does_not_stick(self, capsys):
        code, out, _ = run(capsys, "solve", FIG1, "--json")
        assert code == EXIT_OK and json.loads(out)["status"] == "solved"
        code, out, _ = run(capsys, "solve", FIG1)
        assert code == EXIT_OK
        assert out.startswith("kind=points\n") and "status=solved" in out

    def test_option_value_does_not_stick(self, capsys):
        code, _, _ = run(capsys, "check", FIG1, "--tolerance", "0.5", "--debug-perturb", "1e-3")
        assert code == EXIT_OK
        code, out, _ = run(capsys, "check", FIG1, "--debug-perturb", "1e-3")
        assert code == EXIT_MISMATCH and "status=MISMATCH" in out

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        assert run(capsys, "solve", FIG1, "--no-such-option")[0] == EXIT_INVALID
        code, out, err = run(capsys, "solve", FIG1)
        assert (code, err) == (EXIT_OK, "")
        src = Path(cli.__file__).resolve().parents[1]
        fresh = subprocess.run(
            [sys.executable, "-m", "colorspan", "solve", FIG1],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)}, check=True,
        )
        assert record_lines(out) == record_lines(fresh.stdout)
