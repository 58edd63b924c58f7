"""The command-line contract, as one table of calls and what each must do.

A row is one ``colorspan`` call: its arguments, the files it reads, the
exit code, the exact stdout (every ``time_ms`` value read as ``T``) or
its SHA-256, and the exact stderr.  Each row runs in a fresh directory,
in process through ``cli.main``; rows marked ``process`` run through
``python -m colorspan`` instead, so the entry point stays covered.  The
examples under the README's ``## Command line`` heading are rows too,
read from the README, and each must exit 0 with nothing on stderr.
"""

from __future__ import annotations

import hashlib
import os
import re
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from colorspan import cli
from colorspan.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, main

from conftest import FIXTURE_DIR

ROOT = FIXTURE_DIR.parent
SRC = Path(cli.__file__).resolve().parents[1]
FIXTURES = {
    "fig1": str(FIXTURE_DIR / "figure1.points"),
    "fig2": str(FIXTURE_DIR / "figure2.points"),
}
TIME_MS = re.compile(r'(time_ms=|"time_ms": )[0-9.e+-]+')


@dataclass(frozen=True)
class Row:
    argv: str  # split as a shell would; {fig1} and {fig2} name the fixtures
    code: int
    stdout: str | None = None  # None: not checked
    sha256: str | None = None  # of stdout, in place of ``stdout``
    stderr: str = ""
    files: dict[str, str | bytes] = field(default_factory=dict)
    setup: tuple[str, ...] = ()  # calls run first, each exiting 0
    process: bool = False


def record(kind, objective, value, pairs, total, low, high):
    """A solved text record, as ``solve`` and ``oracle`` print it."""
    return (
        f"kind={kind}\nobjective={objective}\nstatus=solved\nvalue={value}\npairs={pairs}\n"
        f"total_weight={total}\nmin_edge_weight={low}\nmax_edge_weight={high}\ntime_ms=T\n"
    )


FIG1_MINSUM_JSON = (
    '{"kind": "points", "max_edge_weight": 0.9, "min_edge_weight": 0.8999999999999999, '
    '"objective": "minsum", "pairs": [[0, 2], [1, 5]], "status": "solved", "time_ms": T, '
    '"total_weight": 1.7999999999999998, "value": 1.7999999999999998}\n'
)
FIG1_MAXMIN_ULP_JSON = (
    '{"kind": "points", "max_edge_weight": 1.4142135623730951, '
    '"min_edge_weight": 1.4142135623730954, "objective": "maxmin", "pairs": [[0, 3], [1, 4]], '
    '"status": "solved", "time_ms": 0.5, "total_weight": 2.8284271247461903, '
    '"value": 1.4142135623730954}\n'
)
# Every distance is finite, but every matching's total exceeds the float range.
TOTAL_POINTS = "4 4\n0 0 0\n1e308 0 1\n0 1e308 2\n1e308 1e308 3\n"
# The only bichromatic distance, 2e308, exceeds the float range.
OVERFLOW_POINTS = "2 2\n1e308 0 0\n-1e308 0 1\n"
# Each color has a point at x = -1e308 and one at x = 1e308: every
# farthest distance exceeds the float range, no closest one does.
SPLIT_POINTS = "8 4\n" + "".join(f"{x} {c} {c}\n" for c in range(4) for x in ("-1e308", "1e308"))
OVERFLOW_ERROR = "invalid input: the distance between colors 0 and 1 exceeds the float range\n"
# 260 points, past the full-scan cutoff: colors 0 and 1 alternate on the
# line x = -1e308, colors 2 and 3 on x = 1e308.  Minmax pairs only near
# colors, but the closest distance of colors 0 and 2 exceeds the float
# range, so minmax's bounded build, which drops far color pairs, must not
# run.
FAR_POINTS = "260 4\n" + "".join(
    f"{('-1e308', '1e308')[c // 2]} {2 * k + c % 2}e300 {c}\n"
    for c in range(4)
    for k in range(65)
)
FAR_ERROR = "invalid input: the distance between colors 0 and 2 exceeds the float range\n"
TOTAL_ERROR = "invalid input: the total edge weight exceeds the float range\n"
SPLIT_RECORD = {
    "minsum": record("points", "minsum", "2.0", "0:2 4:6", "2.0", "1.0", "1.0"),
    "minmax": record("points", "minmax", "1.0", "0:2 4:6", "2.0", "1.0", "1.0"),
}
SOLVED_MAXMIN = "solve {fig1} --objective maxmin --json --out r.json"
# Each graph-file rule broken once, in a colored file (t = 2, read by
# check) and an uncolored one (t = 0, read by certify); every error names
# its line.  EDGE_FAULTS gives the edge lines after two vertex lines.
CHECK, CERTIFY = "check {}", "certify {} --k 2"
EDGE_FAULTS = {
    "loop": (("1 1",), "line 4: self-loop at vertex 1"),
    "range": (("0 2",), "line 4: edge (0, 2) references a missing vertex"),
    "dup": (("0 1", "0 1"), "line 5: duplicate edge (0, 1)"),
    "flipped-dup": (("0 1", "1 0"), "line 5: duplicate edge (1, 0)"),
    "negative": (("0 1 -1",), "line 4: edge (0, 1) has invalid weight -1.0"),
    "inf": (("0 1 inf",), "line 4: edge weight must be finite, got 'inf'"),
}
GRAPH_FAULTS = [  # (argv template, file name, file text, error)
    *[
        (
            argv, f"{name}.graph",
            f"2 {len(edges)} {t}\n{colors}" + "".join(e + "\n" for e in edges), error,
        )
        for argv, t, colors in ((CHECK, 2, "0\n1\n"), (CERTIFY, 0, "0\n0\n"))
        for name, (edges, error) in EDGE_FAULTS.items()
    ],
    (CHECK, "color.graph", "2 1 2\n0\n2\n0 1\n", "line 3: color 2 out of range [0, 2)"),
    (
        CERTIFY, "color.graph", "2 1 0\n0\n1\n0 1\n",
        "line 3: uncolored graphs (t = 0) must list 0 for every vertex",
    ),
    (
        CHECK, "colors.graph", "2 1 -2\n0\n1\n0 1\n",
        "line 1: color count must be non-negative, got -2",
    ),
    (CHECK, "edges.graph", "2 -1 2\n0\n1\n", "line 1: edge count must be non-negative, got -1"),
    (CERTIFY, "vertices.graph", "-1 1 0\n", "line 1: vertex count must be non-negative, got -1"),
]  # fmt: skip
GEN_CLUSTERS = "gen points --n 3000 --t 20 --distribution clusters --seed 1 --out c.points"

TABLE = [
    # Both figures' witnesses, from each solver and from the oracle.
    Row(
        "check {fig1}",
        EXIT_OK,
        "objective=minsum solver=1.7999999999999998 oracle=1.7999999999999998 status=ok\n"
        "objective=maxmin solver=1.4142135623730951 oracle=1.4142135623730951 status=ok\n"
        "objective=minmax solver=0.9 oracle=0.9 status=ok\n",
        process=True,
    ),
    Row(
        "solve {fig2} --objective minmax",
        EXIT_OK,
        record("points", "minmax", "1.6", "2:4 3:5", "3.2", "1.6", "1.6"),
    ),
    Row(
        "solve {fig2} --objective maxmin",
        EXIT_OK,
        record(
            "points", "maxmin", "2.6400757564888173", "2:5 3:4", "5.280151512977635",
            "2.6400757564888173", "2.6400757564888173",
        ),
    ),
    Row(
        "oracle {fig1} --objective minsum",
        EXIT_OK,
        record(
            "points", "minsum", "1.7999999999999998", "0:2 1:5", "1.7999999999999998",
            "0.8999999999999999", "0.9",
        ),
    ),
    Row(
        "oracle {fig1} --objective minmax",
        EXIT_OK,
        record(
            "points", "minmax", "0.9", "0:2 1:5", "1.7999999999999998", "0.8999999999999999", "0.9"
        ),
    ),
    Row(
        "oracle {fig1} --objective maxmin",
        EXIT_OK,
        record(
            "points", "maxmin", "1.4142135623730951", "0:3 1:4", "2.8284271247461903",
            "1.4142135623730951", "1.4142135623730951",
        ),
    ),
    Row(
        "oracle {fig1} --objective maxsum",
        EXIT_OK,
        record(
            "points", "maxsum", "3.23606797749979", "0:1 3:4", "3.23606797749979", "1.0",
            "2.23606797749979",
        ),
    ),
    # Figure 1's maxmin SVG, from a solved record read back.
    Row(
        "render {fig1} --result r.json",
        EXIT_OK,
        sha256="bceaf6dd3bedc6e7d7a4d502ca9b14140cf7b08a39cd5e08d8c2e793fbc1a083",
        setup=(SOLVED_MAXMIN,),
    ),
    # A record must carry exactly the value its pairs have on the points:
    # here value and min_edge_weight are one ulp above figure 1's maxmin.
    Row(
        "render {fig1} --result ulp.json",
        EXIT_INVALID,
        "",
        stderr="invalid input: result value 1.4142135623730954 does not match these points "
        "(recomputed 1.4142135623730951)\n",
        files={"ulp.json": FIG1_MAXMIN_ULP_JSON},
    ),
    # Figure 1 with lone "\r" breaks gives figure 1's record.
    Row(
        "solve cr.points --json",
        EXIT_OK,
        FIG1_MINSUM_JSON,
        files={"cr.points": (FIXTURE_DIR / "figure1.points").read_text().replace("\n", "\r")},
    ),
    # The colorful solver's witness on a generated graph.
    Row(
        "solve g.graph",
        EXIT_OK,
        record(
            "graph", "minsum", "0.5681821399242245", "0:7 1:3", "0.5681821399242245",
            "0.03959287666420286", "0.5285892632600216",
        ),
        setup=("gen graph --n 8 --k 2 --seed 1 --out g.graph",),
    ),
    Row("gen graph --n 0 --uncolored", EXIT_OK, "0 0 0\n"),
    # The generator states the colors-versus-size rule for both kinds,
    # naming points or vertices.
    Row(
        "gen points --n 4 --t 5",
        EXIT_INVALID,
        "",
        stderr="invalid input: cannot cover 5 colors with 4 points\n",
    ),
    Row(
        "gen graph --n 3 --k 2",
        EXIT_INVALID,
        "",
        stderr="invalid input: cannot cover 4 colors with 3 vertices\n",
    ),
    # Totals and distances past the float range, and an odd color count:
    # the oracles reject what the solvers reject, with their message.
    *[
        Row(argv, EXIT_INVALID, "", stderr=TOTAL_ERROR, files={"total.points": TOTAL_POINTS})
        for argv in ("solve total.points --json", "oracle total.points", "check total.points")
    ],
    Row(
        "oracle odd.graph",
        EXIT_INVALID,
        "",
        stderr="invalid input: colorful matching needs an even, positive color count, got 3\n",
        files={"odd.graph": "3 0 3\n0\n1\n2\n"},
    ),
    *[
        Row(
            f"oracle {name}.points --objective {objective}",
            EXIT_INVALID,
            "",
            stderr=OVERFLOW_ERROR,
            files={f"{name}.points": text},
        )
        for name, text, objectives in (
            ("overflow", OVERFLOW_POINTS, ("minsum", "minmax", "maxmin", "maxsum")),
            ("split", SPLIT_POINTS, ("maxmin", "maxsum")),
        )
        for objective in objectives
    ],
    *[
        Row(
            f"solve far.points --objective {objective}",
            EXIT_INVALID,
            "",
            stderr=FAR_ERROR,
            files={"far.points": FAR_POINTS},
        )
        for objective in ("minmax", "minsum")
    ],
    # Only the farthest distances of split.points overflow.
    *[
        Row(
            f"{command} split.points --objective {objective}",
            EXIT_OK,
            SPLIT_RECORD[objective],
            files={"split.points": SPLIT_POINTS},
        )
        for command in ("solve", "oracle")
        for objective in ("minsum", "minmax")
    ],
    # check writes no partial report: every solver runs before the one
    # oracle call, and a sweep prints once every instance is checked, so
    # a solver's error also wins over the oracle's budget.
    *[
        Row(argv, EXIT_INVALID, "", stderr=OVERFLOW_ERROR, files={"split.points": SPLIT_POINTS})
        for argv in ("check split.points", "check split.points --budget 0")
    ],
    *[
        Row(
            "check --sweep 2 --k-list 2,7" + kind,
            EXIT_BUDGET,
            "",
            stderr=f"budget exceeded: {states} candidate states exceed the budget of 10000000\n",
        )
        for kind, states in (("", 364864500000), (" --kind graph", 18643560))
    ],
    Row(
        "solve bad.points",
        EXIT_INVALID,
        "",
        stderr="invalid input: cannot read bad.points: 'utf-8' codec can't decode byte 0xff "
        "in position 10: invalid start byte\n",
        files={"bad.points": b"2 2\n0 0 0\n\xff 1 1\n"},
        process=True,
    ),
    *[
        Row(
            argv.format(name),
            EXIT_INVALID,
            "",
            stderr=f"invalid input: {error}\n",
            files={name: text},
        )
        for argv, name, text, error in GRAPH_FAULTS
    ],
    # A point file's negative header count fails on the header line.
    *[
        Row(
            f"solve {name}.points",
            EXIT_INVALID,
            "",
            stderr=f"invalid input: line 1: {error}\n",
            files={f"{name}.points": text},
        )
        for name, text, error in (
            ("points", "-1 2\n", "point count must be non-negative, got -1"),
            ("colors", "2 -3\n0 0 0\n1 0 0\n", "color count must be non-negative, got -3"),
        )
    ],
    # 3^1000 one-vertex-per-copy states.
    Row(
        "certify s.graph --k 1000",
        EXIT_BUDGET,
        "",
        stderr=f"budget exceeded: {3 ** 1000} candidate states exceed the budget of 10000000\n",
        files={"s.graph": "3 1 0\n0\n0\n0\n0 1\n"},
        process=True,
    ),
    # 3000 points take the kd-tree closest builder, not the pair scan.
    Row(
        "solve c.points --objective minsum",
        EXIT_OK,
        record(
            "points", "minsum", "0.01774633792050595",
            "56:68 403:2745 963:2735 1183:2677 1334:1364 1486:2609 1719:2447 1750:2886 "
            "2087:2669 2210:2637",
            "0.01774633792050595", "0.0005465788504945679", "0.008725900860749636",
        ),
        setup=(GEN_CLUSTERS,),
    ),
    Row(
        "solve c.points --objective minmax",
        EXIT_OK,
        record(
            "points", "minmax", "0.008725900860749636",
            "423:449 511:2683 950:2562 1014:2332 1075:1224 1076:2701 1183:2677 1486:2609 "
            "1586:1599 2606:2943",
            "0.04318362826987776", "0.0006255111562830374", "0.008725900860749636",
        ),
        setup=(GEN_CLUSTERS,),
    ),
    # Each subcommand, and each gen kind, takes only its own options, and
    # options that conflict are refused before anything is read or written.
    Row(
        "gen graph --n 4 --k 1 --max-class-size 0",
        EXIT_INVALID,
        "",
        stderr="error: unrecognized arguments: --max-class-size 0\n",
        process=True,
    ),
    Row(
        "gen points --n 4 --t 2 --k 1",
        EXIT_INVALID,
        "",
        stderr="error: unrecognized arguments: --k 1\n",
    ),
    Row(
        "gen points --n 4",
        EXIT_INVALID,
        "",
        stderr="error: the following arguments are required: --t\n",
    ),
    Row(
        "gen graph --n 4",
        EXIT_INVALID,
        "",
        stderr="error: one of the arguments --k --uncolored is required\n",
    ),
    Row(
        "gen graph --n 6 --uncolored --k 2",
        EXIT_INVALID,
        "",
        stderr="error: argument --k: not allowed with argument --uncolored\n",
    ),
    Row(
        "gen graph --n 6 --uncolored --unweighted",
        EXIT_INVALID,
        "",
        stderr="error: argument --unweighted: not allowed with argument --uncolored\n",
    ),
    Row(
        "check",
        EXIT_INVALID,
        "",
        stderr="error: one of the arguments input --sweep is required\n",
    ),
    Row(
        "check {fig1} --sweep 1",
        EXIT_INVALID,
        "",
        stderr="error: argument --sweep: not allowed with argument input\n",
    ),
    Row(
        "check {fig1} --k-list zz",
        EXIT_INVALID,
        "",
        stderr="error: argument --k-list: bad k list 'zz'\n",
    ),
    *[
        Row(
            f"check {{fig1}} {option} {value}",
            EXIT_INVALID,
            "",
            stderr=f"error: argument {option}: only allowed with argument --sweep\n",
        )
        for option, value in (
            ("--kind", "points"), ("--seed", "0"), ("--k-list", "2,3"), ("--max-class-size", "5")
        )
    ],
    Row(
        "render {fig1}",
        EXIT_INVALID,
        "",
        stderr="error: one of the arguments --result --objective is required\n",
    ),
    Row(
        "render {fig1} --result r.json --objective maxmin",
        EXIT_INVALID,
        "",
        stderr="error: argument --objective: not allowed with argument --result\n",
        setup=(SOLVED_MAXMIN,),
    ),
]


def readme_rows() -> list[Row]:
    """The README's command-line examples, in order; each row first runs
    the examples before it that write a file."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    rows, writers = [], []
    for line in block.splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "colorspan"
        rows.append(Row(shlex.join(argv), EXIT_OK, setup=tuple(writers)))
        if {"--out", "--render-out"} & set(argv):
            writers.append(shlex.join(argv))
    return rows


def split(argv: str) -> list[str]:
    return [token.format(**FIXTURES) for token in shlex.split(argv)]


@pytest.mark.parametrize(
    "row",
    [pytest.param(row, id=row.argv) for row in TABLE]
    + [pytest.param(row, id=f"README: {row.argv}") for row in readme_rows()],
)
def test_contract(capsys, tmp_path, monkeypatch, row):
    monkeypatch.chdir(tmp_path)
    for name, content in row.files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    for argv in row.setup:
        assert main(split(argv)) == EXIT_OK, argv
    capsys.readouterr()
    if row.process:
        done = subprocess.run(
            [sys.executable, "-m", "colorspan", *split(row.argv)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=300,
        )
        code, out, err = done.returncode, done.stdout, done.stderr
    else:
        code = main(split(row.argv))
        out, err = capsys.readouterr()
    out = TIME_MS.sub(r"\1T", out)
    if row.sha256 is not None:
        out = hashlib.sha256(out.encode()).hexdigest()
    elif row.stdout is None:
        out = None
    assert (code, out, err) == (row.code, row.sha256 or row.stdout, row.stderr)
