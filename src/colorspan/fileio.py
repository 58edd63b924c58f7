"""Text formats: point files, graph files, result records, provenance.

Point file::

    n t        (non-negative counts)
    x y c      (n lines: two decimal reals and an integer color in [0, t))

Graph file::

    n m t      (non-negative counts)
    c          (n lines: vertex colors in [0, t); every line must be 0 when
                t = 0, which marks the graph as uncolored)
    u v [w]    (m lines: 0-based endpoints, optional weight, default 1.0)

A graph file's edges follow the graph models' rules: endpoints in
``[0, n)``, no self-loops, no edge twice in either orientation, finite
non-negative weights.  Every violation names its line.

Floats serialize with ``repr`` so every format round-trips exactly:
``parse(serialize(x)) == x``.  Parse failures raise
:class:`~colorspan.errors.ParseError` carrying the offending line number.

A JSON result record is read back strictly: its status must be
``solved`` or ``infeasible``, its value, statistics and time must be
finite JSON numbers (not bools or strings), and a solved record's value
must equal its statistic for the objective.

A point file's body is read in one ``np.loadtxt`` call when the text is
ASCII: loadtxt gets the lines after the header as ``str.splitlines``
splits them, the same lines the per-line pass reads, and converts each
token in full as ``float`` and ``int`` do; any error or warning from it
falls back.  Every text that path does not finish with a valid point set
is parsed line by line instead.  That per-line pass stays the reference:
it accepts the same texts with the same values (and also ``1_0`` and
non-ASCII digits, which the loadtxt read leaves to it), and it is the
only source of error messages.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInstanceError, ParseError
from .geometry import ColoredPointSet, _never_used_message
from .hardness import VertexColoredGraph
from .matching import Matching, Objective, WeightedGraph, _edge_keys, _EdgeError


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped:
            out.append((no, stripped))
    return out


def _first_significant_line(text: str) -> tuple[int, str] | None:
    """``_significant_lines(text)[0]`` (None if every line is blank),
    splitting only as much of the text as it takes to find that line."""
    size = 256
    while True:
        head = text[:size]
        whole = len(head) == len(text)
        lines = head.splitlines()
        # Unless the head is the whole text, its last line may be cut short.
        for no, line in enumerate(lines if whole else lines[:-1], start=1):
            stripped = line.strip()
            if stripped:
                return no, stripped
        if whole:
            return None
        size *= 4


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"{what} must be an integer, got {token!r}") from None


def _parse_count(token: str, line: int, what: str) -> int:
    count = _parse_int(token, line, what)
    if count < 0:
        raise ParseError(line, f"{what} must be non-negative, got {count}")
    return count


def _parse_float(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line, f"{what} must be a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line, f"{what} must be finite, got {token!r}")
    return value


def parse_points(text: str) -> ColoredPointSet:
    """Parse a point file into a validated point set.

    The lines after the header of an ASCII text are read in one
    ``np.loadtxt`` call (:func:`_point_columns`), and the point set
    validates the columns.  Input that is not ASCII, that loadtxt rejects
    or whose columns the point set rejects is parsed again line by line
    with Python's own ``float`` and ``int``.  That per-line pass is the
    reference: it accepts exactly the texts the bulk read accepts, with
    the same values, and it alone names the first bad line.
    """
    first = _first_significant_line(text)
    if first is None:
        raise ParseError(1, "empty point file")
    head_no, head = first
    tokens = head.split()
    if len(tokens) != 2:
        raise ParseError(head_no, f"header must be 'n t', got {head!r}")
    n = _parse_count(tokens[0], head_no, "point count")
    t = _parse_count(tokens[1], head_no, "color count")
    # loadtxt takes some non-ASCII tokens that ``float`` and ``int`` do not
    # (``3\u01fe`` as the int 492), so only ASCII text is read in bulk.
    columns = _point_columns(text.splitlines()[head_no:], n) if text.isascii() else None
    if columns is not None:
        try:
            return ColoredPointSet(*columns, t)
        except InvalidInstanceError:
            pass
    lines = _significant_lines(text)
    if len(lines) - 1 != n:
        raise ParseError(head_no, f"expected {n} point lines, found {len(lines) - 1}")
    xs, ys, colors = _point_columns_by_line(lines[1:], t)
    # Checked before counting colors, so a huge t costs no O(t) work.
    if t > n:
        raise ParseError(head_no, f"{n} points cannot cover {t} colors")
    counts = np.bincount(np.array(colors, dtype=np.intp), minlength=t)
    if not counts.all():
        raise ParseError(None, _never_used_message(counts))
    return ColoredPointSet(xs, ys, colors, t)


_POINT_ROW = np.dtype([("x", np.float64), ("y", np.float64), ("c", np.intp)])


def _point_columns(lines: list[str], n: int):
    """``(xs, ys, colors)`` arrays of the ``n`` point lines in ``lines``,
    or None if loadtxt does not read them.

    ``lines`` are the ASCII text's ``str.splitlines`` after the header, so
    loadtxt applies no line rule of its own and sees the tokens
    ``str.split`` sees.  loadtxt skips blank lines, needs three tokens on
    every other line, converts floats with ``PyOS_string_to_double`` (the
    routine behind ``float``) and ints as a sign and digits, always
    consuming the whole token.  A token that ``float`` or ``int`` would
    take but loadtxt does not (``1_0``) makes it fail, and a failure or any
    warning (no lines warns "input contained no data") sends the text to
    the per-line pass; none decides an answer.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(lines, dtype=_POINT_ROW, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    if len(rows) != n:
        return None
    return rows["x"], rows["y"], rows["c"]


def _point_columns_by_line(lines: list[tuple[int, str]], t: int):
    """The point lines' columns as lists; raises on the first bad line."""
    xs, ys, colors = [], [], []
    for no, line in lines:
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(no, f"point line must be 'x y c', got {line!r}")
        xs.append(_parse_float(tokens[0], no, "x coordinate"))
        ys.append(_parse_float(tokens[1], no, "y coordinate"))
        c = _parse_int(tokens[2], no, "color")
        if not 0 <= c < t:
            raise ParseError(no, f"color {c} out of range [0, {t})")
        colors.append(c)
    return xs, ys, colors


def serialize_points(point_set: ColoredPointSet) -> str:
    columns = (point_set.xs.tolist(), point_set.ys.tolist(), point_set.colors.tolist())
    lines = [f"{len(point_set)} {point_set.num_colors}"]
    lines.extend([f"{x!r} {y!r} {c}" for x, y, c in zip(*columns)])
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> VertexColoredGraph | WeightedGraph:
    """Parse a graph file.

    Returns a :class:`VertexColoredGraph` when ``t > 0`` and an uncolored
    :class:`WeightedGraph` when ``t = 0``.  This reads the format and its
    tokens; the edge rules are the models' own (see
    :func:`~colorspan.matching._edge_keys`), and an edge that breaks one
    is reported on its line with the models' text.
    """
    lines = _significant_lines(text)
    if not lines:
        raise ParseError(1, "empty graph file")
    head_no, head = lines[0]
    tokens = head.split()
    if len(tokens) != 3:
        raise ParseError(head_no, f"header must be 'n m t', got {head!r}")
    whats = ("vertex count", "edge count", "color count")
    n, m, t = (_parse_count(token, head_no, what) for token, what in zip(tokens, whats))
    if len(lines) - 1 != n + m:
        raise ParseError(
            head_no, f"expected {n} color lines and {m} edge lines, found {len(lines) - 1}"
        )
    colors = []
    for no, line in lines[1 : 1 + n]:
        c = _parse_int(line.split()[0], no, "vertex color")
        if len(line.split()) != 1:
            raise ParseError(no, f"color line must be a single integer, got {line!r}")
        if t == 0:
            if c != 0:
                raise ParseError(no, "uncolored graphs (t = 0) must list 0 for every vertex")
        elif not 0 <= c < t:
            raise ParseError(no, f"color {c} out of range [0, {t})")
        colors.append(c)
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    any_weight = False
    for no, line in lines[1 + n :]:
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(no, f"edge line must be 'u v [w]', got {line!r}")
        u = _parse_int(tokens[0], no, "edge endpoint")
        v = _parse_int(tokens[1], no, "edge endpoint")
        if len(tokens) == 3:
            weights.append(_parse_float(tokens[2], no, "edge weight"))
            any_weight = True
        else:
            weights.append(1.0)
        edges.append((u, v))
    try:
        if t:
            return VertexColoredGraph(n, colors, edges, t, weights if any_weight else None)
        # A file lists each edge once; the uncolored model would collapse a repeat.
        _edge_keys(n, edges, weights, distinct=True)
        return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(edges, weights)])
    except _EdgeError as exc:
        raise ParseError(lines[1 + n + exc.index][0], str(exc)) from None


def serialize_graph(g: VertexColoredGraph | WeightedGraph) -> str:
    if isinstance(g, WeightedGraph):
        lines = [f"{g.num_vertices} {len(g.edges)} 0"]
        lines.extend("0" for _ in range(g.num_vertices))
        lines.extend(f"{u} {v} {w!r}" for u, v, w in g.edges)
    else:
        lines = [f"{g.num_vertices} {len(g.edges)} {g.num_colors}"]
        lines.extend(str(c) for c in g.colors)
        if g.weights is None:
            lines.extend(f"{u} {v}" for u, v in g.edges)
        else:
            lines.extend(f"{u} {v} {w!r}" for (u, v), w in zip(g.edges, g.weights))
    return "\n".join(lines) + "\n"


def serialize_provenance(provenance: dict[int, tuple[int, str]]) -> str:
    """One 'out_id src_id tag' line per output vertex, sorted by id."""
    lines = [f"{out} {src} {tag}" for out, (src, tag) in sorted(provenance.items())]
    return "\n".join(lines) + "\n"


_STATISTICS = ("total_weight", "min_edge_weight", "max_edge_weight")


@dataclass(frozen=True)
class ResultRecord:
    """A solve or oracle outcome: the matching found (None when the
    instance is infeasible), the objective that scores it and the wall
    time.

    ``status`` and ``value`` (the objective's statistic of the matching)
    are derived, so a record cannot disagree with its matching.  Pairs
    are point indexes for geometric runs and vertex ids for graph runs.
    ``time_ms`` is the one volatile field, so it is always emitted last.
    :meth:`from_json` is the one reader, and a strict one: the status must
    be ``solved`` or ``infeasible``, every number a finite JSON number,
    and ``value`` exactly the record's statistic for its objective.
    """

    kind: str
    objective: Objective
    solution: Matching | None
    time_ms: float

    @property
    def status(self) -> str:
        return "infeasible" if self.solution is None else "solved"

    @property
    def value(self) -> float | None:
        return None if self.solution is None else self.solution.value(self.objective)

    def to_text(self) -> str:
        lines = [
            f"kind={self.kind}",
            f"objective={self.objective.value}",
            f"status={self.status}",
        ]
        m = self.solution
        if m is not None:
            lines.append(f"value={self.value!r}")
            lines.append("pairs=" + " ".join(f"{a}:{b}" for a, b in m.edges))
            lines.extend(f"{key}={getattr(m, key)!r}" for key in _STATISTICS)
        lines.append(f"time_ms={self.time_ms:.3f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        m = self.solution
        payload = {
            "kind": self.kind,
            "objective": self.objective.value,
            "status": self.status,
            "value": self.value,
            "pairs": [] if m is None else [list(p) for p in m.edges],
            **{key: None if m is None else getattr(m, key) for key in _STATISTICS},
            "time_ms": self.time_ms,
        }
        return json.dumps(payload, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        """Read a record back; raises :class:`ParseError` on any departure
        from what :meth:`to_json` writes (see the class docstring)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, f"invalid result JSON: {exc.msg}") from None
        except RecursionError:
            raise ParseError(None, "invalid result JSON: nested too deeply") from None

        def number(key: str) -> float:
            x = payload[key]
            # type, not isinstance: JSON true loads as a bool, an int subclass.
            if type(x) not in (int, float) or not math.isfinite(x):
                raise TypeError(f"{key} must be a finite number, got {x!r}")
            return x

        try:
            if payload["kind"] not in ("points", "graph"):
                raise ValueError(f"kind must be 'points' or 'graph', got {payload['kind']!r}")
            objective = Objective(payload["objective"])
            pairs = tuple((a, b) for a, b in payload["pairs"])
            if any(type(i) is not int for pair in pairs for i in pair):
                raise TypeError(f"pair indices must be integers, got {list(pairs)}")
            if payload["status"] == "infeasible":
                if pairs or any(payload[key] is not None for key in ("value", *_STATISTICS)):
                    raise ValueError("an infeasible record has no value, pairs or statistics")
                solution = None
            elif payload["status"] == "solved":
                solution = Matching(pairs, *map(number, _STATISTICS))
                if number("value") != solution.value(objective):
                    raise ValueError(
                        f"value {payload['value']!r} does not match the record's "
                        f"{objective.value} statistic {solution.value(objective)!r}"
                    )
            else:
                raise ValueError(
                    f"status must be 'solved' or 'infeasible', got {payload['status']!r}"
                )
            return cls(payload["kind"], objective, solution, number("time_ms"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(None, f"malformed result record: {exc}") from None


def sniff_kind(text: str) -> str:
    """'points' or 'graph', judged by the header token count (2 vs 3)."""
    first = _first_significant_line(text)
    if first is None:
        raise ParseError(1, "empty input file")
    no, head = first
    count = len(head.split())
    if count == 2:
        return "points"
    if count == 3:
        return "graph"
    raise ParseError(no, f"header must be 'n t' (points) or 'n m t' (graph), got {head!r}")
