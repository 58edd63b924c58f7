"""Text formats: point files, graph files, result records, provenance.

Point file::

    n t
    x y c      (n lines: two decimal reals and an integer color in [0, t))

Graph file::

    n m t
    c          (n lines: vertex colors; every line must be 0 when t = 0,
                which marks the graph as uncolored)
    u v [w]    (m lines: 0-based endpoints, optional weight, default 1.0)

Floats serialize with ``repr`` so every format round-trips exactly:
``parse(serialize(x)) == x``.  Parse failures raise
:class:`~colorspan.errors.ParseError` carrying the offending line number.

A point file's body is read in one ``np.loadtxt`` call when the text is
ASCII with "\\n" as its only line break and a non-blank body; loadtxt
converts each token in full as ``float`` and ``int`` do, and any error or
warning from it falls back.  Every text that path does not finish with a
valid point set is parsed line by line instead.  That per-line pass stays
the reference: it accepts the same texts with the same values (and also
``1_0``, non-ASCII digits and CRLF files, which the loadtxt read leaves to
it), and it is the only source of error messages.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInstanceError, ParseError
from .geometry import ColoredPointSet, _never_used_message
from .hardness import VertexColoredGraph
from .matching import WeightedGraph


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

    The body is read in one ``np.loadtxt`` call, and the point set
    validates the columns.  Input that the guards of
    :func:`_point_columns` turn away, that loadtxt rejects or whose
    columns the point set rejects is parsed again line by line with
    Python's own ``float`` and ``int``.  That per-line pass is the
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
    n = _parse_int(tokens[0], head_no, "point count")
    t = _parse_int(tokens[1], head_no, "color count")
    columns = _point_columns(text, head_no, n)
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
    counts = np.bincount(np.array(colors, dtype=np.intp), minlength=max(t, 0))
    if not counts.all():
        raise ParseError(None, _never_used_message(counts))
    return ColoredPointSet(xs, ys, colors, t)


# Line breaks to ``str.splitlines`` that loadtxt reads as a space ("\x0b",
# "\x0c", "\x1c"-"\x1e") or as a break of its own ("\r").
_OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
_POINT_ROW = np.dtype([("x", np.float64), ("y", np.float64), ("c", np.intp)])


def _point_columns(text: str, head_no: int, n: int):
    """``(xs, ys, colors)`` arrays of the ``n`` point lines after the header
    on line ``head_no``, or None if the text is not read here.

    Only ASCII text whose one line break is "\\n" is read, so loadtxt and
    ``str.splitlines`` see the same lines and ``str.split`` the same
    tokens.  loadtxt skips blank lines, needs three tokens on every other
    line, converts floats with ``PyOS_string_to_double`` (the routine
    behind ``float``) and ints as a sign and digits, always consuming the
    whole token.  A token that ``float`` or ``int`` would take but loadtxt
    does not (``1_0``) makes it fail, and a failure or any warning sends
    the text to the per-line pass; none decides an answer.
    """
    if not text.isascii() or any(brk in text for brk in _OTHER_LINE_BREAKS):
        return None
    parts = text.split("\n", head_no)
    if len(parts) <= head_no:
        return None
    # A blank body makes loadtxt warn "input contained no data", which
    # falls back like any other warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(
                io.StringIO(parts[head_no]), dtype=_POINT_ROW, comments=None, ndmin=1
            )
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
    :class:`WeightedGraph` when ``t = 0``.
    """
    lines = _significant_lines(text)
    if not lines:
        raise ParseError(1, "empty graph file")
    head_no, head = lines[0]
    tokens = head.split()
    if len(tokens) != 3:
        raise ParseError(head_no, f"header must be 'n m t', got {head!r}")
    n = _parse_int(tokens[0], head_no, "vertex count")
    m = _parse_int(tokens[1], head_no, "edge count")
    t = _parse_int(tokens[2], head_no, "color count")
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
    seen: set[tuple[int, int]] = set()
    for no, line in lines[1 + n :]:
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(no, f"edge line must be 'u v [w]', got {line!r}")
        u = _parse_int(tokens[0], no, "edge endpoint")
        v = _parse_int(tokens[1], no, "edge endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(no, f"edge ({u}, {v}) references a missing vertex")
        if u == v:
            raise ParseError(no, f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(no, f"duplicate edge ({u}, {v})")
        seen.add(key)
        if len(tokens) == 3:
            weights.append(_parse_float(tokens[2], no, "edge weight"))
            any_weight = True
        else:
            weights.append(1.0)
        edges.append((u, v))
    if t == 0:
        return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(edges, weights)])
    return VertexColoredGraph(n, colors, edges, t, weights if any_weight else None)


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


@dataclass(frozen=True)
class ResultRecord:
    """A solve or oracle outcome in emit-friendly form.

    ``value`` is the objective statistic; ``pairs`` are point indexes for
    geometric runs and vertex ids for graph runs.  ``time_ms`` is wall
    time and is the one volatile field, so it is always emitted last.
    """

    kind: str
    objective: str
    status: str
    value: float | None
    pairs: tuple[tuple[int, int], ...]
    total_weight: float | None
    min_edge_weight: float | None
    max_edge_weight: float | None
    time_ms: float

    def to_text(self) -> str:
        lines = [
            f"kind={self.kind}",
            f"objective={self.objective}",
            f"status={self.status}",
        ]
        if self.status == "solved":
            lines.append(f"value={self.value!r}")
            lines.append("pairs=" + " ".join(f"{a}:{b}" for a, b in self.pairs))
            lines.append(f"total_weight={self.total_weight!r}")
            lines.append(f"min_edge_weight={self.min_edge_weight!r}")
            lines.append(f"max_edge_weight={self.max_edge_weight!r}")
        lines.append(f"time_ms={self.time_ms:.3f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "objective": self.objective,
            "status": self.status,
            "value": self.value,
            "pairs": [list(p) for p in self.pairs],
            "total_weight": self.total_weight,
            "min_edge_weight": self.min_edge_weight,
            "max_edge_weight": self.max_edge_weight,
            "time_ms": self.time_ms,
        }
        return json.dumps(payload, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, f"invalid result JSON: {exc.msg}") from None
        try:
            return cls(
                kind=str(payload["kind"]),
                objective=str(payload["objective"]),
                status=str(payload["status"]),
                value=None if payload["value"] is None else float(payload["value"]),
                pairs=tuple((int(a), int(b)) for a, b in payload["pairs"]),
                total_weight=None
                if payload["total_weight"] is None
                else float(payload["total_weight"]),
                min_edge_weight=None
                if payload["min_edge_weight"] is None
                else float(payload["min_edge_weight"]),
                max_edge_weight=None
                if payload["max_edge_weight"] is None
                else float(payload["max_edge_weight"]),
                time_ms=float(payload["time_ms"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
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
