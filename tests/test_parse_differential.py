"""The bulk point parser and formatter against a per-line reference.

The reference functions below are the straightforward line-by-line point
file parser and the per-point formatter that the bulk versions replace.
Both sides must accept the same texts, build the same columns and raise
the same error with the same line number and message.  ``point_texts``
mixes every line break ``str.splitlines`` knows; ``newline_texts`` keeps
to ASCII and "\\n" and adds tokens on which loadtxt and ``float`` or
``int`` might differ.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorspan import ColoredPointSet, ParseError, fileio
from colorspan.fileio import (
    _first_significant_line,
    _significant_lines,
    parse_points,
    serialize_points,
    sniff_kind,
)
from colorspan.generate import DISTRIBUTIONS, generate_matching_instance, generate_points


def _ref_int(token, line, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"{what} must be an integer, got {token!r}") from None


def _ref_count(token, line, what):
    count = _ref_int(token, line, what)
    if count < 0:
        raise ParseError(line, f"{what} must be non-negative, got {count}")
    return count


def _ref_float(token, line, what):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line, f"{what} must be a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line, f"{what} must be finite, got {token!r}")
    return value


def reference_parse_points(text):
    lines = []
    for no, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            lines.append((no, line.strip()))
    if not lines:
        raise ParseError(1, "empty point file")
    head_no, head = lines[0]
    tokens = head.split()
    if len(tokens) != 2:
        raise ParseError(head_no, f"header must be 'n t', got {head!r}")
    n = _ref_count(tokens[0], head_no, "point count")
    t = _ref_count(tokens[1], head_no, "color count")
    if len(lines) - 1 != n:
        raise ParseError(head_no, f"expected {n} point lines, found {len(lines) - 1}")
    xs, ys, colors = [], [], []
    seen = set()
    for no, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(no, f"point line must be 'x y c', got {line!r}")
        x = _ref_float(tokens[0], no, "x coordinate")
        y = _ref_float(tokens[1], no, "y coordinate")
        c = _ref_int(tokens[2], no, "color")
        if not 0 <= c < t:
            raise ParseError(no, f"color {c} out of range [0, {t})")
        seen.add(c)
        xs.append(x)
        ys.append(y)
        colors.append(c)
    if t > n:
        raise ParseError(head_no, f"{n} points cannot cover {t} colors")
    missing = sorted(set(range(t)) - seen)
    if missing:
        more = f" and {len(missing) - 8} more" if len(missing) > 8 else ""
        raise ParseError(None, f"colors never used: {missing[:8]}{more}")
    return ColoredPointSet(xs, ys, colors, t)


def reference_serialize_points(point_set):
    lines = [f"{len(point_set)} {point_set.num_colors}"]
    rows = zip(point_set.xs.tolist(), point_set.ys.tolist(), point_set.colors.tolist())
    lines.extend(f"{x!r} {y!r} {c}" for x, y, c in rows)
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    """The parsed columns, or the error's type, line and message."""
    try:
        ps = parse(text)
    except Exception as exc:
        return ("error", type(exc).__name__, getattr(exc, "line", None), str(exc))
    # repr keeps the sign of zero, which == on floats would not.
    return (
        "ok",
        ps.num_colors,
        [repr(v) for v in ps.xs.tolist()],
        [repr(v) for v in ps.ys.tolist()],
        ps.colors.tolist(),
    )


COORD_TOKENS = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.sampled_from(
        ["0", "-0.0", "1_0", "+3", "1e999", "-1e999", "nan", "inf", "-inf", "1e-320",
         "0x10", "abc", "1.5.2", "\u0663", "1e308"]
    ),
)
COLOR_TOKENS = st.one_of(
    st.integers(-2, 5).map(str),
    st.sampled_from(["+1", "1_0", "0_1", "3.0", "nan", "x", "99999999999999999999", "\u0662"]),
)
SEPARATORS = st.sampled_from(
    ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " "]
)
PADDING = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def point_lines(draw, t):
    """One body line: usually 'x y c', sometimes 2 or 4 tokens, or blank."""
    kind = draw(st.sampled_from(["good", "good", "good", "tokens", "blank"]))
    if kind == "blank":
        return draw(PADDING)
    if kind == "good":
        tokens = [
            repr(draw(st.floats(-10, 10))),
            repr(draw(st.floats(-10, 10))),
            str(draw(st.integers(0, max(t - 1, 0)))),
        ]
    else:
        tokens = [draw(COORD_TOKENS) for _ in range(draw(st.sampled_from([2, 3, 4])))]
        if len(tokens) == 3:
            tokens[2] = draw(COLOR_TOKENS)
    gap = draw(st.sampled_from([" ", "\t", "  "]))
    return draw(PADDING) + gap.join(tokens) + draw(PADDING)


@st.composite
def point_texts(draw):
    t = draw(st.integers(0, 4))
    body = draw(st.lists(point_lines(t), max_size=12))
    counted = sum(1 for line in body if line.strip())
    n = draw(st.sampled_from([counted, counted, counted, counted + 1, counted - 1]))
    head = draw(
        st.one_of(
            st.just(f"{n} {t}"),
            st.sampled_from([f"{n}", f"{n} {t} 1", f"+{n} {t}", f"{n} x", ""]),
        )
    )
    lines = [draw(PADDING) for _ in range(draw(st.integers(0, 2)))]
    lines += [head, *body]
    text = ""
    for line in lines:
        text += line + draw(SEPARATORS)
    return text if draw(st.booleans()) else text.rstrip("\n")


# Tokens that float or int treat differently from loadtxt, or that only
# one of them accepts.
ODD_TOKENS = st.sampled_from(
    ["\x00", "1\x00", "\x1f", "2\x1f3", "1_0", "3.0", "1e0", "+1", "-0", "-1",
     "9223372036854775808", "-9223372036854775809", "0x10", "nan", "inf", "1e999",
     ".5", "5.", "00", "#1", '"1"']
)


@st.composite
def newline_lines(draw, t):
    """One body line of ASCII tokens: mostly 'x y c', sometimes odd tokens,
    another token count or blank."""
    kind = draw(st.sampled_from(["good", "good", "good", "good", "odd", "tokens", "blank"]))
    if kind == "blank":
        return draw(PADDING)
    tokens = [
        repr(draw(st.floats(-10, 10))),
        repr(draw(st.floats(-10, 10))),
        str(draw(st.integers(0, max(t - 1, 0)))),
    ]
    if kind == "odd":
        tokens[draw(st.integers(0, 2))] = draw(ODD_TOKENS)
    elif kind == "tokens":
        tokens = tokens[: draw(st.sampled_from([1, 2]))] if draw(st.booleans()) else tokens * 2
    gap = draw(st.sampled_from([" ", "\t", "  "]))
    return draw(PADDING) + gap.join(tokens) + draw(PADDING)


@st.composite
def newline_texts(draw):
    t = draw(st.integers(1, 4))
    body = draw(st.lists(newline_lines(t), max_size=12))
    counted = sum(1 for line in body if line.strip())
    n = draw(st.sampled_from([counted, counted, counted, counted + 1, counted - 1]))
    lines = [draw(PADDING) for _ in range(draw(st.integers(0, 2)))]
    text = "\n".join([*lines, f"{n} {t}", *body])
    return text + "\n" if draw(st.booleans()) else text


class TestParseMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(point_texts())
    def test_random_texts(self, text):
        assert outcome(parse_points, text) == outcome(reference_parse_points, text)

    @settings(max_examples=400, deadline=None)
    @given(newline_texts())
    def test_random_newline_texts(self, text):
        assert outcome(parse_points, text) == outcome(reference_parse_points, text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n \n",
            "2 2\r\n0 0 0\r\n\r\n1 1 1\r\n",
            "2 2\n1_0 +3 0\n-0.0 0 1\n",
            "2 2\n0 0 0\n1 1 +1\n",
            "2 2\n0 nan 0\n1 1 1\n",
            "2 2\n0 0 0\ninf 1 1\n",
            "2 2\n0 0 0\n1e999 1 1\n",
            "2 2\n0 0\n1 1 1\n",
            "2 2\n0 0 0 0\n1 1 1\n",
            "2 2\n0 0 0\n1 1 2\n",
            "2 2\n0 0 -1\n1 1 1\n",
            "2 2\n0 0 0\n1 1 0\n",
            "2 2\n0 0 0\n1 1 99999999999999999999\n",
            "1 1\n0 0 0\n",
            "0 0\n",
            "0 2\n",
            "-1 2\n",
            "2 -3\n0 0 0\n1 1 0\n",
            "2 2\n0 0 0\n",
            "  \n\n 2 2 \n 0 0 0 \n\x0c1 1 1",
            # loadtxt reads \x1c as a space, splitlines as a line break.
            "2 2\n1\x1c2 3\n1 1 1\n",
            "2 2\n0 0 0\r1 1 1\n",
            "2 2\n0 0 0\n1 1 1\r",
            "\n  \n\t\n2 2\n0 0 0\n1 1 1\n",
            "3 2",
            "3 2\n",
            "3 2\n \n\t\n",
            "2 2\n0 0 0\n  \t \n\n1 1 1\n \n",
            "2 2\n0 0 3.0\n1 1 1\n",
            "2 2\n0 0 0\n1 1 9223372036854775808\n",
            "2 2\n0 0 0\n1_0 1 1\n",
            "2 2\n0 0 0\n1 1 1\x00\n",
            "2 2\n0\x1f0 0\n1 1 1\n",
            "2 3\n0 0 0\n1 1 1\n",
            "2 2\n0 0 0\nnan 1 1\n",
            "3 2\n0 0 0\n1 1 1\n",
        ],
    )
    def test_edge_cases(self, text):
        assert outcome(parse_points, text) == outcome(reference_parse_points, text)

    @pytest.mark.parametrize(
        "brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_breaks_loadtxt_reads_as_spaces(self, brk):
        # loadtxt would read two valid rows; splitlines sees three lines.
        text = f"2 2\n0{brk}0 0\n1 1 1\n"
        assert outcome(parse_points, text) == outcome(reference_parse_points, text)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_generated_files_take_the_loadtxt_read(self, monkeypatch, distribution, seed):
        def by_line(*_):
            raise AssertionError("the per-line pass ran on a generated file")

        monkeypatch.setattr(fileio, "_point_columns_by_line", by_line)
        ps = generate_points(2000, 20, seed, distribution=distribution)
        assert parse_points(serialize_points(ps)) == ps

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize(
        "brk", ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"], ids=repr
    )
    def test_ascii_line_breaks_take_the_loadtxt_read(self, monkeypatch, distribution, brk):
        # Every ASCII break str.splitlines knows besides "\n".
        def by_line(*_):
            raise AssertionError(f"the per-line pass ran on a file with {brk!r} breaks")

        monkeypatch.setattr(fileio, "_point_columns_by_line", by_line)
        ps = generate_points(2000, 20, 3, distribution=distribution)
        assert parse_points(serialize_points(ps).replace("\n", brk)) == ps

    def test_non_ascii_text_skips_the_loadtxt_read(self):
        # loadtxt reads "3\u01fe" as the int 492, the one color missing
        # from the other lines, so only the ASCII guard rejects this file.
        lines = [f"{i} 0 {i}" for i in range(492)] + ["492 0 3\u01fe"]
        text = "\n".join(["493 493", *lines]) + "\n"
        with pytest.raises(ParseError, match=r"^line 494: color must be an integer"):
            parse_points(text)

    def test_a_loadtxt_warning_falls_back(self, monkeypatch):
        # numpy 1.23-1.x parses "3.0" in an int column with a
        # DeprecationWarning; whatever loadtxt returns then is not used,
        # even where the caller ignores warnings.
        def loadtxt(*_, **__):
            warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            return np.array([(9.0, 9.0, 0), (9.0, 9.0, 1)], dtype=fileio._POINT_ROW)

        monkeypatch.setattr(fileio.np, "loadtxt", loadtxt)
        for text in ["2 2\n0 0 3.0\n1 1 1\n", "2 2\n0.5 2 0\n1 1 1\n"]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = outcome(parse_points, text)
            assert got == outcome(reference_parse_points, text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(PADDING, SEPARATORS, st.sampled_from(["", "2 3", "x"]))))
    def test_first_significant_line(self, parts):
        text = "".join(pad + body + sep for pad, body, sep in parts)
        lines = _significant_lines(text)
        assert _first_significant_line(text) == (lines[0] if lines else None)

    @pytest.mark.parametrize("lead", [0, 1, 100, 127, 128, 255, 256, 300, 1100])
    @pytest.mark.parametrize("brk", ["\n", "\r\n", "  \r\n", "\x0c"])
    def test_first_significant_line_past_the_first_chunks(self, lead, brk):
        # Header and line breaks land on every side of a chunk boundary.
        text = brk * lead + " 12 4 " + brk + "0 0 0" + brk
        lines = _significant_lines(text)
        assert _first_significant_line(text) == lines[0]

    def test_sniff_reads_only_the_header(self):
        assert sniff_kind("\n\r\n 3 2 \n" + "garbage\n" * 5) == "points"
        with pytest.raises(ParseError, match="line 2"):
            sniff_kind("\x0c1 2 3 4\n")


class TestSerializeMatchesReference:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 21])
    def test_generated(self, distribution, seed):
        ps = generate_points(300, 6, seed, distribution=distribution)
        text = serialize_points(ps)
        assert text == reference_serialize_points(ps)
        assert parse_points(text) == ps

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matching_instances(self, seed):
        ps = generate_matching_instance(3, seed)
        assert serialize_points(ps) == reference_serialize_points(ps)

    def test_extreme_values(self):
        ps = ColoredPointSet(
            [-0.0, 5e-324, 1e308, -1.7976931348623157e308],
            [0.1, 1e-300, 2.0, 3.0],
            [0, 1, 0, 1],
            2,
        )
        text = serialize_points(ps)
        assert text == reference_serialize_points(ps)
        assert "np." not in text
        assert outcome(parse_points, text) == outcome(reference_parse_points, text)
