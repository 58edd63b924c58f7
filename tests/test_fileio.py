import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorspan import (
    ColoredPointSet,
    Matching,
    Objective,
    ParseError,
    VertexColoredGraph,
    WeightedGraph,
)
from colorspan.fileio import (
    ResultRecord,
    parse_graph,
    parse_points,
    serialize_graph,
    serialize_points,
    serialize_provenance,
    sniff_kind,
)
from colorspan.fixtures import stacked_rows_point_set, two_squares_point_set
from colorspan.generate import generate_colored_graph, generate_points

from conftest import FIXTURE_DIR

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPointsFormat:
    def test_round_trip_simple(self):
        ps = ColoredPointSet([0.25, 1e-3], [-1.5, 2.0], [0, 1], 2)
        assert parse_points(serialize_points(ps)) == ps

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_generated(self, seed):
        ps = generate_points(20, 5, seed)
        assert parse_points(serialize_points(ps)) == ps

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        t = data.draw(st.integers(2, 4))
        extra = data.draw(
            st.lists(st.tuples(coords, coords, st.integers(0, t - 1)), max_size=10)
        )
        rows = [(data.draw(coords), data.draw(coords), c) for c in range(t)] + extra
        xs, ys, colors = zip(*rows)
        ps = ColoredPointSet(xs, ys, colors, t)
        assert parse_points(serialize_points(ps)) == ps

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_points("one two three\n")

    def test_wrong_line_count(self):
        with pytest.raises(ParseError):
            parse_points("2 2\n0 0 0\n")

    def test_color_out_of_range_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_points("2 2\n0 0 0\n1 1 5\n")

    def test_non_finite_coordinate_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_points("2 2\ninf 0 0\n1 1 1\n")

    def test_missing_color_rejected(self):
        with pytest.raises(ParseError, match="never used"):
            parse_points("3 3\n0 0 0\n1 1 1\n2 2 0\n")

    def test_more_colors_than_points_rejected(self):
        with pytest.raises(ParseError, match="line 1: 2 points cannot cover 3 colors$"):
            parse_points("2 3\n0 0 0\n1 1 1\n")

    @pytest.mark.parametrize(
        "name, build",
        [("figure1", two_squares_point_set), ("figure2", stacked_rows_point_set)],
    )
    def test_shipped_fixture_is_its_builder_serialized(self, name, build):
        assert (FIXTURE_DIR / f"{name}.points").read_text() == serialize_points(build())

    def test_many_missing_colors_are_counted_not_listed(self):
        text = "40 40\n" + "0 0 0\n" * 39 + "1 1 1\n"
        with pytest.raises(
            ParseError, match=r"never used: \[2, 3, 4, 5, 6, 7, 8, 9\] and 30 more$"
        ):
            parse_points(text)


class TestGraphFormat:
    def test_round_trip_colored_weighted(self):
        g = generate_colored_graph(8, 4, seed=3)
        assert parse_graph(serialize_graph(g)) == g

    def test_round_trip_colored_unweighted(self):
        g = VertexColoredGraph(3, [0, 1, 1], [(0, 1), (1, 2)], 2)
        assert parse_graph(serialize_graph(g)) == g

    def test_round_trip_uncolored(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 0.5)])
        got = parse_graph(serialize_graph(g))
        assert isinstance(got, WeightedGraph)
        assert got == g

    def test_default_weight_is_one(self):
        g = parse_graph("2 1 2\n0\n1\n0 1\n")
        assert isinstance(g, VertexColoredGraph)
        assert g.weights is None
        assert g.weight(0) == 1.0

    def test_self_loop_names_line(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_graph("2 1 2\n0\n1\n1 1\n")

    def test_duplicate_edge_names_line(self):
        with pytest.raises(ParseError, match="line 5"):
            parse_graph("2 2 2\n0\n1\n0 1\n1 0\n")

    def test_uncolored_requires_zero_color_lines(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("2 1 0\n0\n1\n0 1\n")

    def test_color_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("2 1 2\n7\n1\n0 1\n")


class TestSniff:
    def test_points_vs_graph(self):
        assert sniff_kind("3 2\n") == "points"
        assert sniff_kind("3 1 2\n") == "graph"
        with pytest.raises(ParseError):
            sniff_kind("1 2 3 4\n")


# A valid solved record, which the rejection cases below edit one key at a time.
_RECORD = {
    "kind": "points", "objective": "minsum", "status": "solved", "value": 1.8,
    "pairs": [[0, 2], [1, 5]], "total_weight": 1.8, "min_edge_weight": 0.9,
    "max_edge_weight": 0.9, "time_ms": 0.4,
}


class TestResultRecord:
    def test_json_round_trip(self):
        solution = Matching.from_weighted_edges([(0, 2, 0.9), (1, 5, 0.9)])
        record = ResultRecord("points", Objective.MINSUM, solution, 0.4)
        assert json.loads(record.to_json()) == _RECORD
        assert ResultRecord.from_json(record.to_json()) == record

    def test_text_has_value_and_pairs(self):
        solution = Matching.from_weighted_edges([(0, 1, 2.0)])
        record = ResultRecord("points", Objective.MAXMIN, solution, 1.25)
        text = record.to_text()
        assert "value=2.0\n" in text
        assert "pairs=0:1\n" in text
        assert text.rstrip().endswith("time_ms=1.250")

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            ("value", "1.8", "value must be a finite number"),
            ("value", True, "value must be a finite number"),
            ("value", None, "value must be a finite number"),
            ("value", float("nan"), "value must be a finite number"),
            ("value", 10**400, "too large"),
            ("total_weight", True, "total_weight must be a finite number"),
            ("min_edge_weight", "0.9", "min_edge_weight must be a finite number"),
            ("max_edge_weight", float("inf"), "max_edge_weight must be a finite number"),
            ("time_ms", "0.4", "time_ms must be a finite number"),
            ("time_ms", False, "time_ms must be a finite number"),
            ("status", "done", "status must be"),
            ("status", "infeasible", "an infeasible record has no value"),
            ("objective", "bogus", "not a valid Objective"),
            ("kind", "polygon", "kind must be"),
            ("value", 2.3, "does not match"),
            ("value", 0.9, "does not match"),
        ],
        ids=[
            "value-string", "value-bool", "value-null", "value-nan", "value-huge-int", "total-bool",
            "min-string", "max-inf", "time-string", "time-bool", "status-unknown",
            "infeasible-with-pairs", "objective-unknown", "kind-unknown",
            "value-off", "value-other-statistic",
        ],
    )
    def test_loose_record_rejected(self, key, bad, message):
        with pytest.raises(ParseError, match=message):
            ResultRecord.from_json(json.dumps({**_RECORD, key: bad}))

    @pytest.mark.parametrize(
        "index", ["0.5", "true", "false", '"1"', "1.0"],
        ids=["fraction", "true", "false", "string", "integral-float"],
    )
    def test_non_integer_pair_index_rejected(self, index):
        text = (
            '{"kind": "points", "objective": "minsum", "status": "solved", '
            f'"value": 1.0, "pairs": [[{index}, 2]], "total_weight": 1.0, '
            '"min_edge_weight": 1.0, "max_edge_weight": 1.0, "time_ms": 0.0}'
        )
        with pytest.raises(ParseError, match="pair indices must be integers"):
            ResultRecord.from_json(text)

    def test_bad_json_rejected(self):
        with pytest.raises(ParseError):
            ResultRecord.from_json("{not json")

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            ResultRecord.from_json("[" * 100_000)


def test_provenance_serialization():
    text = serialize_provenance({1: (0, "copy1"), 0: (0, "copy0")})
    assert text == "0 0 copy0\n1 0 copy1\n"
