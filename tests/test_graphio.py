"""graph6 and edge-JSON round trips, with and without a named format."""

import pytest

from thetakit.generators import path_graph, random_graph
from thetakit.graphio import FormatError, emit_graph, parse_graph, sniff_format
from thetakit.graphs import build_graph


@pytest.mark.parametrize("n", [60, 61, 62])
def test_graph6_round_trip_without_format(n):
    # graph6 of 60, 61 and 62 vertices opens with "{", "|" and "}".
    for g in (path_graph(n), random_graph(n, 0.3, n)):
        data = emit_graph(g)
        assert sniff_format(data) == "graph6"
        assert parse_graph(data) == g


def test_graph6_whose_second_byte_closes_a_brace():
    # The first six adjacency bits 111110 encode "}", so the text opens "{}".
    g = build_graph(60, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    data = emit_graph(g)
    assert data.startswith(b"{}")
    assert parse_graph(data) == g


def test_edge_json_is_still_sniffed():
    g = random_graph(9, 0.4, 3)
    assert parse_graph(emit_graph(g, "edge-json")) == g
    assert parse_graph(' {\n  "n": 2, "edges": [[0, 1]]}\n') == path_graph(2)
    for text in (b"{}", b"{ }\n"):
        assert sniff_format(text) == "edge-json"
        with pytest.raises(FormatError):
            parse_graph(text)
