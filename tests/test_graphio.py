"""graph6 round trips and format errors, with and without the format named."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.generators import path_graph, random_graph
from thetakit.graphio import FormatError, emit_graph, parse_graph
from thetakit.graphs import Graph, build_graph


@pytest.mark.parametrize("n", [60, 61, 62])
def test_graph6_round_trip_without_format(n):
    # graph6 of 60, 61 and 62 vertices opens with "{", "|" and "}".
    for g in (path_graph(n), random_graph(n, 0.3, n)):
        data = emit_graph(g)
        assert parse_graph(data) == g


def test_graph6_whose_second_byte_closes_a_brace():
    # The first six adjacency bits 111110 encode "}", so the text opens "{}".
    g = build_graph(60, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    data = emit_graph(g)
    assert data.startswith(b"{}")
    assert parse_graph(data) == g


def test_graph6_is_the_only_format():
    # Edge-JSON text is not graph6: "{" reads as n = 60, then '"' is out of range.
    with pytest.raises(FormatError) as info:
        parse_graph(b'{"n": 2, "edges": [[0, 1]]}')
    assert str(info.value) == "byte 34 outside the graph6 range (position 1)"
    with pytest.raises(ValueError, match="unknown format 'edge-json'"):
        parse_graph(emit_graph(path_graph(2)), "edge-json")


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_parsed_graph6_passes_the_graph_checks(data):
    # The parser builds its graph unchecked; the checks of Graph must agree.
    n = data.draw(st.integers(0, 70))
    bits = n * (n - 1) // 2
    word = data.draw(st.integers(0, (1 << bits) - 1)) << (-bits % 6)
    groups = (bits + 5) // 6
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, 63 + (n >> 12), 63 + (n >> 6 & 63), 63 + (n & 63)])
    body = bytes(63 + (word >> 6 * (groups - 1 - i) & 63) for i in range(groups))
    g = parse_graph(head + body, "graph6")
    assert Graph(g.n, g.adj) == g
    assert emit_graph(g) == head + body


@pytest.mark.parametrize("n", [63, 64, 200])
def test_graph6_round_trip_with_a_four_byte_header(n):
    for g in (path_graph(n), random_graph(n, 0.3, n)):
        data = emit_graph(g)
        assert data[0] == 126 and data[1] != 126
        assert len(data) == 4 + (n * (n - 1) // 2 + 5) // 6
        assert parse_graph(data) == g


@pytest.mark.parametrize("data, message, position", [
    (b"", "empty graph6 input", 0),
    (b">>graph6<<\n", "empty graph6 input", 10),
    (b"C ?", "byte 32 outside the graph6 range", 1),
    (b">>graph6<<C ?", "byte 32 outside the graph6 range", 11),
    (b"~~??", "truncated 8-byte size header", 4),
    (b"~~?????~", "overlong size header", 0),
    (b">>graph6<<~~?????~", "overlong size header", 10),
    (b"~?", "truncated 4-byte size header", 2),
    (b"~??}", "overlong size header", 0),
    (b"C", "expected 1 adjacency bytes for n=4, got 0", 1),
    (b"C??", "expected 1 adjacency bytes for n=4, got 2", 2),
    # An 8-byte header for n = 258048, the least size that needs one.
    (b"~~???~??", "expected 5549042688 adjacency bytes for n=258048, got 0", 8),
    (b"B@", "nonzero padding bits", 1),
])
def test_graph6_format_errors(data, message, position):
    with pytest.raises(FormatError) as info:
        parse_graph(data, "graph6")
    assert str(info.value) == f"{message} (position {position})"
    assert info.value.position == position
