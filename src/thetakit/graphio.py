"""Graph serialization: bit-exact graph6 and a minimal edge-list JSON.

graph6 follows the published format byte for byte: 6-bit groups offset by
63, upper triangle in column-major order, minimal-length size header, zero
padding.  The JSON form is ``{"n": int, "edges": [[u, v], ...]}`` with
zero-indexed endpoints; emission sorts the edge list, so parse after emit
is the identity on labeled graphs in both formats.  Malformed input raises
:class:`FormatError`, which carries the offending position.
"""

from __future__ import annotations

import json
import re

from .graphs import Graph, _trusted_graph, build_graph

_HEADER = b">>graph6<<"
# An edge-JSON object opens with a key or is empty.  graph6 of a 60-vertex
# graph also starts with "{" (60 + 63), but continues with bytes in 63..126,
# which hold "}" yet no whitespace or '"'; so "}" counts only at the end.
_JSON_OPEN = re.compile(rb'\{\s*("|\}\s*\Z)')


class FormatError(ValueError):
    """Parse failure at a known position.

    ``position`` is a byte offset for graph6 and JSON syntax errors, and an
    edge index for semantic errors in the JSON edge list.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _coerce_bytes(data: bytes | str) -> bytes:
    return data.encode("ascii") if isinstance(data, str) else bytes(data)


def sniff_format(data: bytes | str) -> str:
    """``"edge-json"`` for an object that opens with a key or is empty, else ``"graph6"``."""
    head = _coerce_bytes(data).lstrip()
    return "edge-json" if _JSON_OPEN.match(head) else "graph6"


def parse_graph(data: bytes | str, fmt: str | None = None) -> Graph:
    raw = _coerce_bytes(data)
    chosen = fmt if fmt is not None else sniff_format(raw)
    if chosen == "graph6":
        return _parse_graph6(raw)
    if chosen == "edge-json":
        return _parse_edge_json(raw)
    raise ValueError(f"unknown format {chosen!r}")


def emit_graph(g: Graph, fmt: str = "graph6") -> bytes:
    if fmt == "graph6":
        return _emit_graph6(g)
    if fmt == "edge-json":
        edges = sorted((min(u, v), max(u, v)) for u, v in g.edges())
        payload = {"n": g.n, "edges": [[u, v] for u, v in edges]}
        return json.dumps(payload, separators=(",", ":")).encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")


def _parse_graph6(raw: bytes) -> Graph:
    base = 0
    if raw.startswith(_HEADER):
        base = len(_HEADER)
    line = raw[base:].rstrip(b"\r\n")
    if not line:
        raise FormatError("empty graph6 input", base)
    for i, byte in enumerate(line):
        if not 63 <= byte <= 126:
            raise FormatError(f"byte {byte} outside the graph6 range", base + i)
    n, at = _parse_size(line, base)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(line) - at != need:
        raise FormatError(
            f"expected {need} adjacency bytes for n={n}, got {len(line) - at}",
            base + min(at + need, len(line)),
        )
    bits = n * (n - 1) // 2
    adj = [0] * n
    u, v = 0, 1
    for i in range(need):
        group = line[at + i] - 63
        for k in range(5, -1, -1):
            index = i * 6 + (5 - k)
            bit = group >> k & 1
            if index >= bits:
                if bit:
                    raise FormatError("nonzero padding bits", base + at + i)
                continue
            if bit:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            u += 1
            if u == v:
                u, v = 0, v + 1
    # The checks above reject every malformed text, and the loop sets only
    # pairs u < v < n, on both sides: the result is symmetric and loop-free.
    return _trusted_graph(n, tuple(adj))


def _parse_size(line: bytes, base: int) -> tuple[int, int]:
    if line[0] != 126:
        return line[0] - 63, 1
    if len(line) >= 2 and line[1] == 126:
        if len(line) < 8:
            raise FormatError("truncated 8-byte size header", base + len(line))
        n = 0
        for byte in line[2:8]:
            n = n << 6 | byte - 63
        if n <= 258047:
            raise FormatError("overlong size header", base)
        return n, 8
    if len(line) < 4:
        raise FormatError("truncated 4-byte size header", base + len(line))
    n = 0
    for byte in line[1:4]:
        n = n << 6 | byte - 63
    if n <= 62:
        raise FormatError("overlong size header", base)
    return n, 4


def _emit_graph6(g: Graph) -> bytes:
    n = g.n
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        out.append((n >> 12 & 63) + 63)
        out.append((n >> 6 & 63) + 63)
        out.append((n & 63) + 63)
    else:
        out.append(126)
        out.append(126)
        for shift in range(30, -6, -6):
            out.append((n >> shift & 63) + 63)
    group, filled = 0, 0
    for v in range(1, n):
        for u in range(v):
            group = group << 1 | (g.adj[u] >> v & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group, filled = 0, 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return bytes(out)


def _parse_edge_json(raw: bytes) -> Graph:
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", e.pos) from None
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object", 0)
    extra = set(doc) - {"n", "edges"}
    if extra:
        raise FormatError(f"unexpected key {sorted(extra)[0]!r}", 0)
    if "n" not in doc or "edges" not in doc:
        raise FormatError("both 'n' and 'edges' are required", 0)
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise FormatError("'n' must be a nonnegative integer", 0)
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise FormatError("'edges' must be a list", 0)
    pairs = []
    for i, item in enumerate(edges):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or any(not isinstance(x, int) or isinstance(x, bool) for x in item)
        ):
            raise FormatError("each edge must be a pair of integers", i)
        u, v = item
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge endpoint out of range for n={n}", i)
        if u == v:
            raise FormatError(f"self-loop at {u}", i)
        pairs.append((u, v))
    return build_graph(n, pairs)
