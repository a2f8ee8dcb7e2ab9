"""Graph serialization: bit-exact graph6.

graph6 follows the published format byte for byte: 6-bit groups offset by
63, upper triangle in column-major order, minimal-length size header, zero
padding.  Parse after emit is the identity on labeled graphs.  Malformed
input raises :class:`FormatError`, which carries the offending byte offset.
"""

from __future__ import annotations

from .graphs import Graph, _trusted_graph

_HEADER = b">>graph6<<"


class FormatError(ValueError):
    """Parse failure at a known byte offset, ``position``."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def parse_graph(data: bytes | str, fmt: str = "graph6") -> Graph:
    if fmt != "graph6":
        raise ValueError(f"unknown format {fmt!r}")
    return _parse_graph6(data.encode("ascii") if isinstance(data, str) else bytes(data))


def emit_graph(g: Graph) -> bytes:
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
