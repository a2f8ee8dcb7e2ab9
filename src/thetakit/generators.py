"""Parameterized graph families and deterministic graph operations.

Numbering conventions are part of each generator's contract and are relied on
by the tests: generators never shuffle, and the seeded constructions draw
from ``random.Random`` (Mersenne Twister) over vertex pairs or edges in
lexicographic order, so a seed pins down the output exactly.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from .graphs import (
    ABTreeCert,
    Graph,
    _trusted_graph,
    build_graph,
    iter_bits,
    mask_of,
)


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q} with one side 0..p-1 and the other p..p+q-1."""
    return build_graph(p + q, [(u, p + v) for u in range(p) for v in range(q)])


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return build_graph(10, edges)


def theta_graph(l1: int, l2: int, l3: int) -> Graph:
    """Two branch vertices 0 and 1 joined by three disjoint paths.

    The lengths are edge counts and every length must be at least 2, so the
    branch vertices are nonadjacent and each path has interior vertices.
    Interiors are numbered 2 onward, path by path, from the side of 0.
    """
    lengths = (l1, l2, l3)
    if any(l < 2 for l in lengths):
        raise ValueError("every path length must be at least 2")
    edges = []
    nxt = 2
    for l in lengths:
        inner = list(range(nxt, nxt + l - 1))
        nxt += l - 1
        chain = [0] + inner + [1]
        edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return build_graph(nxt, edges)


def line_graph(g: Graph) -> Graph:
    """The line graph; vertex i of the result is ``g.edges()[i]``."""
    es = g.edges()
    # inc[u] holds the edges at u; edge i meets every edge at either end.
    inc = [0] * g.n
    for i, (u, v) in enumerate(es):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    adj = tuple((inc[u] | inc[v]) & ~(1 << i) for i, (u, v) in enumerate(es))
    return _trusted_graph(len(es), adj)


def prism_graph(l1: int, l2: int, l3: int) -> Graph:
    """The line graph of theta_graph(l1, l2, l3): two triangles plus links.

    prism_graph(2, 2, 2) is the triangular prism; longer parameters stretch
    the three paths between the triangles.
    """
    return line_graph(theta_graph(l1, l2, l3))


def wall(t: int) -> Graph:
    """The t by t wall: a brick-pattern subgraph of the grid, max degree 3.

    For t >= 2, start from a grid with t rows and 2t columns, keep all
    horizontal edges, keep the vertical edge below (i, j) exactly when i + j
    is even, and repeatedly delete vertices of degree at most 1.  Survivors
    are renumbered ascending by (row, column).  The drawing is calibrated by
    two hard constraints rather than by picture: wall(t) must have treewidth
    exactly t, and line graphs of its subdivisions must too.  A drawing on
    r + 1 grid rows contains an (r+1)x(r+1) grid minor (contract each
    brick's top into one vertex), so r grid rows is the largest drawing of
    treewidth r.  At t = 2 the line-graph constraint bites harder: any wall
    with a degree-3 vertex has two of them joined by three paths (odd
    degrees pair up), and subdividing those paths puts a prism, hence a K4
    minor, into the line graph, so wall(2) is forced down to the plain
    6-cycle, which the 2-row drawing trims to on its own.  wall(1), where
    the grid construction degenerates, is declared to be the 6-cycle as
    well.
    """
    if t < 1:
        raise ValueError("wall needs t >= 1")
    if t == 1:
        return cycle_graph(6)
    rows, cols = t, 2 * t
    cells = {(i, j) for i in range(rows) for j in range(cols)}

    def cell_edges(live):
        out = []
        for i, j in live:
            if (i, j + 1) in live:
                out.append(((i, j), (i, j + 1)))
            if (i + j) % 2 == 0 and (i + 1, j) in live:
                out.append(((i, j), (i + 1, j)))
        return out

    while True:
        deg = {c: 0 for c in cells}
        for a, b in cell_edges(cells):
            deg[a] += 1
            deg[b] += 1
        drop = {c for c, d in deg.items() if d <= 1}
        if not drop:
            break
        cells -= drop
    order = sorted(cells)
    index = {c: k for k, c in enumerate(order)}
    return build_graph(len(order), [(index[a], index[b]) for a, b in cell_edges(cells)])


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return _trusted_graph(g.n, tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g followed by a shifted copy of h, with no edges between them."""
    adj = list(g.adj) + [m << g.n for m in h.adj]
    return _trusted_graph(g.n + h.n, tuple(adj))


def subdivide(g: Graph, plan: Sequence[int]) -> Graph:
    """Replace each edge uv by a path through ``plan``-many fresh vertices.

    The plan holds one nonnegative count per edge, read against
    ``g.edges()`` in order.  Original vertices keep their ids; new vertices
    are appended edge by edge in lexicographic edge order, running from the
    smaller endpoint.
    """
    if isinstance(plan, Mapping):
        raise ValueError("plan must be a sequence of counts in g.edges() order, not a mapping")
    es = g.edges()
    counts = list(plan)
    if len(counts) != len(es):
        raise ValueError("need one count per edge")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    edges = []
    nxt = g.n
    for (u, v), c in zip(es, counts):
        chain = [u] + list(range(nxt, nxt + c)) + [v]
        nxt += c
        edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return build_graph(nxt, edges)


def random_subdivision(g: Graph, max_extra: int, rng: random.Random | int) -> Graph:
    """Subdivide every edge with 0..max_extra new vertices, drawn per edge.

    Draws use ``rng.randint`` over edges in lexicographic order, so an int
    seed fully determines the result.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    return subdivide(g, [rng.randint(0, max_extra) for _ in g.edges()])


def random_graph(n: int, p: float, seed: random.Random | int) -> Graph:
    """A G(n, p) sample; one uniform draw per vertex pair in lexicographic order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed) if isinstance(seed, int) else seed
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return build_graph(n, edges)


def ab_tree_graph(a: int, b: int) -> tuple[Graph, int]:
    """The full rooted tree with branching ``a`` and all leaves at depth ``b - 1``.

    Returns the graph and its root (always vertex 0).  The root has exactly
    ``a`` children and every other internal vertex has degree ``a``; vertices
    are numbered in breadth-first order.  ``a = 1`` only admits ``b <= 2``.
    """
    if a < 1 or b < 1:
        raise ValueError("tree parameters must be positive")
    if a == 1 and b > 2:
        raise ValueError("branching 1 cannot reach depth beyond 1")
    if b == 1:
        return build_graph(1, []), 0
    edges = []
    nxt = 1
    level = []
    for _ in range(a):
        edges.append((0, nxt))
        level.append(nxt)
        nxt += 1
    for _ in range(b - 2):
        new_level = []
        for v in level:
            for _ in range(a - 1):
                edges.append((v, nxt))
                new_level.append(nxt)
                nxt += 1
        level = new_level
    return build_graph(nxt, edges), 0


def ab_tree_cert(a: int, b: int) -> ABTreeCert:
    """The certificate describing ab_tree_graph(a, b) inside itself."""
    g, root = ab_tree_graph(a, b)
    parent = tuple(sorted((max(u, v), min(u, v)) for u, v in g.edges()))
    return ABTreeCert(a=a, b=b, root=root, vertices=tuple(range(g.n)), parent=parent)


def constellation(
    s: int,
    l: int,
    lengths: Sequence[int],
    attach: Sequence[Sequence[int | Iterable[int]]],
) -> Graph:
    """A stable set of s centers attached to l disjoint path components.

    ``lengths[i]`` is the vertex count of path i.  ``attach[c][i]`` gives the
    positions (0-based along path i) that center c attaches to, as an iterable
    of positions or as a bitmask; it must be nonempty for every pair, which is
    exactly the coverage condition in the definition.  Centers are numbered
    0..s-1, then the paths occupy consecutive blocks in path order.

    Every edge joins a center to a path vertex or two consecutive vertices of
    one path, so the centers are stable and removing them leaves exactly the
    l paths as components.
    """
    if s < 1 or l < 1:
        raise ValueError("need at least one center and one path")
    if len(lengths) != l:
        raise ValueError("need one length per path")
    if len(attach) != s:
        raise ValueError("need one attachment row per center")
    edges = []
    base = s
    for i, size in enumerate(lengths):
        if size < 1:
            raise ValueError("paths need at least one vertex")
        edges.extend((base + k, base + k + 1) for k in range(size - 1))
        for c in range(s):
            row = attach[c]
            if len(row) != l:
                raise ValueError(f"center {c} needs one attach set per path")
            m = row[i] if isinstance(row[i], int) else mask_of(row[i])
            if m == 0:
                raise ValueError(f"center {c} has no attachment in path {i}")
            if m >> size:
                raise ValueError(f"center {c} attaches outside path {i}")
            edges.extend((c, base + k) for k in iter_bits(m))
        base += size
    return build_graph(base, edges)
