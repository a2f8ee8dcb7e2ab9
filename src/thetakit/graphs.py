"""Immutable bitmask graphs and the small certificates the rest of the package passes around.

Vertices are always ``0..n-1``.  Adjacency is stored as a tuple of Python ints
used as bitsets, so neighborhood algebra (intersection, anticompleteness,
candidate pruning) is a single integer operation even on graphs with a few
thousand vertices.

Input is checked once, where it enters:

- adjacency by ``Graph(...)``, ``build_graph`` and the graph6 parser of
  ``graphio``;
- vertex sets, and the ``within`` masks of the public searches, by
  ``_vertex_mask``;
- path families on entry to ``extraction.grow_ab_tree`` and
  ``extraction.embed_forest``, and each derived family where it is built;
- anticomplete families by ``extraction.anticomplete_family``.

Values derived from checked ones are built trusted and not checked again: a
function deriving a graph from valid graphs builds it with ``_trusted_graph``,
and a private step takes the families its caller built as given.

Reachability inside a vertex mask is computed in one place: ``_union`` ORs
the adjacency masks of a set's vertices, and ``_reach`` floods breadth-first
from a seed through a mask, stopping early when asked.  The neighborhoods,
components and layers below, the flow's residual layers and the detectors'
floods are all built on those two.  ``_first_overlap`` is the one family
scan: the first pair of vertex sets that meet, or meet or see each other,
for the family and witness checks and the anticomplete descent.

Determinism contract: every function that returns vertices returns them in
ascending order, and every search elsewhere in the package iterates candidate
vertices ascending.  Re-running any pipeline on the same input gives the same
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Sequence


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _as_mask(vertices: int | Iterable[int]) -> int:
    # Integers are already masks; anything else is a collection of vertex ids.
    if isinstance(vertices, int):
        return vertices
    return mask_of(vertices)


def _vertex_mask(g: Graph, vertices: int | Iterable[int]) -> int:
    # _as_mask, for a set that must lie in g; a negative id fails mask_of's shift.
    try:
        s = _as_mask(vertices)
    except ValueError:
        s = -1
    if s & ~g.full_mask:
        raise ValueError("vertex set mentions ids outside the graph")
    return s


class Graph:
    """An undirected graph on vertices ``0..n-1`` with bitmask adjacency.

    Instances are immutable by convention and hashable.  Equality is
    label-sensitive: two graphs compare equal iff they have the same vertex
    count and identical adjacency, not merely isomorphic.
    """

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj) != n:
            raise ValueError("adjacency tuple length must equal n")
        full = (1 << n) - 1
        for v, m in enumerate(adj):
            if m & ~full:
                raise ValueError(f"adjacency of {v} mentions vertices >= {n}")
            if m >> v & 1:
                raise ValueError(f"self-loop at {v}")
        for v, m in enumerate(adj):
            for u in iter_bits(m):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = tuple(adj)
        self._hash = None

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def has_vertices(self, vertices: Collection[int]) -> bool:
        """True iff every id in ``vertices`` lies in ``0..n-1``."""
        return not vertices or (min(vertices) >= 0 and max(vertices) < self.n)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(rest):
                out.append((u, v))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.adj))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """A directed graph on ``0..n-1`` storing out-neighbor bitmasks.

    Antiparallel arc pairs are allowed, self-loops are not.
    """

    __slots__ = ("n", "out")

    def __init__(self, n: int, out: tuple[int, ...]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(out) != n:
            raise ValueError("out-neighbor tuple length must equal n")
        full = (1 << n) - 1
        for v, m in enumerate(out):
            if m & ~full:
                raise ValueError(f"arcs from {v} mention vertices >= {n}")
            if m >> v & 1:
                raise ValueError(f"self-loop at {v}")
        self.n = n
        self.out = tuple(out)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.out[v].bit_count()

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in iter_bits(self.out[u])]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.out == other.out

    def __repr__(self) -> str:
        m = sum(a.bit_count() for a in self.out)
        return f"Digraph(n={self.n}, arcs={m})"


def _trusted_graph(n: int, adj: tuple[int, ...]) -> Graph:
    # Fast path for builders whose output is symmetric and loop-free by
    # construction; the public Graph constructor re-validates everything.
    g = object.__new__(Graph)
    g.n = n
    g.adj = adj
    g._hash = None
    return g


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list, rejecting loops and out-of-range ids."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _trusted_graph(n, tuple(adj))


def build_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    out = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        out[u] |= 1 << v
    return Digraph(n, tuple(out))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Apply a permutation (``perm[old] = new``) to the vertex labels."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    adj = [0] * g.n
    for v in range(g.n):
        m = 0
        for u in iter_bits(g.adj[v]):
            m |= 1 << perm[u]
        adj[perm[v]] = m
    return _trusted_graph(g.n, tuple(adj))


def induced_subgraph(g: Graph, vertices: int | Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on a vertex set, plus the new-index -> old-id mapping.

    The kept vertices are renumbered ascending, so the mapping tuple is sorted.
    """
    keep = _vertex_mask(g, vertices)
    old = list(iter_bits(keep))
    index = {v: i for i, v in enumerate(old)}
    adj = []
    for v in old:
        m = 0
        for u in iter_bits(g.adj[v] & keep):
            m |= 1 << index[u]
        adj.append(m)
    return _trusted_graph(len(old), tuple(adj)), tuple(old)


def neighborhood_mask(g: Graph, vertices: int | Iterable[int]) -> int:
    """Open neighborhood: vertices outside the set with a neighbor inside it."""
    s = _as_mask(vertices)
    return _union(g.adj, s) & ~s


def is_stable_set(g: Graph, vertices: int | Iterable[int]) -> bool:
    s = _vertex_mask(g, vertices)
    return all(g.adj[v] & s == 0 for v in iter_bits(s))


def is_clique(g: Graph, vertices: int | Iterable[int]) -> bool:
    s = _vertex_mask(g, vertices)
    return all(s & ~g.adj[v] == 1 << v for v in iter_bits(s))


def are_anticomplete(g: Graph, a: int | Iterable[int], b: int | Iterable[int]) -> bool:
    """True iff the two vertex sets are disjoint with no edges between them."""
    am, bm = _vertex_mask(g, a), _vertex_mask(g, b)
    if am & bm:
        return False
    return all(g.adj[v] & bm == 0 for v in iter_bits(am))


def is_induced_path(
    g: Graph,
    seq: tuple[int, ...] | list[int],
    x: int | None = None,
    y: int | None = None,
) -> bool:
    """True iff ``seq`` lists the vertices of an induced path in order.

    When given, ``x`` and ``y`` additionally pin the required endpoints.
    """
    return _induced_path_mask(g, seq, x, y) != 0


def _induced_path_mask(g: Graph, seq: Sequence[int], x: int | None, y: int | None) -> int:
    # The vertex mask of seq when is_induced_path holds, else 0 (a path has a vertex).
    if not seq or x is not None and seq[0] != x or y is not None and seq[-1] != y:
        return 0
    # One pass: each vertex is an id of g and sees, among the vertices before
    # it, exactly its predecessor.  That fixes every pair's adjacency; a
    # repeated vertex leaves the mask with fewer bits than seq has entries.
    n, adj = g.n, g.adj
    mask = prev = 0
    for v in seq:
        if not 0 <= v < n or adj[v] & mask != prev:
            return 0
        prev = 1 << v
        mask |= prev
    return mask if mask.bit_count() == len(seq) else 0


def is_induced_cycle(g: Graph, seq: tuple[int, ...] | list[int]) -> bool:
    """True iff ``seq`` lists the vertices of an induced cycle in cyclic order."""
    if len(seq) < 3:
        return False
    # seq minus its last vertex is an induced path, and the last vertex, new
    # to it, sees exactly the path's two ends.
    mask, last = _induced_path_mask(g, seq[:-1], None, None), seq[-1]
    return (
        mask != 0
        and 0 <= last < g.n
        and not mask >> last & 1
        and g.adj[last] & mask == 1 << seq[-2] | 1 << seq[0]
    )


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Component masks of G (or of G[within]), ordered by smallest vertex."""
    todo = g.full_mask if within is None else within
    comps = []
    while todo:
        comps.append(comp := _reach(g.adj, todo & -todo, todo))
        todo &= ~comp
    return comps


def bfs_layers(g: Graph, root: int, within: int | None = None) -> list[int]:
    """Masks of vertices at distance 0, 1, 2, ... from root inside G[within]."""
    todo = g.full_mask if within is None else within
    if not todo >> root & 1:
        raise ValueError("root is not in the search area")
    seen = frontier = 1 << root
    layers = [seen]
    while frontier := _union(g.adj, frontier) & todo & ~seen:
        layers.append(frontier)
        seen |= frontier
    return layers


def _union(adj: Sequence[int], mask: int) -> int:
    # The union of the adjacency masks of the vertices in mask.
    u = 0
    while mask:
        low = mask & -mask
        u |= adj[low.bit_length() - 1]
        mask ^= low
    return u


def _reach(adj: Sequence[int], seed: int, within: int, stop: int = 0) -> int:
    # The vertices reached breadth-first from seed through within, seed
    # included; returned as soon as they meet stop.
    reached = frontier = seed
    while frontier and not reached & stop:
        frontier = _union(adj, frontier) & within & ~reached
        reached |= frontier
    return reached


def iter_induced_paths(g: Graph, src: int, dst: int, allowed: int, limit: int | None = None):
    """Yield every induced src-dst path whose interior lies inside ``allowed``.

    Paths come out in depth-first order with candidates ascending, completing
    at dst before extending.  A vertex adjacent to dst can only be the last
    interior vertex, which prunes every doomed branch immediately.  With
    ``limit``, exactly the paths of at most that many vertices come out, in
    the same order, and no branch grows past it.
    """
    adj = g.adj
    dbit = 1 << dst
    # A path grows only while it leaves room for one more vertex and dst; no
    # induced path has more than n vertices, so n is no limit at all.
    longest = g.n if limit is None else limit - 2
    if limit is not None and limit < 2:
        return
    # Depth first on an explicit stack, so a long path costs no Python frame
    # per vertex.  Each path's extensions go on in descending order and so
    # come off ascending; they avoid every neighbour of the path so far.
    stack = [((src,), 1 << src)]
    while stack:
        path, banned = stack.pop()
        last = path[-1]
        if adj[last] & dbit:
            yield path + (dst,)
        elif len(path) <= longest:
            cand = adj[last] & allowed & ~banned
            banned |= adj[last]
            while cand:
                c = cand.bit_length() - 1
                cand ^= 1 << c
                stack.append((path + (c,), banned))


def max_disjoint_paths(g: Graph, sources: int, sinks: int, within: int) -> int:
    """Most pairwise vertex-disjoint paths in G[within] from sources to sinks.

    Each path runs from a vertex of ``sources`` to a vertex of ``sinks``
    through ``within`` only; a vertex in both masks is a one-vertex path, and
    sources or sinks outside ``within`` are ignored.  Paths are plain, not
    necessarily induced.  A mask naming a vertex outside g raises
    ``ValueError``.

    The value is a maximum flow in the vertex-split network: S -> v_in for
    each source, v_in -> v_out for each vertex, u_out -> v_in for each edge
    and v_out -> T for each sink, all of capacity 1.  A vertex passes at most
    one unit, so an integral flow is a family of disjoint paths and a cut is
    a vertex separator: the max-flow min-cut theorem gives Menger's value
    (Even-Tarjan, SIAM J. Comput. 1975).  Each used vertex v keeps ``prv[v]``
    and ``nxt[v]``, its neighbours on its path; ``used`` and ``starts`` (the
    vertices fed by S) are masks.  Each round searches the residual network
    breadth-first, one mask per layer, with six moves:

    - S -> v_in, for a source v not in ``starts``;
    - v_in -> v_out, if v is unused;
    - v_in -> prv[v]_out, if v is used and not in ``starts`` (cancels an arc);
    - v_out -> u_in, for each neighbour u in ``within`` other than nxt[v];
    - v_out -> v_in, if v is used (cancels v's internal arc);
    - v_out -> T, if v is a sink whose path does not already end there.

    The round then walks back from T through the layers, taking any
    predecessor, and flips the arcs of that path.  For a used v, nxt[v]_in
    is seen before v_out can be; a start, or a vertex whose path ends in T,
    never becomes unused again.  So first-visit tests stand in for the two
    "other than" conditions, and the flow is the number of starts.

    The flow's paths can be read out, since ``nxt`` links each one from its
    start: :func:`_flow_paths` walks them.
    """
    return _max_flow(g, sources, sinks, within)[0].bit_count()


def _flow_paths(g: Graph, sources: int, sinks: int, within: int) -> list[tuple[int, ...]]:
    """The paths of :func:`max_disjoint_paths`' flow, by ascending start.

    Each follows ``nxt`` from its start up to the first sink on it.  A round
    stops at the first layer that reaches a sink's exit, so no augmenting
    path leaves a sink except to T, and that first sink is where the path
    ends.
    """
    starts, _, nxt = _max_flow(g, sources, sinks, within)
    paths = []
    for v in iter_bits(starts):
        path = [v]
        while not sinks >> v & 1:
            v = nxt[v]
            path.append(v)
        paths.append(tuple(path))
    return paths


def _max_flow(g: Graph, sources: int, sinks: int, within: int) -> tuple[int, dict[int, int], dict[int, int]]:
    """The flow of :func:`max_disjoint_paths`: its ``starts``, ``prv`` and ``nxt``."""
    within = _vertex_mask(g, within)
    sources = _vertex_mask(g, sources) & within
    sinks = _vertex_mask(g, sinks) & within
    adj = g.adj
    prv: dict[int, int] = {}
    nxt: dict[int, int] = {}
    used = starts = 0
    while True:
        layers = []  # the exits first reached in each layer
        frontier = seen_in = sources & ~starts
        seen_out = 0
        while frontier:
            exits = frontier & ~used
            for v in iter_bits(frontier & used & ~starts):
                exits |= 1 << prv[v]
            exits &= ~seen_out
            seen_out |= exits
            layers.append(exits)
            if exits & sinks:
                break
            frontier = (exits & used | _union(adj, exits)) & within & ~seen_in
            seen_in |= frontier
        else:
            return starts, prv, nxt
        # Back from T: exit v was reached from v_in or from nxt[v]_in, and
        # entry u from u_out or from any neighbour's exit one layer earlier.
        end = exits & sinks
        v = (end & -end).bit_length() - 1
        path = []  # (entry, exit) per layer, from T back to S
        for k in range(len(layers) - 1, -1, -1):
            u = nxt[v] if used >> v & 1 else v
            path.append((u, v))
            if k:
                prev = layers[k - 1]
                if not prev >> u & 1:
                    prev &= adj[u]
                    v = (prev & -prev).bit_length() - 1
                else:
                    v = u
        last = -1  # the exit before the current entry; -1 is S
        for u, v in reversed(path):
            if last < 0:
                starts |= 1 << u
            elif last == u:
                used &= ~(1 << u)
            else:
                prv[u] = last
                nxt[last] = u
            if u == v:
                used |= 1 << u
            last = v


def _first_overlap(masks: Sequence[int], adj: Sequence[int] | None = None) -> tuple[int, int] | None:
    """The least i, then the least j > i, with masks i and j meeting; None if none do.

    Given ``adj``, masks that have an edge between them count as meeting too,
    so None means pairwise anticomplete.  One backward pass keeps the union
    of the masks after i and tests it against mask i, or its closed
    neighbourhood, so the last i it flags is the least; a forward scan from
    there finds its j.
    """
    reach = masks if adj is None else [m | _union(adj, m) for m in masks]
    first, later = None, 0
    for i in range(len(masks) - 1, -1, -1):
        if reach[i] & later:
            first = i
        later |= masks[i]
    if first is None:
        return None
    m = reach[first]
    return first, next(j for j in range(first + 1, len(masks)) if m & masks[j])


@dataclass(frozen=True)
class PathFamily:
    """A fan of induced x-y paths that pairwise share exactly the two ends.

    Each path is stored as its full vertex sequence from x to y and must have
    at least one interior vertex, so x and y are nonadjacent in any graph
    admitting a valid family.  Interiors of distinct paths are disjoint but may
    have edges between them; detecting when they cannot all attach is the
    point of the growth pipeline.
    """

    x: int
    y: int
    paths: tuple[tuple[int, ...], ...]

    def tips(self) -> tuple[int, ...]:
        """The neighbor of x on each path, in family order."""
        return tuple(p[1] for p in self.paths)


def path_family_violation(g: Graph, fam: PathFamily) -> str | None:
    """The first broken family invariant, or None if the family is valid."""
    if fam.x == fam.y:
        return "the two ends coincide"
    if not g.has_vertices((fam.x, fam.y)):
        return "an end is outside the graph"
    if g.has_edge(fam.x, fam.y):
        return "the two ends are adjacent"
    ends = 1 << fam.x | 1 << fam.y
    interiors = []
    for i, p in enumerate(fam.paths):
        mask = _induced_path_mask(g, p, fam.x, fam.y)
        if not mask:
            return f"path {i} is not an induced path from x to y"
        interiors.append(mask & ~ends)
    # Each path now runs from x to y without repeats, so two paths share
    # only their ends exactly when their interiors are disjoint.
    pair = _first_overlap(interiors)
    if pair is not None:
        return f"paths {pair[0]} and {pair[1]} share interior vertices"
    return None


@dataclass(frozen=True)
class ABTreeCert:
    """A rooted tree found inside a host graph, with its parent map.

    ``parent`` holds one (child, parent) pair per non-root vertex, sorted by
    child.  Validity (checked by :func:`ab_tree_violation`) means G restricted
    to the vertices is exactly the tree the parent map describes, the root and
    every internal vertex have degree ``a``, and every leaf sits at distance
    exactly ``b - 1`` from the root.  The root never counts as a leaf, so
    ``a = 1, b = 2`` is the two-vertex tree and ``b = 1`` a single vertex.
    """

    a: int
    b: int
    root: int
    vertices: tuple[int, ...]
    parent: tuple[tuple[int, int], ...]


def ab_tree_size(a: int, b: int) -> int:
    """Vertex count of a full tree: 1 + a * sum of (a-1)^i for i < b-1."""
    if b == 1:
        return 1
    return 1 + a * sum((a - 1) ** i for i in range(b - 1))


def ab_tree_violation(g: Graph, cert: ABTreeCert) -> str | None:
    """The first broken certificate invariant, or None if it is valid."""
    a, b = cert.a, cert.b
    if a < 1 or b < 1:
        return "tree parameters must be positive"
    vs = cert.vertices
    if len(set(vs)) != len(vs):
        return "repeated vertices"
    if not g.has_vertices(vs):
        return "vertices outside the graph"
    if cert.root not in vs:
        return "root is not among the vertices"
    mask = mask_of(vs)
    if b == 1:
        if len(vs) != 1 or cert.parent:
            return "depth-1 tree must be the bare root"
        return None
    par = dict(cert.parent)
    if len(par) != len(cert.parent) or set(par) != set(vs) - {cert.root}:
        return "parent map must cover exactly the non-root vertices"
    depth = {cert.root: 0}
    for c in par:
        chain = []
        v = c
        while v not in depth:
            if v in chain or par.get(v) is None:
                return "parent map does not lead to the root"
            chain.append(v)
            v = par[v]
        d = depth[v]
        for u in reversed(chain):
            d += 1
            depth[u] = d
    for c, p in cert.parent:
        if not g.has_edge(c, p):
            return f"parent link {c}-{p} is not an edge"
    edge_count = sum((g.adj[v] & mask).bit_count() for v in iter_bits(mask)) // 2
    if edge_count != len(vs) - 1:
        return "induced subgraph has edges beyond the parent links"
    children = {v: 0 for v in vs}
    for c in par:
        children[par[c]] += 1
    for v in vs:
        down = children[v]
        if down == 0:
            if v == cert.root or depth[v] != b - 1:
                return f"vertex {v} is a leaf away from depth {b - 1}"
        else:
            want = a if v == cert.root else a - 1
            if down != want:
                return f"vertex {v} has {down} children, wants {want}"
    return None
