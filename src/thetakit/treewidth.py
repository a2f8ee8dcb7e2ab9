"""Exact treewidth for small graphs, with witnessing decompositions.

The main solver raises a contraction-degeneracy lower bound through safe
reductions, then decides k = low, low + 1, ... on what the reductions leave.
The first k that succeeds is the width, and the decomposition built from
its elimination order witnesses it.

The reductions work on the elimination graph: a filled adjacency list
``fadj`` in which, once a vertex set S has been eliminated,
``fadj[v] & remaining`` is v's neighbourhood among the vertices not in S.
``_eliminate`` is its one update: it turns the eliminated vertex's live
neighbourhood into a clique.  The reductions hand their filled list to the
decision in the host's own labels, and the decomposition built from an
order uses the same update.

The decision is the block recursion of Arnborg, Corneil and Proskurowski
(1987), run bottom-up from the positive instances as in Tamaki's
positive-instance-driven dynamic program (2017).  A feasible block is a
connected vertex set C with at most k neighbours that can be eliminated
before its neighbourhood N(C) at back-degree at most k.  C is feasible iff
|N(C)| <= k and some v in C leaves only feasible components of C - v: the
components' orders, then v, whose back-degree is then |N(C)|.  A graph has
treewidth at most k iff each of its components is a feasible block.  The
search keeps one state per block, so regions of the graph that do not touch
are never multiplied together.

A separate subset dynamic program recomputes the width from scratch for
cross-checking; the two share no search state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detectors import check_cap
from .graphs import (
    Graph,
    _trusted_graph,
    build_graph,
    connected_components,
    iter_bits,
    mask_of,
    neighborhood_mask,
)

# G(32, 0.2) takes under 1 s of CPU; G(36, 0.2) already takes over 15 s.
TREEWIDTH_CAP = 32
DP_CAP = 16


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree whose node i carries the vertex set ``bags[i]`` (as a mask)."""

    tree: Graph
    bags: tuple[int, ...]

    def width(self) -> int:
        return max(b.bit_count() for b in self.bags) - 1


def validate_decomposition(g: Graph, d: TreeDecomposition) -> bool:
    """All three decomposition axioms, plus the carrier being a tree."""
    t = d.tree
    if t.n == 0 or len(d.bags) != t.n:
        return False
    if t.m != t.n - 1 or len(connected_components(t)) != 1:
        return False
    cover = 0
    for b in d.bags:
        if b & ~g.full_mask:
            return False
        cover |= b
    if cover != g.full_mask:
        return False
    for u, v in g.edges():
        pair = (1 << u) | (1 << v)
        if not any(b & pair == pair for b in d.bags):
            return False
    for v in range(g.n):
        nodes = mask_of(i for i in range(t.n) if d.bags[i] >> v & 1)
        if len(connected_components(t, nodes)) != 1:
            return False
    return True


def _eliminate(fadj: list[int], v: int, remaining: int) -> int:
    """Eliminate v from the elimination graph ``fadj``, in place.

    Joins v's neighbours among ``remaining`` into a clique and returns that
    neighbourhood.  Bits of eliminated vertices stay in ``fadj``; readers mask
    with the vertices still remaining.
    """
    nb = fadj[v] & remaining
    for u in iter_bits(nb):
        fadj[u] |= nb & ~(1 << u)
    return nb


def _contraction_degeneracy(g: Graph) -> int:
    # Max over contractions of the minimum degree; a treewidth lower bound
    # since minors never increase treewidth.  Min-degree vertex contracted
    # into its least-degree neighbor, ties broken by index (the dict keeps
    # its keys in index order).  It is at least the degeneracy k: while the
    # minimum degree stays below k, the vertex contracted lies outside the
    # k-core, which survives as a subgraph.  ``adj`` of a remaining vertex
    # holds only remaining vertices.
    adj = list(g.adj)
    deg = {v: a.bit_count() for v, a in enumerate(adj)}
    best = 0
    while deg:
        v = min(deg, key=deg.__getitem__)
        nb = adj[v]
        best = max(best, deg.pop(v))
        if nb:
            u = min(iter_bits(nb), key=deg.__getitem__)
            merged = (adj[u] | nb) & ~(1 << u) & ~(1 << v)
            adj[u] = merged
            deg[u] = merged.bit_count()
            for w in iter_bits(merged):
                adj[w] = (adj[w] & ~(1 << v)) | (1 << u)
                deg[w] = adj[w].bit_count()
    return best


def _preprocess(g: Graph, low: int) -> tuple[list[int], int, list[int], int]:
    """Shrink g by safe eliminations before the search.

    Applies the standard simplicial rule (eliminate a vertex whose live
    neighborhood is a clique, raising the lower bound to its degree) and the
    almost-simplicial rule (eliminate a vertex whose neighborhood minus one
    vertex is a clique, provided its degree is at most the current lower
    bound), eliminating with the search's own update, which fills the
    missing pairs.  Both preserve max(tw(reduced), low) = tw(g), so the
    eliminated vertices form a prefix of an optimal elimination order of g.
    Returns that prefix, the mask of surviving vertices, their filled
    adjacency, and the new bound.
    """
    adj = list(g.adj)
    alive = g.full_mask
    prefix: list[int] = []
    changed = True
    while changed and alive:
        changed = False
        for v in iter_bits(alive):
            nb = adj[v] & alive
            d = nb.bit_count()
            # lonely counts the neighbours that miss a partner in nb, common
            # keeps the vertices equal to or missing each of them, and pairs
            # counts the missing pairs twice.  Some w lies in every missing
            # pair iff w is in common and its lonely - 1 pairs are all there is.
            lonely = pairs = 0
            common = nb
            for u in iter_bits(nb):
                miss = nb & ~adj[u]
                if miss != 1 << u:
                    lonely += 1
                    pairs += miss.bit_count() - 1
                    common &= miss
            if not lonely:
                low = max(low, d)
            elif d > low or not common or pairs != 2 * (lonely - 1):
                continue
            _eliminate(adj, v, alive)
            alive &= ~(1 << v)
            prefix.append(v)
            changed = True
    return prefix, alive, adj, low


def _decide(fadj: list[int], alive: int, k: int) -> list[int] | None:
    """An order of ``alive`` of back-degree at most k in ``fadj``, or None.

    ``fadj`` is an elimination graph in which ``alive`` is still to be
    eliminated, as ``_preprocess`` leaves it; it is read, never written.

    Feasible blocks (see the module docstring) are built bottom-up.  The
    stack starts with every vertex of degree at most k as a block of one.
    Popping a block d, for each v in N(d), the walk joins d and v with each
    set of blocks popped before d that have v in their neighbourhood and
    touch neither d nor each other, and records the union as a new block if
    it has at most k neighbours.  Its neighbourhood is the union of the
    parts' stored ones, less the union itself.  Every block with v in its
    neighbourhood is joined once it is popped, so each combination is tried
    exactly once, when its last part is popped, and every feasible block is
    found.  The walk prunes soundly: a neighbour of the partial union that
    no later candidate contains stays in N(C), so once more than k of those
    remain no extension can be recorded.  Blocks are popped newest first,
    which grows a component quickly when k suffices, and blocks inside a
    component already found are skipped.  The answer is yes once every
    component of ``alive`` is a block with no neighbours; its order unfolds
    from the vertex each block was recorded with.
    """
    nbr = {v: fadj[v] & alive for v in iter_bits(alive)}
    around: dict[int, int] = {}  # each block found -> its neighbourhood
    last: dict[int, int] = {}  # each block found -> the vertex eliminated last
    touching: dict[int, list[int]] = {v: [] for v in nbr}  # popped blocks around v
    stack: list[int] = []
    whole = 0  # the components of alive found as blocks

    def record(c: int, n: int, v: int) -> None:
        nonlocal whole
        around[c] = n
        last[c] = v
        stack.append(c)
        if not n:
            whole |= c

    def walk(c: int, n: int, reach: int, i: int) -> None:
        # c is v, d and the blocks taken from cands[:i]; reach is d, those
        # blocks and their neighbourhoods, and n the union of all the parts'
        # neighbourhoods.  later[j] is the union of cands[j:].
        n &= ~c
        if n.bit_count() <= k and c not in around:
            record(c, n, v)
        for j in range(i, len(cands)):
            if (n & ~later[j]).bit_count() > k:
                return
            b = cands[j]
            if not b & reach:
                walk(c | b, n | around[b], reach | b | around[b], j + 1)

    for v, nv in nbr.items():
        if nv.bit_count() <= k:
            record(1 << v, nv, v)
    while stack and whole != alive:
        d = stack.pop()
        if d & whole:
            continue
        nd = around[d]
        for v in iter_bits(nd):
            cands = [b for b in touching[v] if not b & (d | nd)]
            later = [0] * (len(cands) + 1)
            for j in range(len(cands) - 1, -1, -1):
                later[j] = later[j + 1] | cands[j]
            walk(d | 1 << v, nd | nbr[v], d | nd, 0)
        for v in iter_bits(nd):
            touching[v].append(d)
    if whole != alive:
        return None
    # A block's order is that of each component of it less its last vertex,
    # then that vertex.  Listing each last vertex before its parts' vertices
    # and reversing the list gives every block's order.
    h = _trusted_graph(len(fadj), tuple(fadj))
    order = []
    todo = connected_components(h, alive)
    while todo:
        c = todo.pop()
        order.append(last[c])
        todo.extend(connected_components(h, c & ~(1 << last[c])))
    order.reverse()
    return order


def _decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    pos = {v: i for i, v in enumerate(order)}
    fadj = list(g.adj)
    remaining = g.full_mask
    bags = []
    reaches = []
    for v in order:
        remaining &= ~(1 << v)
        rs = _eliminate(fadj, v, remaining)
        bags.append(rs | (1 << v))
        reaches.append(rs)
    edges = []
    for i, rs in enumerate(reaches):
        if rs:
            edges.append((i, min(pos[u] for u in iter_bits(rs))))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return TreeDecomposition(build_graph(len(order), edges), tuple(bags))


def treewidth_exact(g: Graph, cap: int | None = TREEWIDTH_CAP) -> tuple[int, TreeDecomposition]:
    """Exact treewidth and a validating decomposition witnessing it."""
    check_cap("treewidth_exact", g.n, cap)
    if g.n == 0:
        return -1, TreeDecomposition(build_graph(1, []), (0,))
    prefix, alive, fadj, k = _preprocess(g, _contraction_degeneracy(g))
    while (order := _decide(fadj, alive, k)) is None:
        k += 1
    dec = _decomposition_from_order(g, prefix + order)
    return dec.width(), dec


def treewidth_dp(g: Graph, cap: int | None = DP_CAP) -> int:
    """Width-only subset dynamic program, independent of the main solver."""
    check_cap("treewidth_dp", g.n, cap)
    if g.n == 0:
        return -1

    # best[S] is the least width of eliminating S first (g.n is above every
    # width); eliminating v after R costs the count of vertices outside R+{v}
    # that v reaches directly or through R.  Each R floods the components of
    # G[R] and their neighbourhoods once and reads that count for every v
    # outside it.
    best = [g.n] * (1 << g.n)
    best[0] = -1
    for r in sorted(range(1 << g.n), key=int.bit_count):
        parts = [(c, neighborhood_mask(g, c)) for c in connected_components(g, r)]
        for v in iter_bits(g.full_mask & ~r):
            reach = g.adj[v]
            for comp, around in parts:
                if g.adj[v] & comp:
                    reach |= around
            cost = max(best[r], (reach & ~r & ~(1 << v)).bit_count())
            s = r | 1 << v
            if cost < best[s]:
                best[s] = cost
    return best[g.full_mask]
