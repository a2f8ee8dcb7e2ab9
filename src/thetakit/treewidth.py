"""Exact treewidth for small graphs, with witnessing decompositions.

The main solver raises a contraction-degeneracy lower bound through safe
reductions, then decides k = low, low + 1, ... on what the reductions leave.
The first k that succeeds is the width.  Each vertex is eliminated once:
the decomposition that witnesses the width is read off the reductions,
which record each bag as they eliminate, and off the decision's blocks.

The reductions work on the elimination graph: a filled adjacency list
``fadj`` in which, once a vertex set S has been eliminated,
``fadj[v] & remaining`` is v's neighbourhood among the vertices not in S.
``_eliminate`` is its one update: it turns the eliminated vertex's live
neighbourhood into a clique.  The reductions hand their filled list to the
decision in the host's own labels.

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
    _reach,
    _trusted_graph,
    build_graph,
    connected_components,
    iter_bits,
    mask_of,
    neighborhood_mask,
)

# G(32, 0.2) takes under 0.4 s of CPU (seeds 1-5); G(36, 0.2) takes 5-11 s
# (seeds 1 and 2), on one core of a 2-core x86-64 machine under CPython 3.11.
TREEWIDTH_CAP = 32
DP_CAP = 16


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree whose node i carries the vertex set ``bags[i]`` (as a mask)."""

    tree: Graph
    bags: tuple[int, ...]

    def width(self) -> int:
        return max(b.bit_count() for b in self.bags) - 1


def decomposition_violation(g: Graph, d: TreeDecomposition) -> str | None:
    """The first broken decomposition axiom, or None if d decomposes g.

    The carrier must be a tree with one bag per node, every bag must lie in
    g, every vertex and every edge must lie in some bag, and the nodes whose
    bags hold a vertex must induce a connected subtree.
    """
    t = d.tree
    if t.n == 0 or t.m != t.n - 1 or len(connected_components(t)) != 1:
        return "the carrier is not a tree"
    if len(d.bags) != t.n:
        return f"{len(d.bags)} bags for a tree of {t.n} nodes"
    cover = 0
    for i, b in enumerate(d.bags):
        if b & ~g.full_mask:
            return f"bag {i} holds a vertex outside the graph"
        cover |= b
    if cover != g.full_mask:
        return f"vertex {next(iter_bits(g.full_mask & ~cover))} lies in no bag"
    for u, v in g.edges():
        pair = (1 << u) | (1 << v)
        if not any(b & pair == pair for b in d.bags):
            return f"edge ({u}, {v}) lies in no bag"
    for v in range(g.n):
        nodes = mask_of(i for i in range(t.n) if d.bags[i] >> v & 1)
        if len(connected_components(t, nodes)) != 1:
            return f"the nodes holding vertex {v} are disconnected"
    return None


def validate_decomposition(g: Graph, d: TreeDecomposition) -> bool:
    """True iff d is a tree decomposition of g (see decomposition_violation)."""
    return decomposition_violation(g, d) is None


def _eliminate(fadj: list[int], v: int, remaining: int) -> int:
    """Eliminate v from the elimination graph ``fadj``, in place.

    Joins v's neighbours among ``remaining`` into a clique and returns that
    neighbourhood.  Bits of eliminated vertices stay in ``fadj``; readers mask
    with the vertices still remaining.
    """
    nb = rest = fadj[v] & remaining
    while rest:
        low = rest & -rest
        rest ^= low
        fadj[low.bit_length() - 1] |= nb ^ low
    return nb


def _contraction_degeneracy(g: Graph) -> int:
    # Max over contractions of the minimum degree; a treewidth lower bound
    # since minors never increase treewidth.  The least (degree, index)
    # vertex is contracted into its least (degree, index) neighbour: with
    # bucket[d] the mask of remaining vertices of degree d, that is the
    # least vertex of the first nonempty bucket, and the least vertex of
    # nb & bucket[e] for the first e where it is nonempty.  It is at least
    # the degeneracy k: while the minimum degree stays below k, the vertex
    # contracted lies outside the k-core, which survives as a subgraph.
    # ``adj`` of a remaining vertex holds only remaining vertices.  A
    # contraction moves only u and the common neighbours of u and v, which
    # lose v; v's other neighbours trade v for u.  So no degree falls below
    # d - 1 and the next scan starts there.
    adj = list(g.adj)
    deg = [a.bit_count() for a in adj]
    bucket = [0] * (g.n + 1)
    for v, dv in enumerate(deg):
        bucket[dv] |= 1 << v
    best = d = 0
    for _ in range(g.n):
        while not bucket[d]:
            d += 1
        vb = bucket[d] & -bucket[d]
        bucket[d] ^= vb
        v = vb.bit_length() - 1
        best = max(best, d)
        nb = adj[v]
        if nb:
            e = d
            while not nb & bucket[e]:
                e += 1
            ub = nb & bucket[e] & -(nb & bucket[e])
            u = ub.bit_length() - 1
            common = nb & adj[u]
            merged = (adj[u] | nb) & ~ub & ~vb
            adj[u] = merged
            bucket[e] ^= ub
            deg[u] = merged.bit_count()
            bucket[deg[u]] |= ub
            rest = nb ^ ub
            while rest:
                wb = rest & -rest
                rest ^= wb
                w = wb.bit_length() - 1
                adj[w] = adj[w] & ~vb | ub
                if wb & common:
                    bucket[deg[w]] ^= wb
                    deg[w] -= 1
                    bucket[deg[w]] |= wb
            d = max(d - 1, 0)
    return best


def _preprocess(g: Graph, low: int) -> tuple[list[int], list[int], int, list[int], int]:
    """Shrink g by safe eliminations before the search.

    Applies the standard simplicial rule (eliminate a vertex whose live
    neighborhood is a clique, raising the lower bound to its degree) and the
    almost-simplicial rule (eliminate a vertex whose neighborhood minus one
    vertex is a clique, provided its degree is at most the current lower
    bound), eliminating with the search's own update, which fills the
    missing pairs.  Both preserve max(tw(reduced), low) = tw(g), so the
    eliminated vertices form a prefix of an optimal elimination order of g.
    Returns that prefix, each prefix vertex's bag (the vertex with its live
    neighbourhood when eliminated), the mask of surviving vertices, their
    filled adjacency, and the new bound.
    """
    adj = list(g.adj)
    alive = g.full_mask
    prefix: list[int] = []
    bags: list[int] = []
    changed = True
    while changed and alive:
        changed = False
        todo = alive
        while todo:
            vb = todo & -todo
            todo ^= vb
            v = vb.bit_length() - 1
            nb = rest = adj[v] & alive
            # lonely counts the neighbours that miss a partner in nb, common
            # keeps the vertices equal to or missing each of them, and pairs
            # counts the missing pairs twice.  Some w lies in every missing
            # pair iff w is in common and its lonely - 1 pairs are all there is.
            lonely = pairs = 0
            common = nb
            while rest:
                ub = rest & -rest
                rest ^= ub
                miss = nb & ~adj[ub.bit_length() - 1]
                if miss != ub:
                    lonely += 1
                    pairs += miss.bit_count() - 1
                    common &= miss
            d = nb.bit_count()
            if not lonely:
                low = max(low, d)
            elif d > low or not common or pairs != 2 * (lonely - 1):
                continue
            bags.append(_eliminate(adj, v, alive) | vb)
            alive ^= vb
            prefix.append(v)
            changed = True
    return prefix, bags, alive, adj, low


def _decide(fadj: list[int], alive: int, k: int) -> list[tuple[int, int, int | None]] | None:
    """An order of ``alive`` of back-degree at most k in ``fadj``, or None.

    The order comes as one (vertex, bag, parent) triple per vertex: the bag
    is the vertex with its neighbours among the later vertices once the
    earlier ones are eliminated, and the parent is the earliest of those
    neighbours, or None if there is none.

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
    component of ``alive`` is a block with no neighbours.

    The order unfolds from the vertex v each block C was recorded with: the
    components of C - v, each a block, then v.  Each v's triple is read off
    its block, with no elimination: the bag is {v} | N(C), and the parent
    is the last vertex of the block that C was split from, or None for a
    component of ``alive``.  These are the elimination's bag and parent:

    - C - v's components are eliminated before v, and N(C) after it: if C
      was split from block P with last vertex p, N(C) lies in {p} | N(P).
    - Every other vertex eliminated before v lies in a block that C does
      not touch, a sibling of C or of a block around it, so it is
      anticomplete to C and its elimination adds no fill at v.  Fill joins
      v exactly to the later vertices it reaches through C, so v's bag is
      {v} | N(C).
    - A child C' of C has v in N(C'), which lies in {v} | N(C).  So v is
      the earliest vertex of N(C'): the parent of the last vertex of C'.
    """
    nbr = [a & alive for a in fadj]
    around: dict[int, int] = {}  # each block found -> its neighbourhood
    last: dict[int, int] = {}  # each block found -> the vertex eliminated last
    touching: list[list[int]] = [[] for _ in fadj]  # popped blocks around each vertex
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

    rest = alive
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        if nbr[v].bit_count() <= k:
            record(low, nbr[v], v)
    while stack and whole != alive:
        d = stack.pop()
        if d & whole:
            continue
        nd = around[d]
        dn = d | nd
        rest = nd
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            popped = touching[v]
            cands = [b for b in popped if not b & dn]
            if cands:
                later = [0] * (len(cands) + 1)
                for j in range(len(cands) - 1, -1, -1):
                    later[j] = later[j + 1] | cands[j]
                walk(d | low, nd | nbr[v], dn, 0)
            else:
                # The walk of d and v alone: nothing to join, one record test.
                n = (nd | nbr[v]) & ~(d | low)
                if n.bit_count() <= k and d | low not in around:
                    record(d | low, n, v)
            popped.append(d)
    if whole != alive:
        return None

    def split(rest: int, parent: int | None) -> None:
        # Queue the components of rest, least vertex first, under parent.
        # Blocks are connected, so a block is its own one component.
        while rest:
            c = rest if rest in around else _reach(nbr, rest & -rest, rest)
            rest ^= c
            todo.append((c, parent))

    # Listing each block's last vertex before its parts' vertices and
    # reversing the list gives every block's order.
    todo: list[tuple[int, int | None]] = []
    split(alive, None)
    triples = []
    while todo:
        c, parent = todo.pop()
        v = last[c]
        triples.append((v, around[c] | 1 << v, parent))
        split(c ^ 1 << v, v)
    triples.reverse()
    return triples


def treewidth_exact(g: Graph, cap: int | None = TREEWIDTH_CAP) -> tuple[int, TreeDecomposition]:
    """Exact treewidth and a validating decomposition witnessing it.

    Node i's bag is the i-th vertex eliminated with its neighbours among the
    later ones, as the reductions and the decision found it.  Node i joins
    the node of the earliest of those neighbours, or node i + 1 if it has
    none; either way a later node, so the n - 1 edges make a tree.
    """
    check_cap("treewidth_exact", g.n, cap)
    if g.n == 0:
        return -1, TreeDecomposition(build_graph(1, []), (0,))
    prefix, bags, alive, fadj, k = _preprocess(g, _contraction_degeneracy(g))
    while (triples := _decide(fadj, alive, k)) is None:
        k += 1
    n = g.n
    pos = [0] * n
    for i, v in enumerate(prefix + [v for v, _, _ in triples]):
        pos[v] = i
    ups = []  # each node's parent node, or n for the next node
    for v, bag in zip(prefix, bags):
        rest, j = bag ^ 1 << v, n
        while rest:
            low = rest & -rest
            rest ^= low
            p = pos[low.bit_length() - 1]
            if p < j:
                j = p
        ups.append(j)
    for _, bag, up in triples:
        bags.append(bag)
        ups.append(n if up is None else pos[up])
    tree = [0] * n
    for i, j in enumerate(ups):
        j = i + 1 if j == n else j
        if j < n:
            tree[i] |= 1 << j
            tree[j] |= 1 << i
    dec = TreeDecomposition(_trusted_graph(n, tuple(tree)), tuple(bags))
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
