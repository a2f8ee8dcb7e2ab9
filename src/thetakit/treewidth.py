"""Exact treewidth for small graphs, with witnessing decompositions.

The main solver raises a contraction-degeneracy lower bound through safe
reductions, then decides k = low, low + 1, ... by branch-and-bound over
elimination orderings of what the reductions leave.  The first k that
succeeds is the width, and the decomposition built from its order
witnesses it.

Every step works on the elimination graph: a filled adjacency list ``fadj``
in which, once a vertex set S has been eliminated, ``fadj[v] & remaining``
is v's neighbourhood among the vertices not in S.  ``_eliminate`` is its one
update: it turns the eliminated vertex's live neighbourhood into a clique.
That neighbourhood depends only on S, not on the order S was eliminated in,
so the search carries the list down its recursion, copying it for a child
only once the child survives the memo of failed vertex sets, and each fill
neighbourhood is a lookup.  The reductions hand their filled list to the
search in the host's own labels, and the decomposition built from an order
uses the same update.

A separate subset dynamic program recomputes the width from scratch for
cross-checking; the two share no search state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detectors import check_cap
from .graphs import Graph, build_graph, connected_components, iter_bits, mask_of, neighborhood_mask

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
    # into its least-degree neighbor, ties broken by index.  It is at least
    # the degeneracy k: while the minimum degree stays below k, the vertex
    # contracted lies outside the k-core, which survives as a subgraph.
    adj = list(g.adj)
    remaining = g.full_mask
    best = 0
    while remaining:
        v = min(
            iter_bits(remaining), key=lambda u: ((adj[u] & remaining).bit_count(), u)
        )
        nb = adj[v] & remaining
        best = max(best, nb.bit_count())
        if nb:
            u = min(iter_bits(nb), key=lambda w: ((adj[w] & remaining).bit_count(), w))
            merged = (adj[u] | nb) & ~(1 << u) & ~(1 << v)
            adj[u] = merged
            for w in iter_bits(merged):
                adj[w] = (adj[w] & ~(1 << v)) | (1 << u)
        remaining &= ~(1 << v)
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
            missing = []
            for u in iter_bits(nb):
                for w in iter_bits(nb & ~adj[u] & ~((1 << (u + 1)) - 1)):
                    missing.append((u, w))
            d = nb.bit_count()
            if not missing:
                low = max(low, d)
            elif d > low or not set.intersection(*(set(p) for p in missing)):
                # Almost simplicial needs a vertex common to every missing pair.
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
    """
    failed: set[int] = set()
    order: list[int] = []

    def rec(remaining: int, fadj: list[int]) -> bool:
        if remaining.bit_count() <= k + 1:
            order.extend(iter_bits(remaining))
            return True
        cands = []
        for v in iter_bits(remaining):
            rs = fadj[v] & remaining
            d = rs.bit_count()
            if d > k:
                continue
            # Eliminating a vertex whose fill neighborhood is a clique is
            # always safe, so commit to it without trying alternatives.
            if all(rs & ~fadj[u] == 1 << u for u in iter_bits(rs)):
                cands = [(d, v)]
                break
            cands.append((d, v))
        for _, v in sorted(cands):
            child = remaining & ~(1 << v)
            if child in failed:
                continue
            filled = fadj.copy()
            _eliminate(filled, v, child)
            order.append(v)
            if rec(child, filled):
                return True
            order.pop()
        failed.add(remaining)
        return False

    return order if rec(alive, fadj) else None


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
