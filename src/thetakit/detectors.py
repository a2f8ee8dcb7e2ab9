"""Exact desk-scale searches for the induced substructures the library names.

Every search is deterministic: candidate vertices are tried in ascending
order, so reruns return the same witness.  "None" always means exhaustion of
the whole search space within the declared caps; when a host is too large for
the exhaustive guarantee the search raises :class:`CapExceeded` instead of
silently degrading.

Witnesses are validated by standalone functions that recheck definitions from
scratch; the searches never call them and the validators never reuse search
state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache

from .generators import complete_bipartite, cycle_graph, line_graph, prism_graph, subdivide, wall
from .graphs import (
    Graph,
    PathFamily,
    _reach,
    _vertex_mask,
    are_anticomplete,
    is_induced_path,
    is_stable_set,
    iter_bits,
    iter_induced_paths,
    mask_of,
    max_disjoint_paths,
    neighborhood_mask,
    path_family_violation,
)

THETA_PRISM_CAP = 64
WALL_LINE_CAP = 32
CONSTELLATION_CAP = 24
TREE_SEARCH_CAP = 32


class CapExceeded(RuntimeError):
    """Raised when an exhaustive search would exceed its declared cap."""

    def __init__(self, op: str, size: int, cap: int):
        super().__init__(f"{op}: instance size {size} exceeds the cap {cap}")
        self.op = op
        self.size = size
        self.cap = cap


def check_cap(op: str, size: int, cap: int | None) -> None:
    """Raise :class:`CapExceeded` for op when size is above a cap (None: no cap)."""
    if cap is not None and size > cap:
        raise CapExceeded(op, size, cap)


@dataclass(frozen=True)
class Embedding:
    """A map from pattern vertices to host vertices, carrying its pattern.

    ``phi[i]`` is the host vertex for pattern vertex i.  Validity means phi is
    injective and the image induces an exact copy: pattern edges map to host
    edges and pattern non-edges to host non-edges.
    """

    pattern: Graph
    phi: tuple[int, ...]


def embedding_violation(host: Graph, emb: Embedding) -> str | None:
    """The first broken embedding invariant, or None if the embedding is valid."""
    pat, phi = emb.pattern, emb.phi
    if len(phi) != pat.n:
        return "map does not cover the pattern's vertices"
    if len(set(phi)) != len(phi):
        return "map is not injective"
    if not host.has_vertices(phi):
        return "map leaves the host's vertex range"
    for i in range(pat.n):
        for j in range(i + 1, pat.n):
            if pat.has_edge(i, j) != host.has_edge(phi[i], phi[j]):
                return f"pattern pair ({i}, {j}) is not reproduced exactly"
    return None


def find_induced(host: Graph, pattern: Graph, cap: int | None = None) -> Embedding | None:
    """The lexicographically least induced embedding of pattern in host.

    Pattern vertices are assigned in index order, host candidates tried
    ascending, so the returned ``phi`` is minimal in tuple order over all
    valid embeddings.  Backtracking with forward checking: every unassigned
    pattern vertex keeps a mask of the host vertices that can still play it,
    starting from those of at least its degree.  Assigning a host vertex v
    intersects each later mask with v's neighbourhood or non-neighbourhood,
    as the pattern edge demands, and drops v, so the candidates of the next
    vertex already agree with the whole partial map.  A branch ends as soon
    as a mask empties, which prunes only branches without a completion.
    None is exhaustive.
    """
    check_cap("find_induced", host.n, cap)
    p, n = pattern.n, host.n
    if p > n:
        return None
    if p == 0:
        return Embedding(pattern, ())
    full = host.full_mask
    hadj, padj = host.adj, pattern.adj
    # at_least[d] holds the host vertices of degree at least d, the only ones
    # that can play a pattern vertex of degree d.
    at_least = [0] * (n + 1)
    for v in range(n):
        at_least[hadj[v].bit_count()] |= 1 << v
    for d in range(n - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    phi: list[int] = []

    def extend(k: int, cand: list[int]) -> bool:
        if k == p:
            return True
        edges = padj[k]
        for v in iter_bits(cand[k]):
            nbr = hadj[v]
            non = full & ~nbr & ~(1 << v)
            nxt = cand.copy()
            for j in range(k + 1, p):
                m = nxt[j] & (nbr if edges >> j & 1 else non)
                if not m:
                    break
                nxt[j] = m
            else:
                phi.append(v)
                if extend(k + 1, nxt):
                    return True
                phi.pop()
        return False

    if extend(0, [at_least[d.bit_count()] for d in padj]):
        return Embedding(pattern, tuple(phi))
    return None


@dataclass(frozen=True)
class ThetaWitness:
    """Two nonadjacent branch vertices joined by three anticomplete paths."""

    x: int
    y: int
    paths: tuple[tuple[int, ...], ...]


def theta_witness_violation(g: Graph, w: ThetaWitness) -> str | None:
    """The first broken theta invariant, or None if the witness is valid."""
    if len(w.paths) != 3:
        return "a theta needs exactly three paths"
    bad = path_family_violation(g, PathFamily(w.x, w.y, w.paths))
    if bad is not None:
        return bad
    interiors = [mask_of(p[1:-1]) for p in w.paths]
    # Every interior is nonempty: the family check has rejected a path
    # (x, y), since x and y are nonadjacent.
    for i in range(3):
        for j in range(i + 1, 3):
            if not are_anticomplete(g, interiors[i], interiors[j]):
                return f"interiors of paths {i} and {j} see each other"
    return None


def _legs(g: Graph, hub: int, ends, allowed: int, keep: int):
    """Yield tuples of induced paths from hub, one to each of ends in turn.

    Each path's interior lies in ``allowed``.  A later path avoids the earlier
    paths' vertices outside ``keep`` and every neighbor of those vertices, so
    the legs are pairwise anticomplete away from ``keep``; a path whose
    blocked set already holds a later end is skipped.  A path to the same end
    as the path before it leaves the hub through a higher neighbour than
    that path did, or is the edge to that end.  Tuples come out in
    depth-first order, each path's candidates in ``iter_induced_paths`` order.

    That last rule skips tuples but never changes the first one.  Two
    consecutive legs to the same end may swap places: the later one is a
    valid leg one level up, and the earlier one still fits in what the swap
    leaves, since the blocked sets are symmetric.  An induced path from the
    hub meets no hub neighbour but its first, and ``iter_induced_paths``
    yields a path through a lower first vertex earlier.  So in the first
    tuple of the unrestricted search these first vertices already ascend.
    """

    def rec(k: int, allowed: int, prev: int):
        # prev is the previous path's first vertex after the hub.
        if k == len(ends):
            yield ()
            return
        later = mask_of(ends[k + 1:]) & ~keep
        here = allowed
        if k and ends[k] == ends[k - 1]:
            here &= ~(g.adj[hub] & ((2 << prev) - 1))
        for p in iter_induced_paths(g, hub, ends[k], here):
            rest = mask_of(p) & ~keep
            block = rest | neighborhood_mask(g, rest)
            if block & later:
                continue
            for tail in rec(k + 1, allowed & ~block, p[1]):
                yield (p,) + tail

    return rec(0, allowed, -1)


def _first_stable(adj, avail: int, size: int, found, cur: tuple[int, ...] = (), common: int | None = None):
    """The first non-None found(cur + T), T ascending in ``avail`` (which misses cur and its neighbours)
    and cur + T a stable set of ``size``, with the tuples T in lexicographic order; None if none.
    With ``common`` given, a partial set whose common neighbourhood inside ``common`` keeps fewer than
    ``size`` vertices is skipped with every extension, since extensions only shrink that neighbourhood."""
    if len(cur) == size:
        return found(cur)
    while avail.bit_count() + len(cur) >= size:
        v = (avail & -avail).bit_length() - 1
        avail &= avail - 1
        nxt = None if common is None else common & adj[v]
        if nxt is not None and nxt.bit_count() < size:
            continue
        if (got := _first_stable(adj, avail & ~adj[v], size, found, cur + (v,), nxt)) is not None:
            return got
    return None


def _is_claw_centre(adj, v: int) -> bool:
    """True iff v has three pairwise nonadjacent neighbours."""
    return _first_stable(adj, adj[v], 3, bool) is not None


def find_theta(g: Graph, cap: int | None = THETA_PRISM_CAP) -> ThetaWitness | None:
    """Search for a theta: branch pairs ascending, then paths depth-first.

    Both branch vertices are centres of induced claws: the three paths have
    interiors, pairwise anticomplete, so their first interior vertices are
    three pairwise nonadjacent neighbours of x, and their last ones of y.
    Only such pairs are tried, which skips just the pairs whose leg search
    finds nothing, so claw-free hosts (line graphs among them) end at once.
    The three x-y paths come from the leg search that three_in_a_tree's
    spiders share: each later path avoids the interiors already chosen and
    their neighbors, so any completed triple is a theta by construction.
    None is exhaustive.
    """
    check_cap("find_theta", g.n, cap)
    full, adj = g.full_mask, g.adj
    claws = mask_of(v for v in range(g.n) if _is_claw_centre(adj, v))
    for x in iter_bits(claws):
        for y in iter_bits(claws & ~adj[x] >> (x + 1) << (x + 1)):
            ends = (1 << x) | (1 << y)
            for paths in _legs(g, x, (y, y, y), full & ~ends, ends):
                return ThetaWitness(x, y, paths)
    return None


def _triangles(g: Graph):
    """Yield the triangles of g as ascending triples, in lexicographic order."""
    adj = g.adj
    for a in range(g.n):
        near = adj[a]
        for b in iter_bits(near >> (a + 1) << (a + 1)):
            third = near & adj[b] >> (b + 1) << (b + 1)
            if third:
                for c in iter_bits(third):
                    yield a, b, c


_PERMS = tuple(itertools.permutations(range(3)))


@cache
def _automorphisms(chains):
    """The branch vertices of the skeleton with these chains in placement
    order, its automorphisms and the ordering conditions that break them.

    An automorphism is a pair: the images of the branch vertices, aligned with
    the order, and the chain map, chain i to chain map[i], which joins the
    images of chain i's ends with the same m.  Parallel chains of one m map in
    index order; the line-graph search sorts interchangeable chains itself.
    They are found by backtracking over the order: a branch vertex maps only
    where its chains to the vertices already mapped go to chains of the same
    m, so one with a mapped neighbour has at most three candidates, and the
    search never tries every permutation.

    The conditions (Grochow and Kellis, RECOMB 2007) are pairs (k, later):
    position k is the first whose branch vertex moves under the group left,
    and ``later`` holds the positions of the other vertices of its orbit.  The
    triangle at k must have a lower index than those at ``later``.  The group
    left passes to the stabiliser of k, until only the identity is left.
    Every orbit of injective placements has exactly one member that meets
    all the conditions.
    """
    order = list(dict.fromkeys(b for u, v, _ in chains for b in (u, v)))
    pos = {b: k for k, b in enumerate(order)}
    joins = {}  # branch vertex -> {neighbour: the chains joining them, ascending}
    for i, (u, v, _) in enumerate(chains):
        joins.setdefault(u, {}).setdefault(v, []).append(i)
        joins.setdefault(v, {}).setdefault(u, []).append(i)

    def ms(a, b):
        return sorted(chains[i][2] for i in joins[a].get(b, ()))

    image, autos = {}, []

    def extend(k: int) -> None:
        if k == len(order):
            cmap = []
            for i, (u, v, m) in enumerate(chains):
                mine = [j for j in joins[u][v] if chains[j][2] == m]
                theirs = [j for j in joins[image[u]][image[v]] if chains[j][2] == m]
                cmap.append(theirs[mine.index(i)])
            autos.append((tuple(image[b] for b in order), tuple(cmap)))
            return
        b = order[k]
        mapped = [a for a in joins[b] if a in image]
        used = set(image.values())
        for x in joins[image[mapped[0]]] if mapped else order:
            if x not in used and all(ms(b, a) == ms(x, image[a]) for a in mapped):
                image[b] = x
                extend(k + 1)
                del image[b]

    extend(0)
    conditions, group = [], autos
    while len(group) > 1:
        k = next(k for k in range(len(order)) if any(s[k] != order[k] for s, _ in group))
        later = sorted({pos[s[k]] for s, _ in group} - {k})
        conditions.append((k, tuple(later)))
        group = [(s, c) for s, c in group if s[k] == order[k]]
    return tuple(order), tuple(autos), tuple(conditions)


def _least_line_graph(g: Graph, chains, pattern) -> tuple[Embedding | None, int]:
    """The least induced line graph of a subdivided skeleton in g, embedded.

    Chain i = (u, v, m) joins branch vertices u != v, each the end of exactly
    three chains, and has at least m >= 1 edges.  By Whitney's theorem the
    line graph of a subdivision is a host triangle per branch vertex and, per
    chain, an induced path of l_i >= m vertices between corners of its ends'
    triangles (one vertex: a corner both share); ``pattern(ls)`` builds it.
    Returns the embedding that trying every pattern with find_induced in
    ascending order of (sum(ls), *ls) returns first, or None, and the number
    of find_induced calls made.

    Too few host triangles rule out every pattern; else the unsubdivided one
    is tried, then branch vertices take triangles in turn, with every
    bijection of chains to corners, and each chain with both ends placed is
    linked by ``iter_induced_paths``.  Placed vertices see exactly their
    placed pattern neighbours, save pairs a later choice settles: a new corner
    and its chain's far corner (adjacent iff l_i = 2), and far corners of
    chains with m = 1 toward one branch vertex (adjacent iff both join its
    triangle).  Paths stay within what the least key so far leaves, unused
    triangles must suffice for the branch vertices left (``spare``; paths keep
    off them when just enough are left), and equal chains take ascending
    corners where first placed, their lengths sorted in the key.  One more
    find_induced call embeds the least key.

    The skeleton's automorphisms (``_automorphisms``) map placements onto
    placements, and each orbit is searched once.  A triangle placement is
    dropped when it breaks an ordering condition whose two branch vertices
    are both placed, or when fewer untaken triangles with an index above a
    placed leader's remain than that leader's partners still to place.  A
    leaf records the least key over every automorphism's chain map.  An
    embedding of pattern(ls) also embeds the pattern whose lengths a chain
    map permutes, so feasible keys are closed under the maps; every orbit
    keeps the member that meets the conditions, and with it each of its
    keys.  So the least key, the embedding and the call count are
    those of the search without the conditions.

    One test drops a triangle placement before the search recurses into it.
    It drops only branches that record no key, so the least key, the
    embedding and the call count are those of the search without it.  It
    reads the next level's ``spare``, taken once per triangle with all three
    corners open, and only where this level's finds exactly enough:

    - A triangle T placed here lies in this level's usable set, and
      T & placed <= share <= opened.  So the next level's usable set is this
      one, T is one of its triangles (unless already taken), and their count
      falls by at most one as the need falls by one: more than enough stays
      more than enough (``spare`` 0), and exactly enough never turns too few.
    - A chain to link from new corner c to far corner z needs a c-z path
      whose interior lies in the region its link searches, and
      iter_induced_paths yields one whenever such a path exists (a shortest
      one is induced).  That region avoids the placed vertices and the
      triangles spare returns, with their neighbours.  Deeper in the
      recursion more vertices are placed, and spare returns None (no link
      is searched), the triangles found here, or any triangles where this
      call found more than enough; so the region only shrinks.  If a
      breadth-first search from c over the region that this placement and
      the next level's spare give reaches no neighbour of z, no link of that
      chain yields, and every bijection giving the chain corner c is
      skipped.  The search stops at the first neighbour of z it reaches,
      and runs once per (end, corner) pair and triangle, since the region
      depends on both corners.

    Whether an end can take a corner, with what length and link, does not
    depend on the other two ends.  So each (end, corner) pair of a triangle
    is checked once, into a small table, when a bijection first needs it,
    and the bijections only combine table entries.
    """
    adj, full = g.adj, g.full_mask
    # The chain ends (chain, side) at each branch vertex.
    ends = {b: [(i, s) for i, c in enumerate(chains) for s in (0, 1) if c[s] == b]
            for u, v, _ in chains for b in (u, v)}
    tris = [(t, mask_of(t)) for t in _triangles(g)]
    if len(tris) < len(ends):
        return None, 0
    least = [m for _, _, m in chains]
    if (emb := find_induced(g, pattern(least))) is not None:
        return emb, 1
    order, autos, conditions = _automorphisms(chains)
    at = [-1] * len(order)  # triangle index per placed position
    alike = [[j for j, d in enumerate(chains) if d == c] for c in chains]  # interchangeable chains
    corner = [[-1, -1] for _ in chains]  # host vertex at each end of each chain
    lens = least.copy()  # path lengths where linked, lower bounds elsewhere
    best = (g.n + 1,)  # above the key of every pattern in g
    memo = {}  # neighborhood_mask by mask: the same few masks recur across triangles

    def around(m: int) -> int:
        r = memo.get(m)
        if r is None:
            r = memo[m] = neighborhood_mask(g, m)
        return r

    def spare(k: int, placed: int, opened: int) -> int | None:
        # Triangles other than those placed at order[:k] that order[k:] can
        # take, whose new corners see no placed vertex but open corners: None
        # if too few, their vertices if exactly enough, else 0.
        usable = full & ~placed & ~around(placed & ~opened) | opened
        need, left, taken = len(order) - k, 0, at[:k]
        for j, (_, t) in enumerate(tris):
            if not t & ~usable and j not in taken:
                need -= 1
                if need < 0:
                    return 0
                left |= t
        return None if need else left

    def grow(k: int, todo, placed: int, opened: int) -> None:
        # Link the chains in todo, then place order[k:], keeping the least key
        # in best.  opened holds the corners of chains not yet linked.
        nonlocal best
        if k == len(order) and not todo:
            # The maps form a group, so reading lens through each covers every image.
            for _, cmap in autos:
                ls = [lens[j] for j in cmap]
                key = [sorted(ls[j] for j in alike[i])[alike[i].index(i)] for i in range(len(chains))]
                best = min(best, (sum(key), *key))
            return
        left = spare(k, placed, opened)
        if left is None or sum(lens) > best[0]:
            return
        if todo:
            (i, c, z), rest = todo[0], todo[1:]
            pair = (1 << c) | (1 << z)
            block = placed & ~pair | left
            allowed = full & ~placed & ~block & ~around(block)
            low = lens[i]
            for p in iter_induced_paths(g, c, z, allowed, best[0] - sum(lens) + low):
                if len(p) >= least[i]:
                    lens[i] = len(p)
                    grow(k, rest, placed | mask_of(p[1:-1]), opened & ~pair)
                    lens[i] = low
            return
        b = order[k]
        far = {i: corner[i][1 - s] for i, s in ends[b] if corner[i][1 - s] >= 0}
        fmask = mask_of(far.values())
        # Far corners that see each other across triangles must both join b's;
        # a new corner of an m = 1 chain may see such far corners of its far end.
        must, defer, seen = 0, {}, fmask
        for i, s in ends[b]:
            w = chains[i][1 - s]
            if i in far and adj[far[i]] & fmask & ~mask_of(corner[j][t] for j, t in ends[w]):
                must |= 1 << far[i]
            if i not in far and least[i] <= 1:
                defer[i] = mask_of(corner[j][1 - t] for j, t in ends[w] if corner[j][1 - t] >= 0 and least[j] <= 1)
                seen |= defer[i]
        share = mask_of(z for i, z in far.items() if least[i] <= 1)
        region = full & ~placed & ~around(placed & ~seen) | share
        # Corner positions per end; the triangle is ascending, so equal chains
        # take ascending corners exactly when they take ascending positions.
        ascending = [(x, y) for x, (i, _) in enumerate(ends[b]) for y, (j, _) in enumerate(ends[b])
                     if i < j and i not in far and j in alike[i]]
        perms = [p for p in _PERMS if all(p[x] < p[y] for x, y in ascending)]
        # The triangle index must exceed those of this position's leaders; a
        # leader placed by now needs enough untaken triangles above its own
        # for its partners still to place.
        low = max((at[a] for a, later in conditions if k in later), default=-1)
        pending = [(a, sum(w > k for w in later)) for a, later in conditions if a <= k < later[-1]]
        saved = lens.copy()
        # The link region of new corner c and far corner z, as the link step
        # builds it from placed | tmask and after, avoids those vertices and
        # the neighbours of all but c and z.  Only corners in tmask or fmask
        # can be c or z, so the neighbours of the other placed vertices
        # (fence) serve every triangle, and free every (c, z) of one triangle.
        fence = around(placed & ~fmask)

        def fit(i: int, c: int, tmask: int, free: int):
            # Whether chain i's end at b can take corner c of tmask: None if
            # not, else (c, done bits, the chain's length or 0 if unsettled,
            # the link to search or None).
            z = far.get(i, -1)
            zbit = 1 << z if z >= 0 else 0
            if c == z:  # a shared corner, so l_i = m = 1
                return c, zbit, 0, None
            if (placed >> c & 1 or zbit & must or adj[c] & placed & ~tmask & ~defer.get(i, 0) & ~zbit
                    or adj[c] & zbit and least[i] > 2):
                return None
            if adj[c] & zbit:
                return c, (1 << c) | zbit, 2, None
            if not zbit:
                return c, 0, 0, None
            # Breadth-first from c, stopping at the first neighbour of z.
            within = free & ~around((tmask | fmask) & ~((1 << c) | zbit))
            target = adj[z] & within
            if _reach(adj, 1 << c, within, target) & target:
                return c, 0, max(least[i], 3), (i, c, z)
            return None

        for ti, (tri, tmask) in enumerate(tris):
            if ti <= low or tmask & ~region:
                continue
            at[k] = ti
            if any(len(tris) - 1 - at[a] - sum(x > at[a] for x in at[:k + 1]) < need
                   for a, need in pending):
                continue
            after = left and spare(k + 1, placed | tmask, opened | tmask)
            free = full & ~placed & ~tmask & ~after & ~fence & ~around(after)
            table = [[False] * 3 for _ in range(3)]  # end, corner position -> fit, once computed
            for perm in perms:
                picks = []
                for (i, _), p, row in zip(ends[b], perm, table):
                    got = row[p]
                    if got is False:
                        got = row[p] = fit(i, tri[p], tmask, free)
                    if got is None:
                        break
                    picks.append(got)
                else:
                    todo, done = [], 0
                    for (i, s), (c, bits, length, link) in zip(ends[b], picks):
                        corner[i][s] = c
                        done |= bits
                        if length:
                            lens[i] = length
                        if link:
                            todo.append(link)
                    grow(k + 1, todo, placed | tmask, (opened | tmask) & ~done)
                    for i, s in ends[b]:
                        corner[i][s] = -1
                    lens[:] = saved

    grow(0, [], 0, 0)
    return (None, 1) if len(best) == 1 else (find_induced(g, pattern(best[1:])), 2)


def find_prism(g: Graph, cap: int | None = THETA_PRISM_CAP) -> Embedding | None:
    """Search for an induced prism: the least shape, embedded by find_induced.

    A prism is the line graph of a theta: triangles {a1, a2, a3} and {b1, b2,
    b3}, no edge a_i-b_j for i != j, and induced a_i-b_i paths of l_i >= 2
    vertices whose interiors are pairwise anticomplete and see no a_j or b_j
    for j != i.  The wall search's engine, on the skeleton theta(2, 2, 2),
    returns find_induced's first hit over prism_graph(l1, l2, l3), l1 <= l2
    <= l3, in ascending order of (l1 + l2 + l3, l1, l2, l3); None if none.
    """
    check_cap("find_prism", g.n, cap)
    return _least_line_graph(g, ((0, 1, 2),) * 3, lambda ls: prism_graph(*ls))[0]


def _largest(adj, within: int, flip: int) -> tuple[int, ...]:
    """The first largest clique (flip = 0) or stable set (flip = -1) of G[within], ascending:
    choosing v keeps the candidates in ``adj[v] ^ flip``, so no complement graph is built."""
    best: tuple[int, ...] = ()

    def expand(cur: list[int], cand: int) -> None:
        nonlocal best
        if not cand:
            if len(cur) > len(best):
                best = tuple(cur)
            return
        while cand:
            if len(cur) + cand.bit_count() <= len(best):
                return
            v = cand & -cand
            cand ^= v
            v = v.bit_length() - 1
            cur.append(v)
            expand(cur, cand & (adj[v] ^ flip))
            cur.pop()

    expand([], within)
    return best


def clique_number(g: Graph, within: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact clique number of G, or of G[within], with the first maximum clique in ascending order."""
    best = _largest(g.adj, g.full_mask if within is None else _vertex_mask(g, within), 0)
    return len(best), best


def find_biclique(g: Graph, s: int, cap: int | None = THETA_PRISM_CAP, within: int | None = None) -> Embedding | None:
    """Search G, or G[within], for an induced K_{s,s}: a stable side, then a stable common side.

    The first side is grown over stable sets in ascending order; the second
    is a stable s-subset of its common neighborhood, so the copy is induced.
    ``phi`` (first side, then second, each ascending) is the lexicographically
    least induced embedding of complete_bipartite(s, s).  The cap counts the
    vertices searched: those of ``within``, or all of g.
    """
    if s < 1:
        raise ValueError("side size must be positive")
    within = g.full_mask if within is None else _vertex_mask(g, within)
    check_cap("find_biclique", within.bit_count(), cap)

    def second_side(a: tuple[int, ...]) -> Embedding | None:
        common = within
        for v in a:
            common &= g.adj[v]
        return _first_stable(g.adj, common, s, lambda b: Embedding(complete_bipartite(s, s), a + b))

    return _first_stable(g.adj, within, s, second_side, common=within)


@dataclass(frozen=True)
class ConstellationWitness:
    """Stable centers plus pairwise anticomplete path components, all covered."""

    centers: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]


def constellation_witness_violation(
    g: Graph, w: ConstellationWitness, s: int | None = None, l: int | None = None
) -> str | None:
    """The first broken constellation invariant, or None if the witness is valid."""
    if s is not None and len(w.centers) != s:
        return f"needs exactly {s} centers"
    if l is not None and len(w.paths) != l:
        return f"needs exactly {l} path components"
    if len(set(w.centers)) != len(w.centers):
        return "centers repeat"
    if not g.has_vertices(w.centers):
        return "centers outside the graph"
    cmask = mask_of(w.centers)
    if not is_stable_set(g, cmask):
        return "centers are not stable"
    masks = []
    for i, p in enumerate(w.paths):
        if not is_induced_path(g, p):
            return f"component {i} is not an induced path"
        m = mask_of(p)
        if m & cmask:
            return f"component {i} meets the centers"
        masks.append(m)
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if not are_anticomplete(g, masks[i], masks[j]):
                return f"components {i} and {j} are not anticomplete"
    for c in w.centers:
        for i, m in enumerate(masks):
            if not g.adj[c] & m:
                return f"center {c} has no neighbor in component {i}"
    return None


def find_constellation(
    g: Graph, s: int, l: int, cap: int | None = CONSTELLATION_CAP
) -> ConstellationWitness | None:
    """Exhaustive search for an induced (s, l)-constellation.

    Stable center sets are tried in ascending order; component paths are
    chosen with strictly increasing minimum vertex from a region that shrinks
    by each chosen path's closed neighborhood, which makes the components
    pairwise anticomplete and the search free of permuted duplicates.  Before
    each choice the region drops its vertices up to the last minimum and
    keeps only the components of the rest that meet every center's
    neighborhood: a path seen by every center lies in such a component, and
    components only split as the region shrinks, so no dropped vertex could
    serve a later path either.

    While more paths must follow, a path prefix P is dropped with everything
    that extends it when no component of the region less N[P] meets every
    center's neighborhood.  Each extension Q of P, P itself included, has
    N[Q] containing N[P], so each component of the region less N[Q] lies in
    one of the region less N[P], and is seen by every center only if that
    one is.  After choosing Q the next region would therefore be empty and
    the branch would record nothing.  Both cuts skip only branches that find
    nothing, so the witnesses are those of the search without them.
    """
    if s < 1 or l < 1:
        raise ValueError("need at least one center and one component")
    check_cap("find_constellation", g.n, cap)
    full = g.full_mask

    def seen_by_all(region: int, centers: tuple[int, ...]) -> int:
        # The union of the components of G[region] that meet every center's
        # neighborhood.  Only those meeting the first center's neighborhood
        # can qualify, so only they are flooded.
        seeds = g.adj[centers[0]] & region
        out = 0
        while seeds:
            comp = _reach(g.adj, seeds & -seeds, region)
            if covers(comp, centers):
                out |= comp
            seeds &= ~comp
        return out

    def paths_in(region: int, centers: tuple[int, ...], more: bool):
        # Each induced path once, from its smaller endpoint; singletons too.
        # Preorder from each start ascending, on an explicit stack as in
        # iter_induced_paths, so a long path costs no generator frame per
        # vertex: each path's extensions go on in descending order and so
        # come off ascending; they avoid every neighbour of the path so far.
        # ``closed`` is the path's closed neighbourhood N[path].
        adj = g.adj
        for v in iter_bits(region):
            stack = [((v,), 1 << v)]
            while stack:
                path, banned = stack.pop()
                last = path[-1]
                closed = banned | adj[last]
                if more and not seen_by_all(region & ~closed, centers):
                    continue
                if len(path) == 1 or path[0] < last:
                    yield path
                cand = adj[last] & region & ~banned
                while cand:
                    c = cand.bit_length() - 1
                    cand ^= 1 << c
                    stack.append((path + (c,), closed))

    def covers(path_mask: int, centers: tuple[int, ...]) -> bool:
        return all(g.adj[c] & path_mask for c in centers)

    def pick_paths(centers, region: int, chosen: list[tuple[int, ...]], floor: int):
        if len(chosen) == l:
            return ConstellationWitness(centers, tuple(chosen))
        region = seen_by_all(region & ~((1 << (floor + 1)) - 1), centers)
        for p in paths_in(region, centers, len(chosen) + 1 < l):
            pm = mask_of(p)
            if not covers(pm, centers):
                continue
            chosen.append(p)
            got = pick_paths(centers, region & ~pm & ~neighborhood_mask(g, pm), chosen, min(p))
            if got is not None:
                return got
            chosen.pop()
        return None

    return _first_stable(g.adj, full, s, lambda centers: pick_paths(centers, full & ~mask_of(centers), [], -1))


def three_in_a_tree(
    g: Graph, z, cap: int | None = TREE_SEARCH_CAP, within: int | None = None
) -> tuple[int, ...] | None:
    """An induced tree of G, or of G[within], containing at least three vertices of z, or None.

    z must be a stable set of at least three vertices of ``within``, and the
    cap counts the vertices searched: those of ``within``, or all of g.  A
    minimal such tree is a spider (Chudnovsky–Seymour, Combinatorica 2010):
    a hub joined by induced legs, pairwise anticomplete away from it, to each
    of three z-vertices but itself; a path is the spider whose hub is its
    middle z-vertex.  For each triple (a, b, c) of z in ascending order, hubs
    c, b, a and then every other vertex ascending are tried with the leg
    search find_theta shares, so None is exhaustive.  A hub's legs start at
    distinct, pairwise nonadjacent vertices of ``within`` (a leg of one edge
    at its z-vertex), so a hub in {a, b, c} needs two neighbours in G[within]
    and any other hub must be the centre of an induced claw of G[within]; the
    other hubs have no legs to find and are skipped, each claw test made once
    per call.
    """
    zs = tuple(sorted(set(z)))
    if len(zs) < 3:
        raise ValueError("needs at least three vertices")
    within = g.full_mask if within is None else _vertex_mask(g, within)
    zmask = _vertex_mask(g, zs)
    if zmask & ~within:
        raise ValueError("the set must lie in the search area")
    if not is_stable_set(g, zmask):
        raise ValueError("the set must be stable")
    check_cap("three_in_a_tree", within.bit_count(), cap)
    adj = g.adj if within == g.full_mask else tuple(m & within for m in g.adj)
    claw = cache(lambda v: _is_claw_centre(adj, v))
    for a, b, c in itertools.combinations(zs, 3):
        base = within & ~mask_of((a, b, c))
        for hub in itertools.chain((c, b, a), iter_bits(base)):
            ends = tuple(t for t in (a, b, c) if t != hub)
            if adj[hub].bit_count() < len(ends) or len(ends) == 3 and not claw(hub):
                continue
            for legs in _legs(g, hub, ends, base & ~(1 << hub), 1 << hub):
                return tuple(sorted({hub}.union(*legs)))
    return None


def induced_tree_violation(g: Graph, z, tree, within: int | None = None) -> str | None:
    """The first broken property of a three_in_a_tree answer, or None if ``tree`` is one.

    Every vertex of ``tree`` must lie in g and in ``within`` (all of g when
    None), the vertices must be distinct and induce a tree, and at least
    three of them must lie in z.
    """
    area = g.full_mask if within is None else within
    for v in tree:
        if not 0 <= v < g.n:
            return f"vertex {v} is outside the graph"
        if not area >> v & 1:
            return f"vertex {v} is outside the search area"
    m = mask_of(tree)
    edges = sum((g.adj[v] & m).bit_count() for v in iter_bits(m)) // 2
    if not m or m.bit_count() != len(tree) or edges != len(tree) - 1 or _reach(g.adj, m & -m, m) != m:
        return "the vertices do not induce a tree"
    if len(set(z).intersection(tree)) < 3:
        return "the tree holds fewer than three vertices of z"
    return None


@dataclass(frozen=True)
class WallLineReport:
    """Outcome of the exhaustive search for line graphs of wall subdivisions:
    ``excluded`` is True exactly when ``embedding`` is None, ``partial`` is
    always False, and ``patterns_tried`` counts the find_induced calls made."""

    excluded: bool
    r: int
    host_n: int
    patterns_tried: int
    partial: bool
    reason: str
    embedding: Embedding | None = None


@lru_cache(maxsize=None)
def _wall_chains(r: int) -> tuple[Graph, tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    # wall(r); its chains (u, v, edges), maximal runs of edges between branch vertices,
    # by first branch vertex and first step; and each chain's first edge in w.edges().
    w = wall(r)
    chains, firsts, seen = [], [], set()
    for u in (v for v in range(w.n) if w.degree(v) == 3):
        for x in w.neighbors(u):
            prev, cur, k = u, x, 1
            while w.degree(cur) == 2:
                prev, cur, k = cur, next(y for y in w.neighbors(cur) if y != prev), k + 1
            if (u, x) not in seen:
                seen.add((cur, prev))
                chains.append((u, cur, k))
                firsts.append(w.edges().index((min(u, x), max(u, x))))
    return w, tuple(chains), tuple(firsts)


def excludes_wall_line_graphs(
    g: Graph,
    r: int,
    cap: int | None = WALL_LINE_CAP,
    pattern_budget: int = 2000,
) -> WallLineReport:
    """Exact test that no line graph of a subdivision of wall(r) embeds in g.

    From r = 3 on, find_prism's engine runs on the wall's chains (maximal
    runs of edges between branch vertices, by first branch vertex and first
    step) and returns the embedding that trying line_graph(subdivide(wall(r),
    counts)), each chain's added vertices on its first edge, ascending by
    total and then by chain lengths, with find_induced returns first.  wall(1)
    and wall(2) are the 6-cycle, so cycles of length 6 and more are tried in
    ascending length.  ``pattern_budget`` has no effect; it stays only because
    the benchmark corpus (``perfbench/corpus.py``) passes it.
    """
    if r < 1:
        raise ValueError("wall size must be positive")
    check_cap("excludes_wall_line_graphs", g.n, cap)
    if r <= 2:
        emb = next(filter(None, (find_induced(g, cycle_graph(k)) for k in range(6, g.n + 1))), None)
        tried = emb.pattern.n - 5 if emb else max(g.n - 5, 0)
    else:
        w, chains, firsts = _wall_chains(r)

        def pattern(ls):
            added = {e: l - k for e, (_, _, k), l in zip(firsts, chains, ls)}
            return line_graph(subdivide(w, [added.get(e, 0) for e in range(w.m)]))

        emb, tried = _least_line_graph(g, chains, pattern)
    return WallLineReport(
        excluded=emb is None, r=r, host_n=g.n, patterns_tried=tried, partial=False, embedding=emb,
        reason="pattern found" if emb else "no pattern embeds" if tried else
        "host is triangle-free or has fewer triangles than the wall has branch vertices",
    )


def max_path_fan(g: Graph, y: int, z) -> int:
    """Maximum number of y-to-z paths pairwise disjoint except at y.

    Paths are plain (not necessarily induced) and must end at distinct
    vertices of z, which disjointness outside y already forces.  Computed
    by the package's one max-flow, :func:`~thetakit.graphs.max_disjoint_paths`,
    from the neighbours of y to z with y itself removed.
    """
    if not 0 <= y < g.n:
        raise ValueError("the hub must be a vertex of the graph")
    zs = sorted(set(z))
    if not g.has_vertices(zs):
        raise ValueError("the target set must lie in the graph")
    if y in zs:
        raise ValueError("the hub must lie outside the target set")
    return max_disjoint_paths(g, g.adj[y], mask_of(zs), g.full_mask & ~(1 << y))
