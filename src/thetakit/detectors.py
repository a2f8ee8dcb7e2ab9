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
from functools import lru_cache

from .generators import complete_bipartite, cycle_graph, line_graph, prism_graph, subdivide, wall
from .graphs import (
    Graph,
    PathFamily,
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
    if any(not 0 <= v < host.n for v in phi):
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
    for i in range(3):
        if not interiors[i]:
            return f"path {i} has no interior, so its length is below 2"
        for j in range(i + 1, 3):
            if not are_anticomplete(g, interiors[i], interiors[j]):
                return f"interiors of paths {i} and {j} see each other"
    return None


def _legs(g: Graph, hub: int, ends, allowed: int, keep: int):
    """Yield tuples of induced paths from hub, one to each of ends in turn.

    Each path's interior lies in ``allowed``.  A later path avoids the earlier
    paths' vertices outside ``keep`` and every neighbor of those vertices, so
    the legs are pairwise anticomplete away from ``keep``; a path whose
    blocked set already holds a later end is skipped.  Tuples come out in
    depth-first order, each path's candidates in ``iter_induced_paths`` order.
    """

    def rec(k: int, allowed: int):
        if k == len(ends):
            yield ()
            return
        later = mask_of(ends[k + 1:]) & ~keep
        for p in iter_induced_paths(g, hub, ends[k], allowed):
            rest = mask_of(p) & ~keep
            block = rest | neighborhood_mask(g, rest)
            if block & later:
                continue
            for tail in rec(k + 1, allowed & ~block):
                yield (p,) + tail

    return rec(0, allowed)


def find_theta(g: Graph, cap: int | None = THETA_PRISM_CAP) -> ThetaWitness | None:
    """Search for a theta: branch pairs ascending, then paths depth-first.

    Both branch vertices need host degree at least 3.  The three x-y paths
    come from the leg search that three_in_a_tree's spiders share: each later
    path avoids the interiors already chosen and their neighbors, so any
    completed triple is a theta by construction.  None is exhaustive.
    """
    check_cap("find_theta", g.n, cap)
    full = g.full_mask
    degs = [g.adj[v].bit_count() for v in range(g.n)]
    for x in range(g.n):
        if degs[x] < 3:
            continue
        for y in range(x + 1, g.n):
            if degs[y] < 3 or g.has_edge(x, y):
                continue
            ends = (1 << x) | (1 << y)
            for paths in _legs(g, x, (y, y, y), full & ~ends, ends):
                return ThetaWitness(x, y, paths)
    return None


def _triangles(g: Graph, within: int | None = None):
    """Yield the triangles of G[within] as ascending triples, in lexicographic order."""
    adj = g.adj
    within = g.full_mask if within is None else within
    for a in iter_bits(within):
        near = adj[a] & within
        for b in iter_bits(near >> (a + 1) << (a + 1)):
            third = near & adj[b] >> (b + 1) << (b + 1)
            if third:
                for c in iter_bits(third):
                    yield a, b, c


def _least_line_graph(g: Graph, chains, pattern) -> tuple[Embedding | None, int]:
    """The least induced line graph of a subdivided skeleton in g, embedded.

    Chain i = (u, v, m) joins branch vertices u != v, each the end of exactly
    three chains, and has at least m >= 1 edges.  By Whitney's theorem the
    line graph of a subdivision is a host triangle per branch vertex and, per
    chain, an induced path of l_i >= m vertices between corners of its ends'
    triangles (one vertex: a corner both share); ``pattern(ls)`` builds it.
    Returns the embedding that trying every pattern with find_induced in
    ascending order of (sum(ls), *ls) returns first, or None, and the number
    of find_induced calls made.  Too few host triangles rule out every
    pattern; else the unsubdivided one is tried, then branch vertices take
    triangles in turn, with every bijection of chains to corners, and each
    chain with both ends placed is linked by ``iter_induced_paths``.  Placed
    vertices see exactly their placed pattern neighbours, save pairs a later
    choice settles: a new corner and its chain's far corner (adjacent iff
    l_i = 2), and far corners of chains with m = 1 toward one branch vertex
    (adjacent iff both join its triangle).  Paths stay within what the least
    key so far leaves, unused triangles must suffice for the branch vertices
    left (paths keep off them when just enough are left), and equal chains
    take ascending corners where first placed, their lengths sorted in the
    key.  One more find_induced call embeds the least key.
    """
    adj, full = g.adj, g.full_mask
    # The chain ends (chain, side) at each branch vertex.
    ends = {b: [(i, s) for i, c in enumerate(chains) for s in (0, 1) if c[s] == b]
            for u, v, _ in chains for b in (u, v)}
    tris = [mask_of(t) for t in _triangles(g)]
    if len(tris) < len(ends):
        return None, 0
    least = [m for _, _, m in chains]
    if (emb := find_induced(g, pattern(least))) is not None:
        return emb, 1
    order = list(ends)
    alike = [[j for j, d in enumerate(chains) if d == c] for c in chains]  # interchangeable chains
    corner = [[-1, -1] for _ in chains]  # host vertex at each end of each chain
    lens = least.copy()  # path lengths where linked, lower bounds elsewhere
    best = (g.n + 1,)  # above the key of every pattern in g

    def spare(k: int, placed: int, opened: int, taken) -> int | None:
        # Triangles other than the placed ones (taken) that order[k:] can
        # take, whose new corners see no placed vertex but open corners: None
        # if too few, their vertices if exactly enough, else 0.
        usable, need, left = full & ~placed & ~neighborhood_mask(g, placed & ~opened) | opened, len(order) - k, 0
        for t in tris:
            if not t & ~usable and t not in taken:
                need -= 1
                if need < 0:
                    return 0
                left |= t
        return None if need else left

    def grow(k: int, todo, placed: int, opened: int, taken: tuple[int, ...]) -> None:
        # Link the chains in todo, then place order[k:], keeping the least key
        # in best.  opened holds the corners of chains not yet linked.
        nonlocal best
        if k == len(order) and not todo:
            key = [sorted(lens[j] for j in alike[i])[alike[i].index(i)] for i in range(len(chains))]
            best = min(best, (sum(key), *key))
            return
        left = spare(k, placed, opened, taken)
        if left is None or sum(lens) > best[0]:
            return
        if todo:
            (i, c, z), rest = todo[0], todo[1:]
            pair = (1 << c) | (1 << z)
            block = placed & ~pair | left
            allowed = full & ~placed & ~block & ~neighborhood_mask(g, block)
            low = lens[i]
            for p in iter_induced_paths(g, c, z, allowed, best[0] - sum(lens) + low):
                if len(p) >= least[i]:
                    lens[i] = len(p)
                    grow(k, rest, placed | mask_of(p[1:-1]), opened & ~pair, taken)
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
        region = full & ~placed & ~neighborhood_mask(g, placed & ~seen)
        share = mask_of(z for i, z in far.items() if least[i] <= 1)
        ascending = [(x, y) for x, (i, _) in enumerate(ends[b]) for y, (j, _) in enumerate(ends[b])
                     if i < j and i not in far and j in alike[i]]
        saved = lens.copy()
        for tri in _triangles(g, region | share):
            if k == 1 and len(alike[0]) == len(chains) and tri[0] < min(iter_bits(taken[0])):
                continue  # a theta's two branch vertices are interchangeable too
            tmask = mask_of(tri)
            for perm in itertools.permutations(tri):
                if any(perm[x] > perm[y] for x, y in ascending):
                    continue
                todo, done = [], 0
                for (i, _), c in zip(ends[b], perm):
                    z = far.get(i, -1)
                    zbit = 1 << z if z >= 0 else 0
                    if c == z:  # a shared corner, so l_i = m = 1
                        done |= zbit
                    elif (placed >> c & 1 or zbit & must or adj[c] & placed & ~tmask & ~defer.get(i, 0) & ~zbit
                          or adj[c] & zbit and least[i] > 2):
                        break
                    elif adj[c] & zbit:
                        lens[i] = 2
                        done |= (1 << c) | zbit
                    elif zbit:
                        lens[i] = max(least[i], 3)
                        todo.append((i, c, z))
                else:
                    for (i, s), c in zip(ends[b], perm):
                        corner[i][s] = c
                    grow(k + 1, todo, placed | tmask, (opened | tmask) & ~done, taken + (tmask,))
                    for i, s in ends[b]:
                        corner[i][s] = -1
                lens[:] = saved

    grow(0, [], 0, 0, ())
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


def clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with the first maximum clique in ascending order."""
    best: tuple[int, ...] = ()

    def expand(cur: list[int], cand: int) -> None:
        nonlocal best
        if len(cur) + cand.bit_count() <= len(best):
            return
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
            expand(cur, cand & g.adj[v])
            cur.pop()

    expand([], g.full_mask)
    return len(best), best


def find_biclique(g: Graph, s: int, cap: int | None = THETA_PRISM_CAP) -> Embedding | None:
    """Search for an induced K_{s,s}: a stable side, then a stable common side.

    The first side is grown over stable sets in ascending order; the second
    side must be a stable s-subset of the first side's common neighborhood,
    which forces completeness between sides and hence an exact induced copy.
    """
    if s < 1:
        raise ValueError("side size must be positive")
    check_cap("find_biclique", g.n, cap)
    full = g.full_mask

    def stable_subset(region: int, need: int, acc: list[int]) -> bool:
        if need == 0:
            return True
        if region.bit_count() < need:
            return False
        while region:
            v = region & -region
            region ^= v
            if region.bit_count() + 1 < need:
                return False
            v = v.bit_length() - 1
            acc.append(v)
            if stable_subset(region & ~g.adj[v], need - 1, acc):
                return True
            acc.pop()
        return False

    def grow(a: list[int], avail: int, common: int) -> Embedding | None:
        if len(a) == s:
            b: list[int] = []
            if stable_subset(common, s, b):
                return Embedding(complete_bipartite(s, s), tuple(a) + tuple(b))
            return None
        while avail:
            v = avail & -avail
            avail ^= v
            v = v.bit_length() - 1
            nxt_common = common & g.adj[v]
            if nxt_common.bit_count() < s:
                continue
            a.append(v)
            got = grow(a, avail & ~g.adj[v], nxt_common)
            if got is not None:
                return got
            a.pop()
        return None

    return grow([], full, full)


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
    cmask = mask_of(w.centers)
    if len(set(w.centers)) != len(w.centers):
        return "centers repeat"
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
    pairwise anticomplete and the search free of permuted duplicates.
    """
    if s < 1 or l < 1:
        raise ValueError("need at least one center and one component")
    check_cap("find_constellation", g.n, cap)
    full = g.full_mask

    def paths_in(region: int):
        # Each induced path once, from its smaller endpoint; singletons too.
        def extend(last: int, path: tuple[int, ...], banned: int):
            if len(path) == 1 or path[0] < path[-1]:
                yield path
            for c in iter_bits(g.adj[last] & region & ~banned):
                yield from extend(c, path + (c,), banned | g.adj[last] | (1 << c))

        for v in iter_bits(region):
            yield from extend(v, (v,), 1 << v)

    def covers(path_mask: int, centers: tuple[int, ...]) -> bool:
        return all(g.adj[c] & path_mask for c in centers)

    def pick_paths(centers, region: int, chosen: list[tuple[int, ...]], floor: int):
        if len(chosen) == l:
            return ConstellationWitness(centers, tuple(chosen))
        for p in paths_in(region & ~((1 << (floor + 1)) - 1)):
            pm = mask_of(p)
            if not covers(pm, centers):
                continue
            chosen.append(p)
            got = pick_paths(centers, region & ~pm & ~neighborhood_mask(g, pm), chosen, min(p))
            if got is not None:
                return got
            chosen.pop()
        return None

    def pick_centers(acc: list[int], avail: int):
        if len(acc) == s:
            centers = tuple(acc)
            return pick_paths(centers, full & ~mask_of(centers), [], -1)
        while avail:
            v = avail & -avail
            avail ^= v
            v = v.bit_length() - 1
            acc.append(v)
            got = pick_centers(acc, avail & ~g.adj[v])
            if got is not None:
                return got
            acc.pop()
        return None

    return pick_centers([], full)


def three_in_a_tree(
    g: Graph, z, cap: int | None = TREE_SEARCH_CAP
) -> tuple[int, ...] | None:
    """An induced tree of g containing at least three vertices of z, or None.

    z must be a stable set with at least three vertices.  A minimal such tree
    is an induced path through three z-vertices or a spider: a center with
    three legs to z-vertices, pairwise anticomplete away from the center.
    Both shapes are searched exhaustively, triples of z in ascending order;
    the spider search shares its leg search with find_theta.
    """
    zs = tuple(sorted(set(z)))
    if len(zs) < 3:
        raise ValueError("needs at least three vertices")
    if not is_stable_set(g, mask_of(zs)):
        raise ValueError("the set must be stable")
    check_cap("three_in_a_tree", g.n, cap)
    full = g.full_mask
    for a, b, c in itertools.combinations(zs, 3):
        tri = mask_of((a, b, c))
        for u, w, mid in ((a, b, c), (a, c, b), (b, c, a)):
            allowed = full & ~(1 << u) & ~(1 << w)
            for p in iter_induced_paths(g, u, w, allowed):
                if mask_of(p) >> mid & 1:
                    return tuple(sorted(p))
        base = full & ~tri
        for v in iter_bits(base):
            if g.adj[v].bit_count() < 3:
                continue
            for la, lb, lc in _legs(g, v, (a, b, c), base & ~(1 << v), 1 << v):
                return tuple(sorted({v, *la, *lb, *lc}))
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
    by the shared flow :func:`~thetakit.graphs.max_disjoint_paths` from the
    neighbours of y to z, with y itself removed.
    """
    if not 0 <= y < g.n:
        raise ValueError("the hub must be a vertex of the graph")
    zs = sorted(set(z))
    if y in zs:
        raise ValueError("the hub must lie outside the target set")
    return max_disjoint_paths(g, g.adj[y], mask_of(zs), g.full_mask & ~(1 << y))
