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

from .generators import complete_bipartite, cycle_graph, line_graph, prism_graph, subdivide, wall
from .graphs import (
    Graph,
    PathFamily,
    are_anticomplete,
    bfs_layers,
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


def find_prism(g: Graph, cap: int | None = THETA_PRISM_CAP) -> Embedding | None:
    """Search for an induced prism: the least shape, embedded by find_induced.

    A prism is the line graph of a theta: triangles {a1, a2, a3} and {b1, b2,
    b3}, no edge a_i-b_j for i != j, and induced a_i-b_i paths of l_i >= 2
    vertices whose interiors are pairwise anticomplete and see no a_j or b_j
    for j != i.  Its shape is prism_graph(l1, l2, l3) with l1 <= l2 <= l3,
    ordered by the key (l1 + l2 + l3, l1, l2, l3).

    The triangular prism, the least shape, is tried first with find_induced.
    Otherwise a branch and bound over skeletons finds the least key: every
    pair of disjoint triangles (the first before the second in lexicographic
    order) with every bijection between them that leaves no edge a_i-b_j,
    taken in ascending order of a lower bound on the total (shortest a_i-b_i
    distances in g) and completed path by path with ``iter_induced_paths``.
    Each later path avoids the earlier interiors and their neighbours, and no
    path may grow past the vertex count that the least key found so far
    leaves it; the search ends when the lower bound passes that key.  One
    find_induced call then embeds the least shape.  So the result is the
    same embedding as trying every shape in ascending key order with
    find_induced and returning the first hit.  None is exhaustive.
    """
    check_cap("find_prism", g.n, cap)
    tris = list(_triangles(g))
    if not tris:
        return None
    emb = find_induced(g, prism_graph(2, 2, 2))
    if emb is not None:
        return emb
    adj, full = g.adj, g.full_mask
    spans: dict[int, list[int]] = {}

    def span(x: int, y: int) -> int:
        # Vertices on a shortest x-y path of g (0 if none): a lower bound on
        # the vertex count of every induced x-y path.
        if x not in spans:
            row = spans[x] = [0] * g.n
            for d, layer in enumerate(bfs_layers(g, x)):
                for u in iter_bits(layer):
                    row[u] = d + 1
        return spans[x][y]

    def skeletons():
        for a in tris:
            x, y, z = (adj[v] for v in a)
            # The second triangle lies above a's least corner and among the
            # vertices that see at most one corner of a (no corner qualifies).
            rest = full & ~(x & y | x & z | y & z) >> (a[0] + 1) << (a[0] + 1)
            for b in _triangles(g, rest):
                bmask = mask_of(b)
                cross = [adj[v] & bmask for v in a]
                for perm in itertools.permutations(b):
                    if any(c & ~(1 << v) for c, v in zip(cross, perm)):
                        continue
                    lbs = tuple(map(span, a, perm))
                    if all(lbs):
                        yield lbs, a, perm

    best = (g.n + 1,)  # above the key of every prism in g

    def link(k: int, a, b, allowed, lbs, block: int, lens: tuple[int, ...]) -> None:
        # Complete paths k.. of the skeleton, keeping the least key in best.
        nonlocal best
        if k == 3:
            best = min(best, (sum(lens), *sorted(lens)))
            return
        others = sum(lens) + sum(lbs[k + 1:])  # vertices the other paths take, at least
        bound = None
        while bound != best[0]:
            # A better key found below restarts this level under its tighter limit.
            bound = best[0]
            for p in iter_induced_paths(g, a[k], b[k], allowed[k] & ~block, bound - others):
                inner = mask_of(p[1:-1])
                block_next = block | inner | neighborhood_mask(g, inner)
                link(k + 1, a, b, allowed, lbs, block_next, lens + (len(p),))
                if best[0] < bound:
                    break

    for lbs, a, b in sorted(skeletons(), key=lambda s: sum(s[0])):
        if sum(lbs) > best[0]:
            break
        # Path i's interior sees neither end of the other two paths.
        seen = [adj[x] | adj[y] for x, y in zip(a, b)]
        free = full & ~mask_of(a + b)
        allowed = [free & ~seen[(i + 1) % 3] & ~seen[(i + 2) % 3] for i in range(3)]
        link(0, a, b, allowed, lbs, 0, ())
    if len(best) == 1:
        return None
    return find_induced(g, prism_graph(*best[1:]))


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
    """Outcome of the scoped search for line graphs of wall subdivisions.

    ``excluded`` is meaningful relative to the scope: when ``partial`` is
    true the pattern budget ran out before every candidate subdivision was
    tried, so ``excluded=True`` only covers the ``patterns_tried`` listed.
    """

    excluded: bool
    r: int
    host_n: int
    patterns_tried: int
    partial: bool
    reason: str
    embedding: Embedding | None = None


def _chains(w: Graph) -> list[list[tuple[int, int]]]:
    # Maximal edge runs whose interior vertices have degree 2, between
    # branch vertices (degree >= 3); assumes every run ends at branch vertices.
    branch = [v for v in range(w.n) if w.degree(v) >= 3]
    chains = []
    seen = set()
    for v in branch:
        for u in w.neighbors(v):
            if (v, u) in seen:
                continue
            run = [(v, u)]
            prev, cur = v, u
            while w.degree(cur) == 2:
                nxt = next(x for x in w.neighbors(cur) if x != prev)
                run.append((cur, nxt))
                prev, cur = cur, nxt
            seen.add((v, u))
            seen.add((cur, prev))
            key = tuple(sorted((min(a, b), max(a, b)) for a, b in run))
            if key not in {tuple(sorted((min(a, b), max(a, b)) for a, b in r)) for r in chains}:
                chains.append(run)
    return chains


def excludes_wall_line_graphs(
    g: Graph,
    r: int,
    cap: int | None = WALL_LINE_CAP,
    pattern_budget: int = 2000,
) -> WallLineReport:
    """Scoped test that no line graph of a subdivision of wall(r) embeds in g.

    Candidate subdivisions are enumerated by how many extra vertices each
    topological chain of the wall receives (placement within a chain does not
    change the isomorphism type), ascending by total, and their line graphs
    are matched with find_induced.  The scope ends when patterns outgrow the
    host; if the pattern budget runs out first the report is flagged partial.
    """
    if r < 1:
        raise ValueError("wall size must be positive")
    check_cap("excludes_wall_line_graphs", g.n, cap)
    if r >= 3 and next(_triangles(g), None) is None:
        # wall(r) has branch vertices only from r = 3 on; each one puts a
        # triangle into every subdivision's line graph.
        return WallLineReport(
            excluded=True, r=r, host_n=g.n, patterns_tried=0, partial=False,
            reason="host is triangle-free but every such line graph has triangles",
        )
    tried = 0
    if r <= 2:
        # Subdivided 6-cycles have cycle line graphs: search induced long cycles.
        for k in range(6, g.n + 1):
            if tried >= pattern_budget:
                return WallLineReport(
                    excluded=True, r=r, host_n=g.n, patterns_tried=tried,
                    partial=True, reason="pattern budget exhausted",
                )
            tried += 1
            emb = find_induced(g, cycle_graph(k))
            if emb is not None:
                return WallLineReport(
                    excluded=False, r=r, host_n=g.n, patterns_tried=tried,
                    partial=False, reason=f"induced {k}-cycle found", embedding=emb,
                )
        return WallLineReport(
            excluded=True, r=r, host_n=g.n, patterns_tried=tried, partial=False,
            reason="all pattern sizes up to the host size were tried",
        )
    w = wall(r)
    chains = _chains(w)
    edge_index = {e: i for i, e in enumerate(w.edges())}
    room = g.n - w.m
    if room < 0:
        return WallLineReport(
            excluded=True, r=r, host_n=g.n, patterns_tried=0, partial=False,
            reason="host is smaller than every pattern",
        )
    for extra in range(0, max(room, 0) + 1):
        for split in itertools.combinations(range(extra + len(chains) - 1), len(chains) - 1):
            if tried >= pattern_budget:
                return WallLineReport(
                    excluded=True, r=r, host_n=g.n, patterns_tried=tried,
                    partial=True, reason="pattern budget exhausted",
                )
            tried += 1
            bounds = (-1,) + split + (extra + len(chains) - 1,)
            per_chain = [bounds[i + 1] - bounds[i] - 1 for i in range(len(chains))]
            counts = [0] * w.m
            for chain, k in zip(chains, per_chain):
                u, v = chain[0]
                counts[edge_index[(min(u, v), max(u, v))]] = k
            emb = find_induced(g, line_graph(subdivide(w, counts)))
            if emb is not None:
                return WallLineReport(
                    excluded=False, r=r, host_n=g.n, patterns_tried=tried,
                    partial=False,
                    reason=f"line graph of a subdivision with {extra} extra vertices found",
                    embedding=emb,
                )
    return WallLineReport(
        excluded=True, r=r, host_n=g.n, patterns_tried=tried, partial=False,
        reason="all subdivision profiles with patterns fitting the host were tried",
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
