"""Independent brute-force answers used to check the library's searches.

Everything here recomputes results from definitions, by subset or
permutation enumeration or by plain graph search, and deliberately shares
no logic with the package's search code.  The enumerations are only usable
at toy sizes (n at most about 10).  Two exceptions use the package's
tower arithmetic: the sigma block, sampled on the displayed expressions
themselves as a check on its proof by lemma, and the tower ordering by
the ladder of normal forms alone, as a check on the magnitude brackets
that ``tower_compare`` tries first.  Two more are earlier versions of a
package loop over the package's own primitives, as a check on the pruning
added since: the separability pair scan over the max-flow, and the leg
search over the induced-path enumerator.  The (a,b)-tree certificate
check as first written, walking parent chains, checks the flood that
replaced it.
"""

from __future__ import annotations

import itertools

from thetakit import bigconst
from thetakit.bigconst import (
    SigmaCheck,
    SigmaReport,
    TowerInt,
    _compare_norm,
    nat,
    normalize,
    sigma,
    tower_compare,
)
from thetakit.graphs import ABTreeCert, Graph, build_graph, iter_induced_paths, max_disjoint_paths, neighborhood_mask
from thetakit.separability import SeparabilityReport, max_internally_disjoint_paths


def _bits(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def _components_within(g: Graph, mask: int) -> list[int]:
    comps = []
    left = mask
    while left:
        seed = left & -left
        comp = seed
        frontier = seed
        while frontier:
            grown = comp
            for v in _bits(frontier):
                grown |= g.adj[v] & mask
            frontier = grown & ~comp
            comp = grown
        comps.append(comp)
        left &= ~comp
    return comps


def induces_theta(g: Graph, mask: int) -> bool:
    """True iff the subset is exactly a theta: two nonadjacent degree-3
    vertices and three attached path components, everything else degree 2."""
    verts = _bits(mask)
    if len(verts) < 5:
        return False
    deg3 = []
    for v in verts:
        d = (g.adj[v] & mask).bit_count()
        if d == 3:
            deg3.append(v)
            if len(deg3) > 2:
                return False
        elif d != 2:
            return False
    if len(deg3) != 2:
        return False
    u, w = deg3
    if g.adj[u] >> w & 1:
        return False
    rest = mask & ~(1 << u) & ~(1 << w)
    comps = _components_within(g, rest)
    if len(comps) != 3:
        return False
    # Degree bookkeeping forces each component to be a path once each branch
    # vertex sends exactly one edge into it.
    return all(
        (g.adj[u] & c).bit_count() == 1 and (g.adj[w] & c).bit_count() == 1
        for c in comps
    )


def contains_theta(g: Graph) -> bool:
    """Subset enumeration; exponential, for hosts of at most about 10 vertices."""
    for mask in range(1 << g.n):
        if mask.bit_count() >= 5 and induces_theta(g, mask):
            return True
    return False


def induces_prism(g: Graph, mask: int) -> bool:
    """True iff the subset is exactly a prism: two disjoint triangles, every
    other vertex of degree 2, and three anticomplete links, each joining a
    vertex of one triangle to a vertex of the other."""
    verts = _bits(mask)
    deg = {v: (g.adj[v] & mask).bit_count() for v in verts}
    if any(d not in (2, 3) for d in deg.values()):
        return False
    corners = [v for v in verts if deg[v] == 3]
    if len(corners) != 6:
        return False
    for rest in itertools.combinations(corners[1:], 2):
        tri_a = (corners[0],) + rest
        tri_b = tuple(v for v in corners if v not in tri_a)
        if not all(
            g.adj[x] >> y & 1
            for t in (tri_a, tri_b)
            for x, y in itertools.combinations(t, 2)
        ):
            continue
        # Drop the triangle edges; what is left must be three links, each
        # holding one vertex of either triangle.
        amask = sum(1 << v for v in tri_a)
        bmask = sum(1 << v for v in tri_b)
        links = []
        left = mask
        while left:
            comp = left & -left
            frontier = comp
            while frontier:
                grown = comp
                for v in _bits(frontier):
                    inside = amask if amask >> v & 1 else bmask if bmask >> v & 1 else 0
                    grown |= g.adj[v] & mask & ~inside
                frontier = grown & ~comp
                comp = grown
            links.append(comp)
            left &= ~comp
        return len(links) == 3 and all(
            (c & amask).bit_count() == 1 and (c & bmask).bit_count() == 1 for c in links
        )
    return False


def contains_prism(g: Graph) -> bool:
    """Subset enumeration; exponential, for hosts of at most about 10 vertices."""
    return any(
        mask.bit_count() >= 6 and induces_prism(g, mask) for mask in range(1 << g.n)
    )


def max_clique_mask(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() <= best.bit_count():
            continue
        vs = _bits(mask)
        if all(g.adj[a] >> b & 1 for a, b in itertools.combinations(vs, 2)):
            best = mask
    return best


def has_induced_biclique(g: Graph, s: int) -> bool:
    vs = range(g.n)
    for a in itertools.combinations(vs, s):
        if any(g.adj[x] >> y & 1 for x, y in itertools.combinations(a, 2)):
            continue
        common = g.full_mask
        for x in a:
            common &= g.adj[x]
        pool = _bits(common)
        if len(pool) < s:
            continue
        for b in itertools.combinations(pool, s):
            if not any(g.adj[x] >> y & 1 for x, y in itertools.combinations(b, 2)):
                return True
    return False


def induces_tree(g: Graph, mask: int) -> bool:
    edges = sum((g.adj[v] & mask).bit_count() for v in _bits(mask)) // 2
    return (
        mask != 0
        and edges == mask.bit_count() - 1
        and len(_components_within(g, mask)) == 1
    )


def ab_tree_violation_by_chains(g: Graph, cert: ABTreeCert) -> str | None:
    """The (a,b)-tree certificate check as first written: each vertex's depth
    comes from walking its parent chain up to a vertex of known depth."""
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
    mask = sum(1 << v for v in vs)
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
    edge_count = sum((g.adj[v] & mask).bit_count() for v in _bits(mask)) // 2
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


def has_tree_with_three(g: Graph, z) -> bool:
    zmask = 0
    for v in z:
        zmask |= 1 << v
    for mask in range(1 << g.n):
        if (mask & zmask).bit_count() >= 3 and induces_tree(g, mask):
            return True
    return False


def has_constellation(g: Graph, s: int, l: int) -> bool:
    """Some stable set of s centres and a vertex set, disjoint from it, whose
    components are exactly l induced paths, each with a neighbour of every
    centre.  Subset enumeration, for hosts of at most about 10 vertices."""
    families = []
    for mask in range(1 << g.n):
        comps = _components_within(g, mask)
        # A component is a tree when it has one edge fewer than vertices,
        # and a tree of maximum degree 2 is a path.
        if len(comps) == l and all(
            sum((g.adj[v] & c).bit_count() for v in _bits(c)) == 2 * (c.bit_count() - 1)
            and all((g.adj[v] & c).bit_count() <= 2 for v in _bits(c))
            for c in comps
        ):
            families.append((mask, comps))
    for centres in itertools.combinations(range(g.n), s):
        if any(g.adj[x] >> y & 1 for x, y in itertools.combinations(centres, 2)):
            continue
        cmask = sum(1 << v for v in centres)
        for mask, comps in families:
            if not mask & cmask and all(g.adj[x] & c for x in centres for c in comps):
                return True
    return False


def least_induced_embedding(host: Graph, pattern: Graph) -> tuple[int, ...] | None:
    """First valid map in lexicographic order over injective vertex tuples."""
    pairs = list(itertools.combinations(range(pattern.n), 2))
    for phi in itertools.permutations(range(host.n), pattern.n):
        if all(
            (pattern.adj[i] >> j & 1) == (host.adj[phi[i]] >> phi[j] & 1)
            for i, j in pairs
        ):
            return phi
    return None


def induced_path_interiors(g: Graph, x: int, y: int) -> list[int]:
    """Interior masks of all induced x-y paths, found by subset testing.

    A vertex set S (disjoint from the nonadjacent pair) is the interior of
    an induced x-y path exactly when {x} | S | {y} induces a connected graph
    whose edge count is |S| + 1 in which x and y have degree 1 and every
    S-vertex degree 2.
    """
    ends = (1 << x) | (1 << y)
    out = []
    for sub in range(1 << g.n):
        if sub & ends:
            continue
        mask = sub | ends
        if (g.adj[x] & mask).bit_count() != 1 or (g.adj[y] & mask).bit_count() != 1:
            continue
        if any((g.adj[v] & mask).bit_count() != 2 for v in _bits(sub)):
            continue
        if len(_components_within(g, mask)) == 1:
            out.append(sub)
    return out


def max_disjoint_path_family(g: Graph, x: int, y: int) -> int:
    """Exhaustive maximum packing of induced x-y paths with disjoint interiors."""
    interiors = induced_path_interiors(g, x, y)

    def grow(i: int, used: int) -> int:
        best = 0
        for j in range(i, len(interiors)):
            if not interiors[j] & used:
                best = max(best, 1 + grow(j + 1, used | interiors[j]))
        return best

    return grow(0, 0)


def separability_by_pair_loop(g: Graph) -> SeparabilityReport:
    """separability's scan as first written: every nonadjacent pair in
    lexicographic order gets a flow unless a pair exists and the smaller of
    its two degrees cannot beat the running maximum."""
    best_count = 0
    best_pair = None
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if g.has_edge(x, y):
                continue
            if best_pair is not None and min(g.degree(x), g.degree(y)) <= best_count:
                continue
            count = max_disjoint_paths(g, g.adj[x], g.adj[y], g.full_mask & ~(1 << x) & ~(1 << y))
            if best_pair is None or count > best_count:
                best_count = count
                best_pair = (x, y)
    if best_pair is None:
        return SeparabilityReport(lambda_star=0, pair=None, witness=None, vacuous=True)
    return SeparabilityReport(best_count, best_pair, max_internally_disjoint_paths(g, *best_pair), False)


def legs_unconstrained(g: Graph, hub: int, ends, allowed: int, keep: int):
    """The leg search as first written: each later path is any induced path
    from hub to its end inside what the earlier paths left allowed."""

    def rec(k: int, allowed: int):
        if k == len(ends):
            yield ()
            return
        later = sum(1 << e for e in set(ends[k + 1:])) & ~keep
        for p in iter_induced_paths(g, hub, ends[k], allowed):
            rest = sum(1 << v for v in p) & ~keep
            block = rest | neighborhood_mask(g, rest)
            if block & later:
                continue
            for tail in rec(k + 1, allowed & ~block):
                yield (p,) + tail

    return rec(0, allowed)


def max_anticomplete_subfamily(g: Graph, sets) -> int:
    """Exhaustive largest subfamily with no edges between any two members."""
    masks = [sum(1 << v for v in s) for s in sets]
    k = len(masks)
    hits = []
    for m in masks:
        h = m
        for v in _bits(m):
            h |= g.adj[v]
        hits.append(h)
    best = 0
    for pick in range(1 << k):
        chosen = [i for i in range(k) if pick >> i & 1]
        if any(hits[i] & masks[j] for i, j in itertools.combinations(chosen, 2)):
            continue
        best = max(best, len(chosen))
    return best


def fanout_choices_exist(d, chosen, q: int, r: int) -> bool:
    """Every q-subset of chosen admits pairwise disjoint r-sets of private
    out-neighbours avoiding chosen itself, checked by brute enumeration."""
    avoid = sum(1 << v for v in chosen)
    for group in itertools.combinations(chosen, q):
        pools = [_bits(d.out[v] & ~avoid) for v in group]
        if not any(
            all(
                not (set(pick[i]) & set(pick[j]))
                for i in range(q)
                for j in range(i + 1, q)
            )
            for pick in itertools.product(
                *[itertools.combinations(p, r) for p in pools]
            )
        ):
            return False
    return True


def fill_neighbourhood_bfs(g: Graph, v: int, remaining: int) -> int:
    """v's neighbours in the elimination graph once every vertex outside
    ``remaining`` is eliminated: the vertices of ``remaining`` other than v
    joined to v by a path whose interior avoids ``remaining``.  Found by a
    breadth-first search through the eliminated vertices."""
    elim = g.full_mask & ~remaining
    seen = 1 << v
    frontier = g.adj[v]
    out = 0
    while frontier:
        out |= frontier & remaining
        seen |= frontier
        nxt = 0
        for u in _bits(frontier & elim):
            nxt |= g.adj[u]
        frontier = nxt & ~seen
    return out & ~(1 << v)


def contraction_degeneracy_by_scan(g: Graph) -> int:
    """The contraction-degeneracy bound as first written: every step scans
    the remaining vertices for the least (degree, index) and contracts it
    into its least (degree, index) neighbour."""
    adj = list(g.adj)
    remaining = g.full_mask
    best = 0
    while remaining:
        v = min(_bits(remaining), key=lambda u: ((adj[u] & remaining).bit_count(), u))
        nb = adj[v] & remaining
        best = max(best, nb.bit_count())
        if nb:
            u = min(_bits(nb), key=lambda w: ((adj[w] & remaining).bit_count(), w))
            merged = (adj[u] | nb) & ~(1 << u) & ~(1 << v)
            adj[u] = merged
            for w in _bits(merged):
                adj[w] = (adj[w] & ~(1 << v)) | (1 << u)
        remaining &= ~(1 << v)
    return best


def preprocess_by_pairs(g: Graph, low: int) -> tuple[list[int], int, list[int], int]:
    """The simplicial and almost-simplicial reductions as first written: list
    every missing pair of a neighbourhood and intersect them as sets.  Returns
    the prefix, the surviving mask, the filled adjacency and the bound."""
    adj = list(g.adj)
    alive = g.full_mask
    prefix: list[int] = []
    changed = True
    while changed and alive:
        changed = False
        for v in _bits(alive):
            nb = adj[v] & alive
            missing = []
            for u in _bits(nb):
                for w in _bits(nb & ~adj[u] & ~((1 << (u + 1)) - 1)):
                    missing.append((u, w))
            d = nb.bit_count()
            if not missing:
                low = max(low, d)
            elif d > low or not set.intersection(*(set(p) for p in missing)):
                continue
            for u in _bits(nb):
                adj[u] |= nb & ~(1 << u)
            alive &= ~(1 << v)
            prefix.append(v)
            changed = True
    return prefix, alive, adj, low


def decomposition_by_build_graph(g: Graph, order: list[int]) -> tuple[tuple[int, ...], Graph]:
    """The bags and tree of the decomposition read off an elimination order,
    as first written: node i holds order[i] and its neighbours among the
    later vertices once the earlier ones are eliminated, and joins the node
    of the earliest of those neighbours, or node i + 1 if there is none.
    The edges go through build_graph."""
    pos = {v: i for i, v in enumerate(order)}
    remaining = g.full_mask
    bags = []
    reaches = []
    for v in order:
        remaining &= ~(1 << v)
        rs = fill_neighbourhood_bfs(g, v, remaining | 1 << v)
        bags.append(rs | (1 << v))
        reaches.append(rs)
    edges = []
    for i, rs in enumerate(reaches):
        if rs:
            edges.append((i, min(pos[u] for u in _bits(rs))))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return tuple(bags), build_graph(len(order), edges)


def sigma_by_comparison(alpha: int, t: int, s: int, r_max: int) -> SigmaReport:
    """The sigma block as first checked: build both sides of the base and of
    each step r = 2..r_max as tower expressions, with side(x) =
    alpha^x t^(x-1), and order them with tower_compare.  Costly for large
    s or r_max, where a comparison may also give up."""
    al, tt = nat(alpha), nat(t)

    def side(exp):
        return al ** exp * tt ** exp.minus(1)

    mid = nat(((2 * s) ** (2 * s - 1) - 1) * s * s)
    base = tower_compare(side(sigma(s, 2)), side(nat(s)) + side(mid)) > 0
    checks = [SigmaCheck("base: sigma_2 beats the s-level split", base)]
    for r in range(2, r_max + 1):
        prev = sigma(s, r - 1)
        holds = tower_compare(side(sigma(s, r)), side(prev) + side(normalize(prev ** 3))) > 0
        checks.append(SigmaCheck(f"step r={r}: sigma_{r} beats the sigma_{r - 1} split", holds))
    return SigmaReport(alpha, t, s, r_max, tuple(checks))


def tower_compare_by_ladder(a: TowerInt, b: TowerInt) -> int:
    """The order of a and b by the ladder of normal forms, without the
    magnitude brackets that ``tower_compare`` tries first and that the
    ladder tries on every comparison it recurses into."""
    apart = bigconst._apart
    bigconst._apart = lambda x, y: 0
    try:
        return _compare_norm(normalize(a), normalize(b))
    finally:
        bigconst._apart = apart
