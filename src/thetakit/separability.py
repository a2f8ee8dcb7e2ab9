"""Maximum families of internally disjoint induced paths between vertex pairs.

The packing here is over induced paths, which is what separates this
computation from plain Menger flow: an optimal flow routes through paths
with chords, so the flow value is only an upper bound.  It prunes and
certifies a branch and bound that stops at that bound or after a budget of
search nodes.  The flow is the package's one max-flow,
:func:`~thetakit.graphs.max_disjoint_paths`, from the neighbours of x to the
neighbours of y with both ends removed; the search asks it again, on the
vertices still free, each time it has a family to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, PathFamily, iter_induced_paths, mask_of, max_disjoint_paths

# Search nodes per pair: about 4x the most any measured G(n <= 80, p) or L(wall(5)) pair needs.
PACKING_BUDGET = 10_000


@dataclass(frozen=True)
class PathPacking:
    """Best family found for one pair, with exactness and an upper bound.

    Within the budget the search is exact: ``exact`` is true and
    ``upper_bound == count``.  Past it, the family is the best found (at
    least the greedy one once the budget exceeds deg(x)), ``upper_bound`` is
    the flow bound, and ``exact`` is set when the two meet.  Read it by
    attribute: ``count`` paths in ``family``.
    """

    count: int
    family: PathFamily
    exact: bool
    upper_bound: int


@dataclass(frozen=True)
class SeparabilityReport:
    """Maximum family size over all nonadjacent pairs, with its witness.

    ``vacuous`` marks graphs without a nonadjacent pair, which are declared
    separable for every threshold; ``pair`` and ``witness`` are then absent.
    ``exact`` holds when ``lambda_star`` is certified maximal: no pair's
    upper bound exceeds it.  Pairs packed within the budget and pairs the
    scan skips (their upper bound is no larger than the running count) never
    do, so the check is the largest flow bound among pairs the budget cut short.
    """

    lambda_star: int
    pair: tuple[int, int] | None
    witness: PathFamily | None
    exact: bool
    vacuous: bool

    def is_separable(self, lam: int) -> bool:
        """lambda_star < lam; ValueError when an inexact report cannot tell."""
        if lam < 1:
            raise ValueError("separability threshold must be positive")
        if not self.exact and self.lambda_star < lam:
            raise ValueError("an inexact report cannot decide this threshold")
        return self.lambda_star < lam


def max_internally_disjoint_paths(
    g: Graph, x: int, y: int, budget: int | None = PACKING_BUDGET
) -> PathPacking:
    """The largest family of pairwise internally disjoint induced x-y paths.

    Exact unless the search runs past ``budget`` nodes; ``None`` means no
    budget.  The search stops early once the flow bound is met.
    """
    if not g.has_vertices((x, y)):
        raise ValueError("endpoints must be vertices of the graph")
    if x == y:
        raise ValueError("endpoints must differ")
    if g.has_edge(x, y):
        raise ValueError("endpoints must be nonadjacent")
    allowed = g.full_mask & ~(1 << x) & ~(1 << y)
    return _pack(g, x, y, allowed, max_disjoint_paths(g, g.adj[x], g.adj[y], allowed), budget)


def _pack(g: Graph, x: int, y: int, allowed: int, ub: int, budget: int | None) -> PathPacking:
    """The packing for a valid pair, given its flow bound ub over ``allowed``.

    Each node branches on every induced path through the least free
    neighbour t of x, in enumeration order, and then on leaving t unused: an
    induced path from x holds exactly one neighbour of x.  So the first dive
    is the greedy family, and ties keep the first family in this preorder.
    """
    best: tuple[tuple[int, ...], ...] = ()
    nodes = 0

    def search(avail: int, chosen: tuple[tuple[int, ...], ...]) -> bool:
        # Extends chosen inside avail; True stops the whole search.
        nonlocal best, nodes
        if len(chosen) > len(best):
            best = chosen
        if len(best) == ub:
            return True
        nodes += 1
        if budget is not None and nodes > budget:
            return True
        tips = g.adj[x] & avail
        if len(chosen) + min(tips.bit_count(), (g.adj[y] & avail).bit_count()) <= len(best):
            return False
        # On the first dive the flow could only find that no path is left.
        if len(best) > len(chosen) and len(chosen) + max_disjoint_paths(g, tips, g.adj[y], avail) <= len(best):
            return False
        t = tips & -tips
        for p in iter_induced_paths(g, x, y, avail & ~(tips ^ t)):
            if search(avail & ~mask_of(p[1:-1]), chosen + (p,)):
                return True
        return search(avail & ~t, chosen)

    search(allowed, ())
    exact = len(best) == ub or budget is None or nodes <= budget
    return PathPacking(len(best), PathFamily(x, y, best), exact, len(best) if exact else ub)


def separability(g: Graph, budget: int | None = PACKING_BUDGET) -> SeparabilityReport:
    """lambda_star over all nonadjacent pairs, scanned in lexicographic order.

    A pair that cannot beat the running maximum is skipped, which never
    changes the reported argmax because ties keep the earliest pair.  The
    test is two-staged: first the smaller degree of the two ends, which
    bounds the flow from above, and only then the flow bound itself, which
    the packing of a surviving pair reuses, with ``budget`` nodes per pair.
    """
    best_count = 0
    best_pair = None
    best_witness = None
    open_bound = 0
    found_pair = False
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if g.has_edge(x, y):
                continue
            found_pair = True
            if best_pair is not None and min(g.degree(x), g.degree(y)) <= best_count:
                continue
            within = g.full_mask & ~(1 << x) & ~(1 << y)
            ub = max_disjoint_paths(g, g.adj[x], g.adj[y], within)
            if best_pair is not None and ub <= best_count:
                continue
            r = _pack(g, x, y, within, ub, budget)
            if not r.exact:
                open_bound = max(open_bound, r.upper_bound)
            if best_pair is None or r.count > best_count:
                best_count = r.count
                best_pair = (x, y)
                best_witness = r.family
    return SeparabilityReport(
        lambda_star=best_count,
        pair=best_pair,
        witness=best_witness,
        exact=open_bound <= best_count,
        vacuous=not found_pair,
    )
