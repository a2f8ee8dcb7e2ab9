"""Maximum families of internally disjoint induced paths between vertex pairs.

The packing here is over induced paths, which is what separates this
computation from plain Menger flow: an optimal flow routes through paths
with chords, so the flow value is only an upper bound and is used purely to
prune and certify the exhaustive search.  The flow is the package's shared
one, :func:`~thetakit.graphs.max_disjoint_paths`, from the neighbours of x
to the neighbours of y with both ends removed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, PathFamily, iter_induced_paths, mask_of, max_disjoint_paths

PACKING_CAP = 16
ENUMERATION_BUDGET = 20000


@dataclass(frozen=True)
class PathPacking:
    """Best family found for one pair, with exactness and an upper bound.

    Within the exhaustive cap the search is exact, so ``exact`` is true and
    ``upper_bound == count``.  Beyond the cap the family is a greedy lower
    bound over a budgeted enumeration and ``upper_bound`` comes from the
    flow relaxation; ``exact`` is still set when the two meet.  Unpacking
    yields (count, family).
    """

    count: int
    family: PathFamily
    exact: bool
    upper_bound: int

    def __iter__(self):
        yield self.count
        yield self.family


@dataclass(frozen=True)
class SeparabilityReport:
    """Maximum family size over all nonadjacent pairs, with its witness.

    ``vacuous`` marks graphs without a nonadjacent pair, which are declared
    separable for every threshold; ``pair`` and ``witness`` are then absent.
    ``exact`` holds when ``lambda_star`` is certified maximal: no pair's
    upper bound exceeds it.  Pairs packed exactly and pairs the scan skips
    (their upper bound is no larger than the running count) never do, so
    the check is the largest flow bound among pairs packed inexactly.
    """

    lambda_star: int
    pair: tuple[int, int] | None
    witness: PathFamily | None
    exact: bool
    vacuous: bool

    def is_separable(self, lam: int) -> bool:
        if lam < 1:
            raise ValueError("separability threshold must be positive")
        return self.lambda_star < lam


def max_internally_disjoint_paths(
    g: Graph, x: int, y: int, cap: int | None = PACKING_CAP
) -> PathPacking:
    """The largest family of pairwise internally disjoint induced x-y paths.

    Exhaustive within ``cap`` vertices: all induced paths are enumerated and
    packed by branch and bound, stopping early once the flow bound is met.
    Larger graphs get a greedy family and the flow value as separate bounds.
    """
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError("endpoints must be vertices of the graph")
    if x == y:
        raise ValueError("endpoints must differ")
    if g.has_edge(x, y):
        raise ValueError("endpoints must be nonadjacent")
    allowed = g.full_mask & ~(1 << x) & ~(1 << y)
    return _pack(g, x, y, allowed, max_disjoint_paths(g, g.adj[x], g.adj[y], allowed), cap)


def _pack(g: Graph, x: int, y: int, allowed: int, ub: int, cap: int | None) -> PathPacking:
    """The packing for a valid pair, given its flow bound ub over ``allowed``."""
    if ub == 0:
        return PathPacking(0, PathFamily(x, y, ()), True, 0)

    if cap is not None and g.n > cap:
        used = 0
        greedy: list[tuple[int, ...]] = []
        for i, p in enumerate(iter_induced_paths(g, x, y, allowed)):
            inner = mask_of(p[1:-1])
            if not inner & used:
                used |= inner
                greedy.append(p)
                if len(greedy) == ub:
                    break
            if i >= ENUMERATION_BUDGET:
                break
        fam = PathFamily(x, y, tuple(greedy))
        return PathPacking(len(greedy), fam, len(greedy) == ub, ub)

    paths = list(iter_induced_paths(g, x, y, allowed))
    interiors = [mask_of(p[1:-1]) for p in paths]
    best: list[int] = []

    def pack(i: int, used: int, chosen: list[int]) -> bool:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen.copy()
            if len(best) == ub:
                return True
        if i == len(paths) or len(chosen) + len(paths) - i <= len(best):
            return False
        if not interiors[i] & used:
            if pack(i + 1, used | interiors[i], chosen + [i]):
                return True
        return pack(i + 1, used, chosen)

    pack(0, 0, [])
    fam = PathFamily(x, y, tuple(paths[i] for i in best))
    return PathPacking(len(best), fam, True, len(best))


def separability(g: Graph, cap: int | None = PACKING_CAP) -> SeparabilityReport:
    """lambda_star over all nonadjacent pairs, scanned in lexicographic order.

    A pair that cannot beat the running maximum is skipped, which never
    changes the reported argmax because ties keep the earliest pair.  The
    test is two-staged: first the smaller degree of the two ends, which
    bounds the flow from above, and only then the flow bound itself, which
    the packing of a surviving pair reuses.
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
            r = _pack(g, x, y, within, ub, cap)
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
