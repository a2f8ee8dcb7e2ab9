"""Maximum families of internally disjoint induced paths between vertex pairs.

For nonadjacent x and y, the largest such family has exactly Menger's
number of internally disjoint x-y paths, induced or not.  Replace each path
P of a Menger family by a shortest x-y path of G[V(P)]: it is induced in G,
because G[V(P)] is an induced subgraph, its interior lies inside P's, and
that interior is nonempty because x and y are nonadjacent (Menger 1927).  So
the count is the value of the package's one max-flow,
:func:`~thetakit.graphs.max_disjoint_paths`, from the neighbours of x to the
neighbours of y with both ends removed, and the witness is that flow's
paths, each shortcut this way.  Both are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, PathFamily, _flow_paths, bfs_layers, iter_bits, mask_of, max_disjoint_paths


@dataclass(frozen=True)
class SeparabilityReport:
    """The exact maximum family size over all nonadjacent pairs, with its witness.

    ``lambda_star`` is the largest Menger number kappa(x, y) over nonadjacent
    pairs, which is also the largest family of internally disjoint induced
    x-y paths; ``pair`` is the first pair in lexicographic order that reaches
    it and ``witness`` such a family for that pair.  ``vacuous`` marks graphs
    without a nonadjacent pair, which are declared separable for every
    threshold; ``pair`` and ``witness`` are then absent.
    """

    lambda_star: int
    pair: tuple[int, int] | None
    witness: PathFamily | None
    vacuous: bool

    @property
    def exact(self) -> bool:
        # Always True; kept read-only because the benchmark harness still reads it.
        return True

    def is_separable(self, lam: int) -> bool:
        """lambda_star < lam, for a positive threshold lam."""
        if lam < 1:
            raise ValueError("separability threshold must be positive")
        return self.lambda_star < lam


def max_internally_disjoint_paths(g: Graph, x: int, y: int) -> PathFamily:
    """A largest family of pairwise internally disjoint induced x-y paths.

    The family has kappa(x, y) paths, one per path of the max-flow between the
    neighbourhoods of x and y in ascending order of its first vertex.  Each
    flow path, with x prepended and y appended, is shortcut to a shortest x-y
    path of the graph it induces: a breadth-first search from x that goes
    back from y through the least neighbour in each earlier layer.  A
    shortest path of an induced subgraph is induced, and its interior lies
    inside the flow path's, so the paths stay internally disjoint.
    """
    if not g.has_vertices((x, y)):
        raise ValueError("endpoints must be vertices of the graph")
    if x == y:
        raise ValueError("endpoints must differ")
    if g.has_edge(x, y):
        raise ValueError("endpoints must be nonadjacent")
    within = g.full_mask & ~(1 << x) & ~(1 << y)
    paths = tuple(_shortcut(g, (x, *p, y)) for p in _flow_paths(g, g.adj[x], g.adj[y], within))
    return PathFamily(x, y, paths)


def _shortcut(g: Graph, walk: tuple[int, ...]) -> tuple[int, ...]:
    # A shortest walk[0]-walk[-1] path of G[walk], the least vertex taken in each layer.
    layers = bfs_layers(g, walk[0], mask_of(walk))
    v = walk[-1]
    depth = next(i for i, layer in enumerate(layers) if layer >> v & 1)
    back = [v]
    for layer in reversed(layers[:depth]):
        near = layer & g.adj[v]
        v = (near & -near).bit_length() - 1
        back.append(v)
    return tuple(reversed(back))


def separability(g: Graph) -> SeparabilityReport:
    """lambda_star over all nonadjacent pairs, scanned in lexicographic order.

    A pair's count is its flow value.  A pair whose smaller degree (which
    bounds the flow from above) cannot beat the running maximum gets no
    flow, which never changes the reported argmax because ties keep the
    earliest pair.  Once a pair is found, such an x is skipped with all its
    pairs, x's loop ends once the maximum reaches its degree, and such a y,
    taken from x's non-neighbours above x, is skipped.  The witness is built
    once, for the winning pair.
    """
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    best_count = 0
    best_pair = None
    for x in range(g.n):
        if best_pair is not None and deg[x] <= best_count:
            continue
        for y in iter_bits(g.full_mask & ~adj[x] >> (x + 1) << (x + 1)):
            if best_pair is not None and deg[y] <= best_count:
                continue
            count = max_disjoint_paths(g, adj[x], adj[y], g.full_mask & ~(1 << x) & ~(1 << y))
            if best_pair is None or count > best_count:
                best_count = count
                best_pair = (x, y)
                if count == deg[x]:
                    break
    if best_pair is None:
        return SeparabilityReport(lambda_star=0, pair=None, witness=None, vacuous=True)
    return SeparabilityReport(
        lambda_star=best_count,
        pair=best_pair,
        witness=max_internally_disjoint_paths(g, *best_pair),
        vacuous=False,
    )
