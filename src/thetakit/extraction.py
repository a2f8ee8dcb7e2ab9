"""Certificate-producing search pipelines with typed outcomes.

Every operation here mirrors a counting argument whose guaranteed regime
involves astronomically large inputs.  Run at desk scale, the searches are
exact and total: they either produce the promised structure, surface the
structure whose absence the argument assumed (a theta, a large clique, an
induced complete bipartite graph), or report precisely which numeric
threshold the input fails to meet.  Nothing is probabilistic and nothing is
approximated; identical inputs always yield identical outcomes and identical
traces.

Outcomes come in three shapes.  ``Success`` carries the structure the
operation set out to build.  ``PreconditionWitness`` carries a violation of a
hypothesis the surrounding argument takes for granted, reified as a
first-class object that validates against the input graph.  ``ThresholdUnmet``
names the failed bound, the required amount (an exact integer or a
:class:`~thetakit.bigconst.TowerInt` when the default bounds are in force),
and the amount actually available.  All three carry the trace of proof steps
taken up to that point.

Numeric bounds are injectable through a threshold policy.  ``PaperThresholds``
uses the exact default bounds, compared symbolically, so desk-sized inputs
fail them early and report the true required quantity.  ``FixedThresholds``
substitutes small integers by name so every branch of every pipeline can be
exercised; a value of zero makes a gate trivially pass and makes extraction
targets minimum-viable, with searches returning the largest structure found
rather than a trimmed one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NoReturn, Sequence

from .bigconst import TowerInt, evaluate, nat, normalize, sigma, tower_compare, tree_constants
from .detectors import (
    Embedding,
    ThetaWitness,
    _largest,
    check_cap,
    clique_number,
    find_biclique,
    find_induced,
    theta_witness_violation,
    three_in_a_tree,
)
from .graphs import (
    ABTreeCert,
    Digraph,
    Graph,
    PathFamily,
    _first_overlap,
    bfs_layers,
    build_digraph,
    build_graph,
    connected_components,
    induced_subgraph,
    is_clique,
    is_stable_set,
    iter_bits,
    iter_induced_paths,
    mask_of,
    path_family_violation,
    relabel,
)

EXTRACTION_CAP = 48
FANOUT_CAP = 200_000


@dataclass(frozen=True)
class TraceStep:
    """One logged proof step: a threshold comparison, a chosen set, a branch.

    ``data`` is a flat tuple of hashable values whose meaning depends on
    ``kind``: thresholds log (required, available, met), choices log the
    chosen objects, branches log the direction taken.  Every vertex a step
    names is a vertex of the pipeline's input graph.  Positions in a built
    auxiliary graph (Gamma, Gamma_prime, D) are logged after the ``build``
    step that defines them.
    """

    op: str
    kind: str
    label: str
    data: tuple


@dataclass(frozen=True)
class Success:
    """The operation built what it promised; ``value`` is op-specific."""

    value: object
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class PreconditionWitness:
    """A violated hypothesis, surfaced as a structure in the input graph.

    ``kind`` is one of "theta", "clique", "biclique"; ``witness`` is a
    :class:`~thetakit.detectors.ThetaWitness`, a vertex tuple, or a
    :class:`Biclique` respectively.
    """

    kind: str
    witness: object
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class ThresholdUnmet:
    """A named bound failed: ``available`` fell short of ``required``."""

    name: str
    required: object
    available: int
    trace: tuple[TraceStep, ...]


Outcome = Success | PreconditionWitness | ThresholdUnmet


class _Exit(Exception):
    """Ends a pipeline run early, carrying its finished unmet or witness."""

    # Read from args: a Python-level __init__ would slow every exit.
    @property
    def outcome(self) -> ThresholdUnmet | PreconditionWitness:
        return self.args[0]


def _unmet(steps: list, name: str, required, available: int) -> NoReturn:
    raise _Exit(ThresholdUnmet(name, required, available, tuple(steps)))


def _witness(steps: list, kind: str, witness) -> NoReturn:
    raise _Exit(PreconditionWitness(kind, witness, tuple(steps)))


def _settle(body: Callable[[list], object]) -> Outcome:
    """Run a pipeline body on a fresh trace.

    The body's return value is the ``Success`` value; a private step that
    ends the run early raises ``_Exit``, whose outcome is returned as is.
    """
    steps: list[TraceStep] = []
    try:
        value = body(steps)
    except _Exit as e:
        return e.outcome
    return Success(value, tuple(steps))


@dataclass(frozen=True)
class Biclique:
    """An induced complete bipartite subgraph, as its two sides."""

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


def biclique_violation(g: Graph, w: Biclique) -> str | None:
    """The first broken biclique invariant, or None if the witness is valid."""
    a, b = w.side_a, w.side_b
    if not a or not b:
        return "both sides must be nonempty"
    if len(a) != len(b):
        return "the sides must have equal size"
    if len(set(a)) != len(a) or len(set(b)) != len(b) or set(a) & set(b):
        return "the sides must be disjoint and repetition-free"
    if not g.has_vertices((*a, *b)):
        return "vertices outside the graph"
    if not is_stable_set(g, mask_of(a)) or not is_stable_set(g, mask_of(b)):
        return "each side must be a stable set"
    for u in a:
        for v in b:
            if not g.has_edge(u, v):
                return f"missing cross edge {u}-{v}"
    return None


def witness_violation(g: Graph, w: PreconditionWitness) -> str | None:
    """The first broken invariant of a precondition witness, or None."""
    if w.kind == "theta":
        return theta_witness_violation(g, w.witness)
    if w.kind == "clique":
        vs = w.witness
        if len(set(vs)) != len(vs) or len(vs) < 2:
            return "a clique witness needs at least two distinct vertices"
        if not g.has_vertices(vs):
            return "vertices outside the graph"
        if not is_clique(g, mask_of(vs)):
            return "the vertices are not pairwise adjacent"
        return None
    if w.kind == "biclique":
        return biclique_violation(g, w.witness)
    return f"unknown witness kind {w.kind!r}"


# --------------------------------------------------------------------------
# threshold policies: an ambient clique bound ``t`` and ``value(name, default)``


class PaperThresholds:
    """Exact default bounds, compared symbolically via tower arithmetic.

    ``t`` is the ambient clique bound the default formulas depend on; it must
    be at least 1 and defaults to 3, the smallest value the arguments ever
    need.  Desk-sized inputs fail these bounds immediately, which is the
    point: the reported ``required`` value is the true one.
    """

    def __init__(self, t: int = 3):
        if t < 1:
            raise ValueError("the clique bound must be positive")
        self.t = t

    def value(self, name: str, default: Callable[[], TowerInt]):
        return normalize(default())


class FixedThresholds:
    """Small-integer overrides by threshold name, for exercising branches.

    Known names: path_count, tip_stable, length_three, branch_q, paths_r,
    fanout_high, stable_size, clique_bound, family_size, x_minus, zeta_0,
    zeta_1, zeta_2, gamma_stable, xi_0, xi_1, xi_2.  Unlisted names fall back
    to ``default``.  A value of zero lets the gate pass on any input and
    shrinks extraction targets to their structural minimum.  The clique
    bound ``t`` is 3, the paper policy's default; no default formula is ever
    evaluated here, so it only completes the policy interface.
    """

    t = 3

    def __init__(self, default: int = 0, **named: int):
        if default < 0 or any(v < 0 for v in named.values()):
            raise ValueError("threshold overrides must be nonnegative")
        self.default = default
        self.named = dict(named)

    def value(self, name: str, default: Callable[[], TowerInt]):
        return self.named.get(name, self.default)


def _clique_bound(policy) -> int:
    # The clique bound the descent formulas raise to powers, at least 3.  The
    # paper policy gives the literal nat(t), whose int is exact at any size.
    v = policy.value("clique_bound", lambda: nat(policy.t))
    return max(v.args[0] if isinstance(v, TowerInt) else v, 3)


def _check(steps, policy, op, name, default, available):
    """Log one threshold comparison; the requirement if it failed, else None."""
    v = policy.value(name, default)
    ok = tower_compare(nat(available), v) >= 0 if isinstance(v, TowerInt) else available >= v
    steps.append(TraceStep(op, "threshold", name, (v, available, ok)))
    return None if ok else v


def _gate(steps, policy, op, name, default, available) -> None:
    v = _check(steps, policy, op, name, default, available)
    if v is not None:
        _unmet(steps, name, v, available)


def _target(steps, policy, op, name, default, minimum, available) -> int:
    # A target too large to materialize as a 9-digit int cannot be met.
    v = policy.value(name, default)
    amt = evaluate(v, cap=9) if isinstance(v, TowerInt) else v
    steps.append(TraceStep(op, "threshold", name, (v, available, amt is not None)))
    if amt is None:
        _unmet(steps, name, v, available)
    return max(amt, minimum)


# --------------------------------------------------------------------------
# base extractions


def _ramsey_search(g: Graph, mask: int, t: int, alpha: int):
    if t == 1:
        if mask:
            return "clique", ((mask & -mask).bit_length() - 1,)
        return None
    if alpha == 1:
        if mask:
            return "stable", ((mask & -mask).bit_length() - 1,)
        return None
    if not mask:
        return None
    v = (mask & -mask).bit_length() - 1
    hit = _ramsey_search(g, mask & g.adj[v], t - 1, alpha)
    if hit is not None:
        kind, vs = hit
        if kind == "clique":
            return "clique", (v,) + vs
        return hit
    hit = _ramsey_search(g, mask & ~g.adj[v] & ~(1 << v), t, alpha - 1)
    if hit is not None:
        kind, vs = hit
        if kind == "stable":
            return "stable", (v,) + vs
        return hit
    return None


def _ramsey(g: Graph, t: int, alpha: int, steps: list) -> tuple[str, tuple[int, ...]]:
    if t < 1 or alpha < 1:
        raise ValueError("both targets must be positive")
    hit = _ramsey_search(g, g.full_mask, t, alpha)
    if hit is None:
        required = math.comb(t + alpha - 2, t - 1)
        steps.append(TraceStep("ramsey_extract", "threshold", "ramsey_order", (required, g.n, False)))
        _unmet(steps, "ramsey_order", required, g.n)
    kind, vs = hit
    steps.append(TraceStep("ramsey_extract", "choose", kind, vs))
    return hit


def ramsey_extract(g: Graph, t: int, alpha: int) -> Outcome:
    """A clique of size t or a stable set of size alpha, if either is found.

    At or above ``binom(t + alpha - 2, t - 1)`` vertices one of the two must
    exist and the two-branch recursion finds it; below that the search is
    best-effort and a miss reports the order bound as unmet.
    """
    return _settle(lambda steps: _ramsey(g, t, alpha, steps))


def _biclique_or_clique(g: Graph, within: int, s: int, t: int, steps: list, op: str, prefix: str) -> tuple[str, object] | None:
    """An induced K_{s,s} of G[within], else a clique of at least t vertices, else None.

    The choice is logged under ``op`` as ``prefix`` + "biclique" or "clique".
    """
    emb = find_biclique(g, s, cap=None, within=within)
    if emb is not None:
        w = Biclique(emb.phi[:s], emb.phi[s:])
        steps.append(TraceStep(op, "choose", prefix + "biclique", (w.side_a, w.side_b)))
        return "biclique", w
    size, clique = clique_number(g, within)
    if size >= t:
        steps.append(TraceStep(op, "choose", prefix + "clique", clique))
        return "clique", clique
    return None


def _eh(g: Graph, within: int, s: int, t: int, alpha: int, steps: list, cap: int | None) -> tuple[str, object]:
    if s < 1 or t < 1 or alpha < 1:
        raise ValueError("all three targets must be positive")
    n = within.bit_count()
    check_cap("eh_extract", n, cap)
    stable = _largest(g.adj, within, -1)
    if len(stable) >= alpha:
        steps.append(TraceStep("eh_extract", "choose", "stable", stable))
        return "stable", stable
    hit = _biclique_or_clique(g, within, s, t, steps, "eh_extract", "")
    if hit is not None:
        return hit
    required = alpha**s * t ** (s - 1)
    steps.append(TraceStep("eh_extract", "threshold", "eh_order", (required, n, False)))
    _unmet(steps, "eh_order", required, n)


def eh_extract(g: Graph, s: int, t: int, alpha: int, cap: int | None = EXTRACTION_CAP) -> Outcome:
    """A stable set, an induced K_{s,s}, or a clique of size t, stable first.

    The stable search is exact and the returned set is a largest one, not
    trimmed to ``alpha``; at or above ``alpha^s * t^(s-1)`` vertices one of
    the three outcomes is guaranteed to exist.
    """
    return _settle(lambda steps: _eh(g, g.full_mask, s, t, alpha, steps, cap))


def _digraph_stable(d: Digraph, r: int, s: int, steps: list, cap: int | None) -> tuple[int, ...]:
    if r < 0 or s < 1:
        raise ValueError("the degree bound must be nonnegative and the target positive")
    low = [v for v in range(d.n) if d.out_degree(v) <= r]
    steps.append(TraceStep("digraph_stable", "choose", "low", tuple(low)))
    check_cap("digraph_stable", len(low), cap)
    # Adjacency of the underlying graph: out-arcs plus reversed ones.
    both = list(d.out)
    for u, v in d.arcs():
        both[v] |= 1 << u
    found = _largest(both, mask_of(low), -1)
    steps.append(TraceStep("digraph_stable", "choose", "stable", found))
    if len(found) < s:
        _unmet(steps, "digraph_low", (2 * r + 1) * (s - 1) + 1, len(low))
    return found


def digraph_stable(d: Digraph, r: int, s: int, cap: int | None = EXTRACTION_CAP) -> Outcome:
    """A largest stable set among vertices of out-degree at most r.

    Stability is in the underlying graph: no arc either way between chosen
    vertices.  That graph, on the n vertices of out-degree at most r, has
    average degree at most 2r, so by Caro–Wei it holds a stable set of at
    least n / (2r + 1) vertices.  With at least (2r + 1)(s - 1) + 1 of them
    a stable set of size s always exists; s - 1 disjoint regular tournaments
    on 2r + 1 vertices show the bound is tight.  A miss reports that bound.
    """
    return _settle(lambda steps: _digraph_stable(d, r, s, steps, cap))


def _fanout_assignment(
    d: Digraph, vs: Sequence[int], r: int, forbidden: int
) -> tuple[tuple[int, ...], ...] | None:
    """Pairwise disjoint r-subsets of out-neighbors, one per vertex of vs."""

    def rec(i: int, used: int):
        if i == len(vs):
            return ()
        pool = d.out[vs[i]] & ~forbidden & ~used
        for sub in itertools.combinations(iter_bits(pool), r):
            rest = rec(i + 1, used | mask_of(sub))
            if rest is not None:
                return (sub,) + rest
        return None

    return rec(0, 0)


def _digraph_fanout(
    d: Digraph, q: int, r: int, s: int, steps: list, cap: int | None
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...] | None]:
    # S, and the assignment verified for its last q-subset (S itself when
    # s = q); None when s < q leaves S no q-subset.
    if q < 1 or r < 1 or s < 1:
        raise ValueError("all three parameters must be positive")
    high = [v for v in range(d.n) if d.out_degree(v) >= q * r]
    steps.append(TraceStep("digraph_fanout", "choose", "high", tuple(high)))
    if len(high) >= s:
        check_cap("digraph_fanout", math.comb(len(high), s) * math.comb(s, q), cap)
        last = None
        for cand in itertools.combinations(high, s):
            forbidden = mask_of(cand)
            if all(
                (last := _fanout_assignment(d, sub, r, forbidden)) is not None
                for sub in itertools.combinations(cand, q)
            ):
                steps.append(TraceStep("digraph_fanout", "choose", "S", cand))
                return cand, last
    _unmet(steps, "digraph_high", 2 * q * r * s, len(high))


def digraph_fanout(d: Digraph, q: int, r: int, s: int, cap: int | None = FANOUT_CAP) -> Outcome:
    """An s-subset S of high-out-degree vertices with verified private fan-out.

    Every vertex of S has out-degree at least qr, and every q-subset of S
    admits q pairwise disjoint r-subsets of out-neighbors avoiding S, one per
    subset member; the property is verified exhaustively.  With at least 2qrs
    vertices of out-degree at least qr such a subset always exists.
    """
    return _settle(lambda steps: _digraph_fanout(d, q, r, s, steps, cap)[0])


# --------------------------------------------------------------------------
# anticomplete families


def _stable_in(g: Graph, within: int, s: int, t: int, alpha: int, steps: list, cap: int | None = EXTRACTION_CAP) -> tuple[int, ...]:
    """The stable set the stable-first search finds in G[within].  A clique or an
    induced K_{s,s} contradicts the caller's assumption and ends the run as its witness."""
    kind, payload = _eh(g, within, s, t, alpha, steps, cap)
    if kind != "stable":
        _witness(steps, kind, payload)
    return payload


def _zeta_descent(g: Graph, w_sets, alpha: int, s: int, t_like: int, policy, steps: list) -> tuple[tuple[int, ...], ...]:
    op = "anticomplete_family"
    gs = nat(2 * s) ** nat(2 * s - 1)

    def zeta_2():
        return nat(alpha) ** gs.minus(1)

    def zeta_1():
        return zeta_2() ** nat(s) * nat(t_like) ** nat(s - 1)

    def zeta_0():
        return zeta_1() ** nat(s) * nat(t_like) ** nat(s - 1)

    _gate(steps, policy, op, "zeta_0", zeta_0, len(w_sets))
    xs = [w[0] for w in w_sets]
    ys = [w[1] for w in w_sets]

    z1 = _target(steps, policy, op, "zeta_1", zeta_1, 1, len(w_sets))
    chosen = set(_stable_in(g, mask_of(xs), s, t_like, min(z1, len(w_sets)), steps))
    i1 = [i for i, x in enumerate(xs) if x in chosen]
    steps.append(TraceStep(op, "choose", "I_1", tuple(i1)))

    z2 = _target(steps, policy, op, "zeta_2", zeta_2, 1, len(i1))
    chosen = set(_stable_in(g, mask_of(ys[i] for i in i1), s, t_like, min(z2, len(i1)), steps))
    i2 = [i for i in i1 if ys[i] in chosen]
    steps.append(TraceStep(op, "choose", "I_2", tuple(i2)))

    # Indices keep their input order, so position order in i2 is index order.
    gamma_edges = []
    for a in range(len(i2)):
        for b in range(a + 1, len(i2)):
            i, j = i2[a], i2[b]
            if not g.has_edge(xs[i], ys[j]) and not g.has_edge(xs[j], ys[i]):
                gamma_edges.append((a, b))
    steps.append(TraceStep(op, "build", "Gamma", (tuple(i2), tuple(gamma_edges))))
    gamma = build_graph(len(i2), gamma_edges)

    # A stable target below 2 would let a single vertex satisfy the stable
    # side and starve the clique search that carries the success path.
    gtarget = _target(steps, policy, op, "gamma_stable", lambda: gs, 2, len(i2))
    kind, payload = _ramsey(gamma, alpha, max(2, min(gtarget, len(i2))), steps)
    if kind == "clique":
        i3 = [i2[k] for k in payload]
        steps.append(TraceStep(op, "choose", "I_3", tuple(i3)))
        return tuple(w_sets[i] for i in i3)

    picked = [i2[k] for k in payload]
    prime_edges = []
    for a in range(len(picked)):
        for b in range(a + 1, len(picked)):
            if g.has_edge(xs[picked[a]], ys[picked[b]]):
                prime_edges.append((a, b))
    steps.append(TraceStep(op, "build", "Gamma_prime", (tuple(picked), tuple(prime_edges))))
    prime = build_graph(len(picked), prime_edges)
    kind, payload = _ramsey(prime, 2 * s, 2 * s, steps)
    origs = [picked[k] for k in payload]
    if kind == "clique":
        side_a = tuple(sorted(xs[i] for i in origs[:s]))
        side_b = tuple(sorted(ys[j] for j in origs[s:]))
    else:
        side_a = tuple(sorted(xs[j] for j in origs[s:]))
        side_b = tuple(sorted(ys[i] for i in origs[:s]))
    steps.append(TraceStep(op, "choose", "K_ss", (side_a, side_b)))
    _witness(steps, "biclique", Biclique(side_a, side_b))


def _xi_descent(g: Graph, w_sets, alpha: int, s: int, r: int, t_like: int, policy, steps: list) -> tuple[tuple[int, ...], ...]:
    op = "anticomplete_family"
    prev = sigma(s, r - 1)

    def xi_2():
        return nat(alpha) ** prev * nat(t_like) ** prev.minus(1)

    def xi_1():
        return xi_2() ** prev * nat(t_like) ** prev.minus(1)

    def xi_0():
        return xi_1() ** prev * nat(t_like) ** prev.minus(1)

    _gate(steps, policy, op, "xi_0", xi_0, len(w_sets))

    # Stage k removes the vertex at sorted position k from every surviving
    # set; the last stage asks for alpha itself, not a threshold-sized family.
    live = list(range(len(w_sets)))
    for k, (label, key) in enumerate((("xi_1", xi_1), ("xi_2", xi_2), (None, None))):
        target = alpha
        if label is not None:
            target = min(_target(steps, policy, op, label, key, 1, len(live)), len(live))
        sub_sets = [w_sets[i][:k] + w_sets[i][k + 1:] for i in live]
        family = _anticomplete(g, sub_sets, target, s, policy, steps)
        positions = {frozenset(x): i for x, i in zip(sub_sets, live)}
        live = sorted(positions[frozenset(x)] for x in family)
        steps.append(TraceStep(op, "choose", f"I_{k + 1}", tuple(live)))
    return tuple(w_sets[i] for i in live)


def _anticomplete(g: Graph, clean, alpha: int, s: int, policy, steps: list) -> tuple[tuple[int, ...], ...]:
    """The descent behind ``anticomplete_family``, on a family taken as given.

    ``clean`` is a nonempty list of pairwise disjoint, nonempty, sorted
    tuples of vertices of g, and ``alpha`` and ``s`` are positive.
    ``anticomplete_family`` checks this of the caller's family; every
    recursive call passes one it built so: a subfamily, each set less one
    vertex, or the vertex sets of disjoint subtrees.
    """
    op = "anticomplete_family"
    masks = [mask_of(x) for x in clean]
    pair = _first_overlap(masks, g.adj)
    t_like = _clique_bound(policy)
    r = max(len(x) for x in clean)
    steps.append(TraceStep(op, "branch", "r", (r, alpha, s)))

    if len(clean) >= alpha and pair is None:
        # The whole family already has the property; selection is trivial.
        result = tuple(clean[:alpha])
        steps.append(TraceStep(op, "choose", "family", result))
        return result

    if alpha == 1:
        steps.append(TraceStep(op, "choose", "family", (clean[0],)))
        return (clean[0],)

    if s == 1:
        # Any cross edge is already the forbidden K_{1,1}: the least u of the
        # first pair of sets that see each other, and its least neighbour.
        if pair is not None:
            i, j = pair
            u = next(u for u in clean[i] if g.adj[u] & masks[j])
            _witness(steps, "biclique", Biclique((u,), (next(iter_bits(g.adj[u] & masks[j])),)))
        _gate(steps, policy, op, "family_size", lambda: nat(alpha), len(clean))
        steps.append(TraceStep(op, "choose", "family", tuple(clean)))
        return tuple(clean)

    if r == 1:
        chosen = set(_stable_in(g, mask_of(x[0] for x in clean), s, t_like, alpha, steps))
        result = tuple(x for x in clean if x[0] in chosen)
        steps.append(TraceStep(op, "choose", "family", result))
        return result

    smaller = [x for x in clean if len(x) <= r - 1]
    if smaller:

        def x_minus():
            sig = sigma(s, r - 1)
            return nat(alpha) ** sig * nat(t_like) ** sig.minus(1)

        if _check(steps, policy, op, "x_minus", x_minus, len(smaller)) is None:
            try:
                return _anticomplete(g, smaller, alpha, s, policy, steps)
            except _Exit as e:
                if not isinstance(e.outcome, ThresholdUnmet):
                    raise
            steps.append(TraceStep(op, "branch", "x_minus_shortfall", ()))

    w_sets = [x for x in clean if len(x) == r]
    try:
        if r == 2:
            return _zeta_descent(g, w_sets, alpha, s, t_like, policy, steps)
        return _xi_descent(g, w_sets, alpha, s, r, t_like, policy, steps)
    except _Exit as e:
        if not isinstance(e.outcome, ThresholdUnmet):
            raise
        # The counting has run out, but the structures whose absence it assumed
        # may be present at desk scale; surfacing one beats a bare shortfall.
        hit = _biclique_or_clique(g, mask_of(v for w in w_sets for v in w), s, t_like, steps, op, "fallback_")
        if hit is not None:
            _witness(steps, *hit)
        raise


def anticomplete_family(g: Graph, sets, alpha: int, s: int, thresholds=None) -> Outcome:
    """``alpha`` members of a family of small vertex sets, pairwise anticomplete.

    The family must consist of pairwise disjoint nonempty sets.  The descent
    splits on the largest set size: singletons go through the stable-first
    search, pairs through the two auxiliary-graph reductions, and larger sets
    recurse on themselves with one vertex removed three different ways.  When
    a reduction runs out of room, the working vertices are scanned directly
    for an induced K_{s,s} and a large clique before the shortfall is
    reported.
    """
    clean = [tuple(sorted(set(x))) for x in sets]
    if not clean or not all(clean):
        raise ValueError("the family must be a nonempty list of nonempty sets")
    if not all(g.has_vertices(x) for x in clean):
        raise ValueError("the family mentions vertices outside the graph")
    pair = _first_overlap([mask_of(x) for x in clean])
    if pair is not None:
        raise ValueError(f"sets {pair[0]} and {pair[1]} overlap")
    if alpha < 1 or s < 1:
        raise ValueError("the targets must be positive")
    policy = thresholds if thresholds is not None else PaperThresholds()
    return _settle(lambda steps: _anticomplete(g, clean, alpha, s, policy, steps))


# --------------------------------------------------------------------------
# tree growing


@dataclass(frozen=True)
class _Subtree:
    root: int
    vertices: tuple[int, ...]
    parent: tuple[tuple[int, int], ...]


def _viable_paths(a: int, depth: int) -> int:
    # Smallest family size from which a depth-`depth` subtree can still be
    # assembled: each level consumes child-count chosen paths plus the
    # disjoint sub-families assigned to them.
    size = 1
    for _ in range(depth - 1):
        size = max(a - 1, 1) * (1 + size)
    return size


def _low_branch_theta(g: Graph, x: int, chosen_paths, steps: list) -> NoReturn:
    op = "grow_ab_tree"
    region = mask_of(v for p in chosen_paths for v in p) & ~(1 << x)
    z = tuple(sorted(p[1] for p in chosen_paths))
    steps.append(TraceStep(op, "choose", "Z", z))
    tree = three_in_a_tree(g, z, cap=None, within=region)
    if tree is None:
        steps.append(TraceStep(op, "branch", "constricted", ()))
        _unmet(steps, "three_in_tree", 1, 0)
    # S is stable in D, so each tip sees only its own path and no tip is the
    # hub: the tree is a spider, each leg the tree's one tip-center path.
    tmask = mask_of(tree)
    center = next((v for v in tree if (g.adj[v] & tmask).bit_count() == 3), None)
    if center is None:
        raise RuntimeError("the tree on the family tips must be a spider")
    paths = tuple((x,) + next(iter_induced_paths(g, tip, center, tmask)) for tip in z if tmask >> tip & 1)
    steps.append(TraceStep(op, "choose", "theta", paths))
    _witness(steps, "theta", ThetaWitness(x, center, paths))


def _check_family(g: Graph, x: int, y: int, fam: PathFamily) -> None:
    if fam.x != x or fam.y != y:
        raise ValueError("the family ends must match the given vertices")
    bad = path_family_violation(g, fam)
    if bad is not None:
        raise ValueError(bad)


def _grow(g, x, y, fam, a, b, child_count, policy, steps) -> _Subtree:
    # a, b and fam were checked on entry, or where a derived fam was built.
    op = "grow_ab_tree"

    def consts(n):
        return tree_constants(a, n)

    def path_count():
        _, mu, lam = consts(b)
        return mu * nat(policy.t) ** lam

    _gate(steps, policy, op, "path_count", path_count, len(fam.paths))
    if b == 1:
        steps.append(TraceStep(op, "choose", "T", (x,)))
        return _Subtree(x, (x,), ())

    t_like = _clique_bound(policy)
    tips = fam.tips()

    def q_default():
        th, _, _ = consts(b)
        return nat(a) ** th * nat(t_like) ** th.minus(1)

    def r_default():
        _, mu, lam = consts(b - 1)
        return mu * nat(t_like) ** lam

    def tip_target():
        th, _, _ = consts(b)
        return (3 * nat(a) ** (2 * th) + 2) * (nat(t_like) ** (2 * th.minus(1)) * r_default())

    alpha_t = _target(steps, policy, op, "tip_stable", tip_target, 1, len(tips))
    # The family is caller-controlled, so the tip search here and the low
    # branch's stable-set and tree searches run uncapped; the capped
    # operations protect only the adversarial-input entry points.
    stable_tips = set(_stable_in(g, mask_of(tips), 3, t_like, alpha_t, steps, cap=None))
    q_paths = [p for p in fam.paths if p[1] in stable_tips]
    steps.append(TraceStep(op, "choose", "X_Q", tuple(sorted(stable_tips))))

    short = [p for p in q_paths if len(p) == 3]
    if len(short) >= 3:
        steps.append(TraceStep(op, "choose", "theta", tuple(short[:3])))
        _witness(steps, "theta", ThetaWitness(x, y, tuple(short[:3])))
    long_paths = [p for p in q_paths if len(p) >= 4]
    steps.append(TraceStep(op, "choose", "L", tuple(long_paths)))

    def l_target():
        return 3 * q_default() ** nat(2) * r_default()

    _gate(steps, policy, op, "length_three", l_target, len(long_paths))
    q_int = _target(steps, policy, op, "branch_q", q_default, max(child_count, 1), len(long_paths))
    r_int = _target(steps, policy, op, "paths_r", r_default, _viable_paths(a, b - 1), len(long_paths))
    steps.append(TraceStep(op, "choose", "q", (q_int,)))
    steps.append(TraceStep(op, "choose", "r", (r_int,)))

    interiors = [mask_of(p[1:-1]) for p in long_paths]
    arcs = []
    for i, p in enumerate(long_paths):
        reach = g.adj[p[1]]
        for j, other in enumerate(interiors):
            if i != j and reach & other:
                arcs.append((i, j))
    d = build_digraph(len(long_paths), arcs)
    steps.append(TraceStep(op, "build", "D", tuple(sorted(arcs))))

    def high_target():
        return 2 * q_default() ** nat(2) * r_default()

    high = sum(1 for v in range(d.n) if d.out_degree(v) >= q_int * r_int)
    if _check(steps, policy, op, "fanout_high", high_target, high) is not None:
        steps.append(TraceStep(op, "branch", "direction", ("low",)))
        s_int = _target(steps, policy, op, "stable_size", lambda: nat(t_like) ** nat(36), 3, d.n)
        stable = _digraph_stable(d, q_int * r_int, s_int, steps, None)
        steps.append(TraceStep(op, "choose", "S", stable))
        _low_branch_theta(g, x, [long_paths[i] for i in stable], steps)

    steps.append(TraceStep(op, "branch", "direction", ("high",)))
    s_positions, assignment = _digraph_fanout(d, q_int, r_int, q_int, steps, FANOUT_CAP)
    subtrees = []
    for i, pos in enumerate(s_positions):
        p_i = long_paths[pos]
        tip = p_i[1]
        r_set = assignment[i]
        steps.append(TraceStep(op, "choose", "L_i", (pos,) + tuple(r_set)))
        steps.append(TraceStep(op, "choose", "R_i", tuple(long_paths[j] for j in r_set)))
        derived = []
        for j in r_set:
            route = long_paths[j]
            inner = route[1:-1]
            hits = [k for k, v2 in enumerate(inner) if g.has_edge(tip, v2)]
            w = hits[-1]
            derived.append((tip,) + tuple(inner[w:]) + (y,))
        derived.sort()
        steps.append(TraceStep(op, "choose", "P_R", tuple(derived)))
        sub_fam = PathFamily(tip, y, tuple(derived))
        bad = path_family_violation(g, sub_fam)
        if bad is not None:
            raise RuntimeError(f"derived family broke an invariant: {bad}")
        subtrees.append(_grow(g, tip, y, sub_fam, a, b - 1, a - 1, policy, steps))

    family = _anticomplete(g, [t.vertices for t in subtrees], child_count, 3, policy, steps)
    positions = {frozenset(t.vertices): i for i, t in enumerate(subtrees)}
    kept = sorted(positions[frozenset(s)] for s in family)[:child_count]
    steps.append(TraceStep(op, "choose", "I", tuple(kept)))
    vertices = [x]
    parent: list[tuple[int, int]] = []
    for i in kept:
        t = subtrees[i]
        vertices.extend(t.vertices)
        parent.extend(t.parent)
        parent.append((t.root, x))
    return _Subtree(x, tuple(sorted(vertices)), tuple(sorted(parent)))


def grow_ab_tree(g: Graph, x: int, y: int, fam: PathFamily, a: int, b: int, thresholds=None) -> Outcome:
    """Grow a depth-b tree rooted at x inside the union of an x-y path family.

    The paths must be pairwise internally disjoint with x and y nonadjacent.
    The pipeline follows the inductive argument: a stable set of path tips,
    a theta from three two-edge paths when they appear, a digraph over the
    surviving paths, then either a fan-out into disjoint sub-families that
    recurse one level down, or a stable path set whose tips feed the induced
    three-in-a-tree search and assemble a theta.  Success yields a certificate
    whose root has exactly ``a`` children and every internal vertex ``a - 1``.
    """
    if a < 1 or b < 1:
        raise ValueError("tree parameters must be positive")
    if a == 1 and b > 2:
        raise ValueError("branching 1 cannot reach depth beyond 1")
    _check_family(g, x, y, fam)
    policy = thresholds if thresholds is not None else PaperThresholds()

    def body(steps):
        tree = _grow(g, x, y, fam, a, b, a, policy, steps)
        return ABTreeCert(a=a, b=b, root=x, vertices=tree.vertices, parent=tree.parent)

    return _settle(body)


# --------------------------------------------------------------------------
# forest embedding


def _completed_tree(h: Graph) -> Graph:
    comps = connected_components(h)
    if len(h.edges()) != h.n - len(comps):
        raise ValueError("the pattern must be a forest")
    apex = h.n
    edges = h.edges() + [((c & -c).bit_length() - 1, apex) for c in comps]
    return build_graph(h.n + 1, edges)


def embed_forest(g: Graph, x: int, y: int, fam: PathFamily, h: Graph, thresholds=None) -> Outcome:
    """An induced copy of the forest h inside the union of an x-y path family.

    The forest is first completed to a tree by one added vertex adjacent to
    the smallest vertex of each component; growing a tree of branching and
    depth ``|V(h)| + 1`` then guarantees an induced copy of the completion,
    located exhaustively, and the copy restricted to the original vertices is
    the answer.
    """
    policy = thresholds if thresholds is not None else PaperThresholds()
    hplus = _completed_tree(h)
    _check_family(g, x, y, fam)

    def body(steps):
        steps.append(TraceStep("embed_forest", "build", "H_plus", tuple(hplus.edges())))
        if h.n == 1:
            # One vertex embeds anywhere; no growth is needed, and growth could
            # even fail on hosts this small.  The root end is the deterministic pick.
            steps.append(TraceStep("embed_forest", "choose", "phi", (x,)))
            return Embedding(h, (x,))
        tree = _grow(g, x, y, fam, hplus.n, hplus.n, hplus.n, policy, steps)
        sub, back = induced_subgraph(g, tree.vertices)
        order = [v for layer in bfs_layers(hplus, h.n) for v in iter_bits(layer)]
        perm = [0] * hplus.n
        for where, v in enumerate(order):
            perm[v] = where
        emb = find_induced(sub, relabel(hplus, perm))
        if emb is None:
            raise RuntimeError("the grown tree must contain the completed pattern")
        phi = tuple(back[emb.phi[perm[v]]] for v in range(h.n))
        steps.append(TraceStep("embed_forest", "choose", "phi", phi))
        return Embedding(h, phi)

    return _settle(body)
