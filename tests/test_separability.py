"""Induced path packing against the subset-enumeration oracle and frozen values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import max_disjoint_path_family
from thetakit.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    line_graph,
    path_graph,
    petersen,
    random_graph,
    theta_graph,
    wall,
)
from thetakit.graphs import build_graph, induced_subgraph, iter_induced_paths, mask_of, path_family_violation
from thetakit.separability import (
    PACKING_BUDGET,
    SeparabilityReport,
    max_internally_disjoint_paths,
    separability,
)


def reference_scan(g, budget):
    """separability with no skip: every nonadjacent pair is packed.

    The earliest strict maximum is kept.  ``exact`` holds when no pair
    packed inexactly has an upper bound above the maximum.
    """
    best = None
    open_bound = 0
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if g.has_edge(x, y):
                continue
            r = max_internally_disjoint_paths(g, x, y, budget)
            if not r.exact:
                open_bound = max(open_bound, r.upper_bound)
            if best is None or r.count > best[0]:
                best = (r.count, (x, y), r.family)
    if best is None:
        return SeparabilityReport(0, None, None, True, True)
    return SeparabilityReport(best[0], best[1], best[2], open_bound <= best[0], False)


def greedy_count(g, x, y):
    """The first-fit family over induced x-y paths in enumeration order."""
    used = 0
    count = 0
    for p in iter_induced_paths(g, x, y, g.full_mask & ~(1 << x) & ~(1 << y)):
        inner = mask_of(p[1:-1])
        if not inner & used:
            used |= inner
            count += 1
    return count


class TestPairMaximum:
    def test_biclique_branch_pair(self):
        g = complete_bipartite(2, 3)
        r = max_internally_disjoint_paths(g, 0, 1)
        assert (r.count, r.exact, r.upper_bound) == (3, True, 3)
        assert r.family.paths == ((0, 2, 1), (0, 3, 1), (0, 4, 1))
        assert path_family_violation(g, r.family) is None

    def test_cycle_arcs(self):
        r = max_internally_disjoint_paths(cycle_graph(5), 0, 2)
        assert r.count == 2
        assert path_family_violation(cycle_graph(5), r.family) is None

    def test_petersen_pairs(self):
        g = petersen()
        for x, y in [(0, 2), (0, 7), (1, 4)]:
            r = max_internally_disjoint_paths(g, x, y)
            assert r.count == 3 and r.exact
            assert path_family_violation(g, r.family) is None

    def test_no_route(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        r = max_internally_disjoint_paths(g, 0, 2)
        assert r.count == 0 and r.exact and r.family.paths == ()

    def test_single_long_route(self):
        r = max_internally_disjoint_paths(path_graph(5), 0, 4)
        assert r.count == 1 and r.family.paths == ((0, 1, 2, 3, 4),)
        with pytest.raises(TypeError):
            count, fam = r

    def test_preconditions(self):
        c5 = cycle_graph(5)
        with pytest.raises(ValueError):
            max_internally_disjoint_paths(c5, 0, 1)
        with pytest.raises(ValueError):
            max_internally_disjoint_paths(c5, 2, 2)
        with pytest.raises(ValueError):
            max_internally_disjoint_paths(c5, 0, 9)

    def test_oracle_agreement(self):
        for seed in range(140):
            g = random_graph(4 + seed % 7, 0.2 + (seed % 4) * 0.2, seed)
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    if g.has_edge(x, y):
                        continue
                    r = max_internally_disjoint_paths(g, x, y)
                    assert r.count == max_disjoint_path_family(g, x, y), (seed, x, y)
                    assert path_family_violation(g, r.family) is None
                    assert len(r.family.paths) == r.count

    def test_deleting_outsiders_keeps_maximum(self):
        for seed in range(40):
            g = random_graph(8, 0.35, seed)
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    if g.has_edge(x, y):
                        continue
                    r = max_internally_disjoint_paths(g, x, y)
                    on_paths = {v for p in r.family.paths for v in p} | {x, y}
                    outside = [v for v in range(g.n) if v not in on_paths]
                    if not outside:
                        continue
                    keep = sorted(set(range(g.n)) - {outside[0]})
                    h, old = induced_subgraph(g, keep)
                    r2 = max_internally_disjoint_paths(h, old.index(x), old.index(y))
                    assert r2.count >= r.count


class TestBoundedMode:
    def test_large_cycle_certified_by_flow(self):
        g = cycle_graph(20)
        r = max_internally_disjoint_paths(g, 0, 10)
        assert (r.count, r.exact, r.upper_bound) == (2, True, 2)
        assert path_family_violation(g, r.family) is None

    def test_flagged_when_uncertified(self):
        # Two branch vertices joined by 5 spokes of 3 interior vertices.
        edges = []
        n = 2
        for _ in range(5):
            a, b, c = n, n + 1, n + 2
            edges += [(0, a), (a, b), (b, c), (c, 1)]
            n += 3
        g = build_graph(n, edges)
        exact = max_internally_disjoint_paths(g, 0, 1, budget=None)
        cut = max_internally_disjoint_paths(g, 0, 1, budget=1)
        assert (exact.count, exact.exact, exact.upper_bound) == (5, True, 5)
        assert (cut.count, cut.exact, cut.upper_bound) == (1, False, 5)
        assert path_family_violation(g, cut.family) is None

    def test_budget_none_is_exhaustive(self):
        g = cycle_graph(18)
        r = max_internally_disjoint_paths(g, 0, 9, budget=None)
        assert r.count == 2 and r.exact

    def test_small_budgets_against_oracle_and_greedy(self):
        # The first dive takes at most deg(x) + 1 nodes and finds the greedy
        # family, so from that budget on the count never falls below it.
        cut_short = 0
        for seed in range(60):
            g = random_graph(8 + seed % 3, (0.3, 0.45, 0.6)[seed % 3], 900 + seed)
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    if g.has_edge(x, y):
                        continue
                    oracle = max_disjoint_path_family(g, x, y)
                    for budget in (0, 1, 2, 4, g.degree(x) + 1):
                        r = max_internally_disjoint_paths(g, x, y, budget)
                        assert path_family_violation(g, r.family) is None
                        assert len(r.family.paths) == r.count
                        assert r.count <= oracle <= r.upper_bound, (seed, x, y, budget)
                        assert not r.exact or r.count == oracle
                        if budget > g.degree(x):
                            assert r.count >= greedy_count(g, x, y), (seed, x, y)
                        cut_short += not r.exact
        assert cut_short


class TestReport:
    def test_complete_graphs_vacuous(self):
        rep = separability(complete_graph(4))
        assert rep.lambda_star == 0 and rep.vacuous
        assert rep.pair is None and rep.witness is None
        assert rep.is_separable(1) and rep.is_separable(7)

    def test_biclique(self):
        rep = separability(complete_bipartite(2, 3))
        assert rep.lambda_star == 3 and rep.pair == (0, 1) and not rep.vacuous
        assert path_family_violation(complete_bipartite(2, 3), rep.witness) is None
        assert len(rep.witness.paths) == 3
        assert not rep.is_separable(3) and rep.is_separable(4)

    def test_theta(self):
        rep = separability(theta_graph(3, 3, 3))
        assert rep.lambda_star == 3 and rep.pair == (0, 1) and rep.exact

    def test_wall_line_graph(self):
        # n = 63: the flow prune inside the packing search runs far past the
        # sizes the oracle tests reach.
        g = line_graph(wall(5))
        rep = separability(g)
        assert (rep.lambda_star, rep.pair, rep.exact) == (4, (4, 15), True)
        assert path_family_violation(g, rep.witness) is None

    def test_edgeless_pairs_exist(self):
        rep = separability(build_graph(3, []))
        assert rep.lambda_star == 0 and rep.pair == (0, 1) and not rep.vacuous
        assert rep.witness.paths == ()

    def test_single_vertex(self):
        rep = separability(build_graph(1, []))
        assert rep.lambda_star == 0 and rep.vacuous

    def test_threshold_validation(self):
        rep = separability(cycle_graph(5))
        with pytest.raises(ValueError):
            rep.is_separable(0)

    def test_inexact_report_decides_only_what_it_can(self):
        # The true value is 5; a budget of 20 nodes per pair reaches 4.
        g = random_graph(32, 0.1, 2)
        cut = separability(g, budget=20)
        assert (cut.lambda_star, cut.exact) == (4, False)
        assert not cut.is_separable(3) and not cut.is_separable(4)
        with pytest.raises(ValueError):
            cut.is_separable(5)
        full = separability(g)
        assert (full.lambda_star, full.exact) == (5, True)
        assert not full.is_separable(5) and full.is_separable(6)

    def test_argmax_is_lexicographically_first(self):
        # C6 has maximum 2 on every opposite pair; (0, 2) comes first.
        rep = separability(cycle_graph(6))
        assert rep.lambda_star == 2 and rep.pair == (0, 2)

    def test_report_matches_pair_recomputation(self):
        for seed in range(30):
            g = random_graph(7, 0.4, seed)
            rep = separability(g)
            if rep.vacuous:
                continue
            x, y = rep.pair
            assert rep.lambda_star == max_internally_disjoint_paths(g, x, y).count
            best = max(
                max_internally_disjoint_paths(g, a, b).count
                for a in range(g.n)
                for b in range(a + 1, g.n)
                if not g.has_edge(a, b)
            )
            assert rep.lambda_star == best

    def test_reference_scan_exact_mode(self):
        for seed in range(80):
            g = random_graph(2 + seed % 8, (0.2, 0.35, 0.5, 0.7)[seed % 4], seed)
            assert separability(g) == reference_scan(g, PACKING_BUDGET), seed
            assert separability(g, budget=None) == reference_scan(g, None), seed

    def test_reference_scan_bounded_mode(self):
        reports = []
        for seed in range(120):
            g = random_graph(10 + seed % 3, (0.2, 0.3, 0.5, 0.6)[seed % 4], 500 + seed)
            rep = separability(g, budget=2)
            assert rep == reference_scan(g, 2), seed
            reports.append(rep)
        assert any(r.exact for r in reports) and not all(r.exact for r in reports)

    def test_bounded_exact_is_sound(self):
        # An exact bounded report must name the true maximum.
        certified = 0
        for seed in range(120):
            g = random_graph(10 + seed % 3, (0.2, 0.3, 0.5, 0.6)[seed % 4], 500 + seed)
            rep = separability(g, budget=2)
            if rep.exact:
                certified += 1
                assert rep.lambda_star == separability(g, budget=None).lambda_star, seed
        assert certified


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=50, deadline=None)
def test_packing_within_flow_bound(seed):
    g = random_graph(7, 0.45, seed)
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if g.has_edge(x, y):
                continue
            r = max_internally_disjoint_paths(g, x, y)
            assert r.count <= r.upper_bound <= min(g.degree(x), g.degree(y))
            assert path_family_violation(g, r.family) is None
            break
        else:
            continue
        break
