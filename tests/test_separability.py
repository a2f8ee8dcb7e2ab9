"""Induced path families against Menger's number, the subset oracle and frozen values."""

import importlib
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import max_disjoint_path_family
from thetakit.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    line_graph,
    path_graph,
    petersen,
    random_graph,
    random_subdivision,
    theta_graph,
    wall,
)
from thetakit.graphs import _flow_paths, build_graph, induced_subgraph, max_disjoint_paths, path_family_violation
from thetakit.separability import SeparabilityReport, max_internally_disjoint_paths, separability

# The package exports the function ``separability`` under its module's name.
separability_module = importlib.import_module("thetakit.separability")


def nonadjacent_pairs(g):
    return [(x, y) for x in range(g.n) for y in range(x + 1, g.n) if not g.has_edge(x, y)]


def reference_scan(g):
    """separability with no skip: every nonadjacent pair is packed.

    The earliest strict maximum is kept.
    """
    best = None
    for x, y in nonadjacent_pairs(g):
        fam = max_internally_disjoint_paths(g, x, y)
        if best is None or len(fam.paths) > len(best.paths):
            best = fam
    if best is None:
        return SeparabilityReport(0, None, None, True)
    return SeparabilityReport(len(best.paths), (best.x, best.y), best, False)


class TestPairMaximum:
    def test_biclique_branch_pair(self):
        g = complete_bipartite(2, 3)
        fam = max_internally_disjoint_paths(g, 0, 1)
        assert fam.paths == ((0, 2, 1), (0, 3, 1), (0, 4, 1))
        assert path_family_violation(g, fam) is None

    def test_cycle_arcs(self):
        fam = max_internally_disjoint_paths(cycle_graph(5), 0, 2)
        assert len(fam.paths) == 2
        assert path_family_violation(cycle_graph(5), fam) is None

    def test_petersen_pairs(self):
        g = petersen()
        for x, y in [(0, 2), (0, 7), (1, 4)]:
            fam = max_internally_disjoint_paths(g, x, y)
            assert len(fam.paths) == 3
            assert path_family_violation(g, fam) is None

    def test_no_route(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert max_internally_disjoint_paths(g, 0, 2).paths == ()

    def test_single_long_route(self):
        fam = max_internally_disjoint_paths(path_graph(5), 0, 4)
        assert fam.paths == ((0, 1, 2, 3, 4),)

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
                    fam = max_internally_disjoint_paths(g, x, y)
                    assert len(fam.paths) == max_disjoint_path_family(g, x, y), (seed, x, y)
                    assert path_family_violation(g, fam) is None

    def test_deleting_outsiders_keeps_maximum(self):
        for seed in range(40):
            g = random_graph(8, 0.35, seed)
            for x in range(g.n):
                for y in range(x + 1, g.n):
                    if g.has_edge(x, y):
                        continue
                    fam = max_internally_disjoint_paths(g, x, y)
                    on_paths = {v for p in fam.paths for v in p} | {x, y}
                    outside = [v for v in range(g.n) if v not in on_paths]
                    if not outside:
                        continue
                    keep = sorted(set(range(g.n)) - {outside[0]})
                    h, old = induced_subgraph(g, keep)
                    smaller = max_internally_disjoint_paths(h, old.index(x), old.index(y))
                    assert len(smaller.paths) >= len(fam.paths)


class TestMenger:
    """The family size is the local node connectivity, and the family is valid."""

    @staticmethod
    def check_pairs(g, pairs):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        best = 0
        for x, y in pairs:
            fam = max_internally_disjoint_paths(g, x, y)
            assert path_family_violation(g, fam) is None, (x, y)
            assert len(fam.paths) == nx.node_connectivity(nxg, x, y), (x, y)
            best = max(best, len(fam.paths))
        return best

    def test_seeded_gnp_against_node_connectivity(self):
        for seed in range(90):
            g = random_graph(4 + seed % 11, (0.15, 0.25, 0.35, 0.5, 0.7)[seed % 5], 700 + seed)
            self.check_pairs(g, nonadjacent_pairs(g))

    @pytest.mark.parametrize(
        "host",
        [wall(4), line_graph(wall(3)), line_graph(wall(4)), line_graph(random_subdivision(wall(3), 1, 2))],
        ids=["wall4", "L-wall3", "L-wall4", "L-subdivided-wall3"],
    )
    def test_walls_against_node_connectivity(self, host):
        best = self.check_pairs(host, nonadjacent_pairs(host))
        rep = separability(host)
        assert rep.lambda_star == best
        assert path_family_violation(host, rep.witness) is None
        assert len(rep.witness.paths) == best

    def test_wall5_line_graph_against_node_connectivity(self):
        # A seeded sample: networkx takes about 2 ms a pair on n = 63.
        g = line_graph(wall(5))
        pairs = random.Random(5).sample(nonadjacent_pairs(g), 300)
        assert self.check_pairs(g, pairs) == 4

    def test_large_cycle(self):
        g = cycle_graph(20)
        fam = max_internally_disjoint_paths(g, 0, 10)
        assert len(fam.paths) == 2
        assert path_family_violation(g, fam) is None

    def test_long_spokes(self):
        # Two branch vertices joined by 5 spokes of 3 interior vertices.
        edges = []
        n = 2
        for _ in range(5):
            a, b, c = n, n + 1, n + 2
            edges += [(0, a), (a, b), (b, c), (c, 1)]
            n += 3
        g = build_graph(n, edges)
        fam = max_internally_disjoint_paths(g, 0, 1)
        assert fam.paths == tuple((0, a, a + 1, a + 2, 1) for a in range(2, n, 3))

    def test_flow_paths_are_shortcut(self):
        # The flow routes 1-6-2-4-7-3, on which 6 and 4 are adjacent; the
        # witness is the shortest 1-3 path through the same vertices.
        g = build_graph(9, [(0, 2), (0, 3), (0, 5), (1, 6), (1, 8), (2, 4), (2, 6), (3, 7), (4, 6), (4, 7), (5, 8)])
        within = g.full_mask & ~(1 << 1) & ~(1 << 3)
        assert _flow_paths(g, g.adj[1], g.adj[3], within) == [(6, 2, 4, 7), (8, 5, 0)]
        assert max_internally_disjoint_paths(g, 1, 3).paths == ((1, 6, 4, 7, 3), (1, 8, 5, 0, 3))


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
        assert path_family_violation(theta_graph(3, 3, 3), rep.witness) is None

    def test_wall_line_graph(self):
        # n = 63, far past the sizes the oracle tests reach.
        g = line_graph(wall(5))
        rep = separability(g)
        assert (rep.lambda_star, rep.pair) == (4, (4, 15))
        assert path_family_violation(g, rep.witness) is None

    def test_wall6_line_graph(self):
        # n = 94: a search for induced families, cut off after 10^4 nodes per
        # pair, spent about 12 s of CPU here.
        g = line_graph(wall(6))
        rep = separability(g)
        assert (rep.lambda_star, rep.pair) == (4, (4, 18))
        assert len(rep.witness.paths) == 4
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

    def test_threshold_decisions(self):
        g = random_graph(32, 0.1, 2)
        rep = separability(g)
        assert rep.lambda_star == 5
        assert not rep.is_separable(5) and rep.is_separable(6)
        assert path_family_violation(g, rep.witness) is None

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
            assert rep.lambda_star == len(max_internally_disjoint_paths(g, *rep.pair).paths)
            best = max(len(max_internally_disjoint_paths(g, x, y).paths) for x, y in nonadjacent_pairs(g))
            assert rep.lambda_star == best

    def test_lambda_star_is_largest_node_connectivity(self):
        for seed in range(90):
            g = random_graph(4 + seed % 11, (0.15, 0.25, 0.35, 0.5, 0.7)[seed % 5], 700 + seed)
            best = TestMenger.check_pairs(g, nonadjacent_pairs(g))
            rep = separability(g)
            assert rep.lambda_star == best, seed
            if not rep.vacuous:
                assert path_family_violation(g, rep.witness) is None
                assert len(rep.witness.paths) == best

    def test_same_flows_as_the_pair_loop(self, monkeypatch):
        # The degree skips drop only pairs the pair loop drops: both run the
        # same flows in the same order and give the same report.
        flows = []

        def flow(g, sources, sinks, within):
            flows.append((sources, sinks))
            return max_disjoint_paths(g, sources, sinks, within)

        monkeypatch.setattr(separability_module, "max_disjoint_paths", flow)
        monkeypatch.setattr(oracles, "max_disjoint_paths", flow)
        rng = random.Random(1717)
        hosts = [complete_graph(n) for n in range(4)] + [build_graph(3, [])]
        hosts += [random_graph(rng.randint(2, 16), rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng.randrange(1 << 30)) for _ in range(400)]
        hosts += [line_graph(wall(2)), random_subdivision(wall(3), 1, 5), petersen()]
        total = 0
        for i, g in enumerate(hosts):
            got = repr(separability(g))
            ours = flows[:]
            flows.clear()
            assert got == repr(oracles.separability_by_pair_loop(g)), i
            assert ours == flows, i
            total += len(flows)
            flows.clear()
        assert total > 1000

    def test_reference_scan_exact_mode(self):
        for seed in range(80):
            g = random_graph(2 + seed % 8, (0.2, 0.35, 0.5, 0.7)[seed % 4], seed)
            assert separability(g) == reference_scan(g), seed


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=50, deadline=None)
def test_packing_within_flow_bound(seed):
    g = random_graph(7, 0.45, seed)
    for x, y in nonadjacent_pairs(g)[:1]:
        fam = max_internally_disjoint_paths(g, x, y)
        within = g.full_mask & ~(1 << x) & ~(1 << y)
        assert len(fam.paths) == max_disjoint_paths(g, g.adj[x], g.adj[y], within) <= min(g.degree(x), g.degree(y))
        assert path_family_violation(g, fam) is None
