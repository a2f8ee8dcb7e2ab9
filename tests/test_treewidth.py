"""Exact treewidth solver against frozen values and the independent DP."""

import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.approximation import treewidth_min_degree, treewidth_min_fill_in

from thetakit.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    line_graph,
    path_graph,
    petersen,
    random_graph,
    random_subdivision,
    theta_graph,
    wall,
)
from thetakit.graphs import build_graph
from thetakit.detectors import CapExceeded
from thetakit.treewidth import (
    TreeDecomposition,
    _contraction_degeneracy,
    _decide,
    _eliminate,
    _preprocess,
    decomposition_violation,
    treewidth_dp,
    treewidth_exact,
    validate_decomposition,
)

import oracles


def solved(g, cap=32):
    tw, dec = treewidth_exact(g, cap=cap)
    assert decomposition_violation(g, dec) is None
    assert dec.width() == tw
    return tw


class TestFrozenValues:
    def test_cliques(self):
        for r in range(1, 5):
            assert solved(complete_graph(r + 1)) == r

    def test_paths_and_trees(self):
        assert solved(path_graph(6)) == 1
        star = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert solved(star) == 1
        spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert solved(spider) == 1

    def test_cycles_and_thetas(self):
        assert solved(cycle_graph(5)) == 2
        assert solved(cycle_graph(9)) == 2
        assert solved(theta_graph(2, 3, 4)) == 2

    def test_named_graphs(self):
        assert solved(petersen()) == 4
        assert solved(complete_bipartite(3, 3)) == 3
        assert solved(complete_bipartite(2, 5)) == 2

    def test_degenerate_sizes(self):
        tw, dec = treewidth_exact(build_graph(0, []))
        assert tw == -1 and len(dec.bags) == 1
        assert solved(build_graph(1, [])) == 0
        assert solved(build_graph(4, [])) == 0

    def test_walls(self):
        assert solved(wall(1)) == 2
        assert solved(wall(2)) == 2
        assert solved(wall(3)) == 3
        assert solved(wall(4)) == 4

    def test_wall_line_graphs(self):
        # Subdivided hexagons keep treewidth 2 in the line graph; from the
        # first wall with branch vertices on, the line graph gains one.
        assert solved(line_graph(wall(2))) == 2
        assert solved(line_graph(random_subdivision(wall(2), 2, 7))) == 2
        assert solved(line_graph(wall(3))) == 4
        assert solved(line_graph(random_subdivision(wall(3), 1, 7)), cap=64) == 4


def check_decomposition(g, d, violation):
    assert decomposition_violation(g, d) == violation
    assert validate_decomposition(g, d) == (violation is None)


class TestValidator:
    def test_single_bag(self):
        k3 = complete_graph(3)
        d = TreeDecomposition(build_graph(1, []), (0b111,))
        check_decomposition(k3, d, None)

    def test_path_bags(self):
        p3 = path_graph(3)
        d = TreeDecomposition(build_graph(2, [(0, 1)]), (0b011, 0b110))
        check_decomposition(p3, d, None)

    def test_uncovered_edge(self):
        k3 = complete_graph(3)
        d = TreeDecomposition(build_graph(2, [(0, 1)]), (0b011, 0b110))
        check_decomposition(k3, d, "edge (0, 2) lies in no bag")

    def test_missing_vertex(self):
        p3 = path_graph(3)
        d = TreeDecomposition(build_graph(2, [(0, 1)]), (0b011, 0b010))
        check_decomposition(p3, d, "vertex 2 lies in no bag")

    def test_broken_subtree(self):
        p4 = path_graph(4)
        bags = (0b0011, 0b0110, 0b1101)
        d = TreeDecomposition(build_graph(3, [(0, 1), (1, 2)]), bags)
        check_decomposition(p4, d, "the nodes holding vertex 0 are disconnected")

    def test_carrier_must_be_tree(self):
        k3 = complete_graph(3)
        d = TreeDecomposition(build_graph(2, []), (0b111, 0b111))
        check_decomposition(k3, d, "the carrier is not a tree")
        cyc = TreeDecomposition(cycle_graph(3), (0b111, 0b111, 0b111))
        check_decomposition(k3, cyc, "the carrier is not a tree")
        empty = TreeDecomposition(build_graph(0, []), ())
        check_decomposition(k3, empty, "the carrier is not a tree")

    def test_bag_count_must_match_the_tree(self):
        p3 = path_graph(3)
        for bags in ((0b011,), (0b011, 0b110, 0b110)):
            d = TreeDecomposition(build_graph(2, [(0, 1)]), bags)
            check_decomposition(p3, d, f"{len(bags)} bags for a tree of 2 nodes")

    def test_foreign_vertices(self):
        p2 = path_graph(2)
        d = TreeDecomposition(build_graph(1, []), (0b111,))
        check_decomposition(p2, d, "bag 0 holds a vertex outside the graph")


class TestCrossCheck:
    def test_dp_frozen(self):
        assert treewidth_dp(complete_graph(5)) == 4
        assert treewidth_dp(cycle_graph(6)) == 2
        assert treewidth_dp(path_graph(4)) == 1
        assert treewidth_dp(build_graph(0, [])) == -1

    def test_seeded_agreement(self):
        for seed in range(200):
            g = random_graph(4 + seed % 7, 0.15 + (seed % 6) * 0.14, seed)
            assert solved(g) == treewidth_dp(g), seed

    def test_contraction_degeneracy_covers_degeneracy(self):
        for seed in range(300):
            g = random_graph(4 + seed % 17, 0.1 + (seed % 8) * 0.1, seed)
            nxg = nx.Graph(g.edges())
            nxg.add_nodes_from(range(g.n))
            assert _contraction_degeneracy(g) >= max(nx.core_number(nxg).values()), seed

    def test_disjoint_union_takes_max(self):
        g = disjoint_union(complete_graph(4), cycle_graph(5))
        assert solved(g) == 3
        assert treewidth_dp(g) == 3

    # Both components survive _preprocess, so once _decide has found one as
    # a whole block it skips the blocks popped inside it (22 and 10 times).
    @pytest.mark.parametrize(
        "g, width",
        [
            (disjoint_union(complete_bipartite(3, 3), petersen()), 4),
            (disjoint_union(complete_bipartite(3, 3), complete_bipartite(3, 3)), 3),
        ],
        ids=["k33-petersen", "k33-k33"],
    )
    def test_components_that_survive_preprocessing(self, g, width):
        prefix, _, alive, fadj, _ = _preprocess(g, _contraction_degeneracy(g))
        assert alive & 0b111111 and alive >> 6
        assert _decide(fadj, alive, width - 1) is None
        order = prefix + [v for v, _, _ in _decide(fadj, alive, width)]
        assert back_degree(g, order) == width
        assert solved(g) == width == treewidth_dp(g)

    def test_caps(self):
        with pytest.raises(CapExceeded):
            treewidth_exact(complete_graph(5), cap=4)
        with pytest.raises(CapExceeded):
            treewidth_dp(complete_graph(5), cap=4)
        with pytest.raises(CapExceeded):
            treewidth_exact(wall(5))


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=40, deadline=None)
def test_solver_bounds_and_witness(seed):
    g = random_graph(8, 0.1 + (seed % 9) * 0.1, seed)
    tw, dec = treewidth_exact(g)
    assert validate_decomposition(g, dec)
    assert dec.width() == tw
    assert -1 if g.n == 0 else 0 <= tw <= g.n - 1
    if g.m:
        assert tw >= 1
    assert tw == treewidth_dp(g)


@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=2 ** 20))
@settings(max_examples=25, deadline=None)
def test_subgraph_monotone(n, seed):
    g = random_graph(n, 0.5, seed)
    sub = build_graph(g.n - 1, [(u, v) for u, v in g.edges() if v < g.n - 1])
    assert treewidth_exact(sub)[0] <= treewidth_exact(g)[0]


@st.composite
def graphs_with_orders(draw, max_n=14):
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    g = random_graph(n, p, draw(st.integers(min_value=0, max_value=2 ** 30)))
    return g, draw(st.permutations(range(n)))


@given(graphs_with_orders())
@settings(max_examples=60, deadline=None)
def test_eliminate_matches_bfs_oracle(case):
    g, order = case
    fadj = list(g.adj)
    remaining = g.full_mask
    for v in order:
        remaining &= ~(1 << v)
        assert _eliminate(fadj, v, remaining) == oracles.fill_neighbourhood_bfs(g, v, remaining | 1 << v)
        for u in range(g.n):
            if remaining >> u & 1:
                assert fadj[u] & remaining == oracles.fill_neighbourhood_bfs(g, u, remaining)


def back_degree(g, order):
    remaining = g.full_mask
    worst = 0
    for v in order:
        worst = max(worst, oracles.fill_neighbourhood_bfs(g, v, remaining).bit_count())
        remaining &= ~(1 << v)
    return worst


class TestBranchingSearch:
    # Refuting one below the width on these whole graphs records 5 to 30
    # feasible blocks; _preprocess eliminates all of the first two and leaves
    # a core of 12 and 14 vertices on the last two, where blocks combine.
    @pytest.mark.parametrize(
        "n,p,seed", [(13, 0.4, 2), (14, 0.4, 3), (15, 0.4, 3), (16, 0.4, 0)]
    )
    def test_agrees_with_dp(self, n, p, seed):
        g = random_graph(n, p, seed)
        tw = treewidth_dp(g)
        assert solved(g) == tw
        assert _decide(list(g.adj), g.full_mask, tw - 1) is None
        order = [v for v, _, _ in _decide(list(g.adj), g.full_mask, tw)]
        assert sorted(order) == list(range(n))
        assert back_degree(g, order) <= tw

    # _preprocess eliminates 3, 1, 13, 11 and 5 here and stops below the
    # width, so the search runs on a core in the host's scattered labels.
    @pytest.mark.parametrize("n,p,seed", [(14, 0.3, 4)])
    def test_searches_the_preprocessed_core(self, n, p, seed):
        g = random_graph(n, p, seed)
        tw = treewidth_dp(g)
        prefix, _, alive, fadj, low = _preprocess(g, _contraction_degeneracy(g))
        assert prefix and alive and low < tw
        assert _decide(fadj, alive, tw - 1) is None
        order = prefix + [v for v, _, _ in _decide(fadj, alive, tw)]
        assert sorted(order) == list(range(n))
        assert back_degree(g, order) <= tw

    # Past the lower bounds, treewidth_exact's decisions record 67 to 115
    # feasible blocks on each of the first six, and 674 and 552 on G(32, 0.2).
    @pytest.mark.parametrize(
        "n,p,seed",
        [
            (21, 0.2, 1),
            (21, 0.25, 1),
            (22, 0.2, 1),
            (23, 0.2, 2),
            (24, 0.15, 2),
            (24, 0.2, 1),
            (32, 0.2, 1),
            (32, 0.2, 2),
        ],
    )
    def test_within_networkx_heuristics(self, n, p, seed):
        g = random_graph(n, p, seed)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        tw = solved(g, cap=None)
        assert tw <= treewidth_min_fill_in(h)[0]
        assert tw <= treewidth_min_degree(h)[0]

    # Each vertex of the large side is a block of one whose neighbourhood is
    # the whole small side, and no two of them touch, so without the walk's
    # prune a decision tries 2^26 or more subsets.
    @pytest.mark.parametrize("a,b", [(3, 28), (6, 26)])
    def test_bicliques_are_fast(self, a, b):
        start = time.process_time()
        assert solved(complete_bipartite(a, b), cap=None) == a
        assert time.process_time() - start < 0.1

    def test_past_the_cap(self):
        assert solved(wall(6), cap=None) == 6
        assert solved(line_graph(wall(5)), cap=None) == 6


def elimination_order(dec):
    """The order a decomposition was read off: node i's vertex is the one
    vertex of its bag that no later bag holds."""
    order = []
    later = 0
    for bag in reversed(dec.bags):
        own = bag & ~later
        assert own.bit_count() == 1
        order.append(own.bit_length() - 1)
        later |= bag
    return order[::-1]


def test_fixed_costs_match_the_first_versions():
    hosts = [random_graph(1 + seed % 30, 0.05 + (seed % 10) * 0.1, seed) for seed in range(1200)]
    for seed, g in enumerate(hosts):
        low = oracles.contraction_degeneracy_by_scan(g)
        assert _contraction_degeneracy(g) == low, seed
        for bound in (max(low - 2, 0), low, low + 1):
            prefix, _, alive, adj, low_out = _preprocess(g, bound)
            assert (prefix, alive, adj, low_out) == oracles.preprocess_by_pairs(g, bound), (seed, bound)
    hosts += [random_graph(n, p, n) for n in range(18, 25) for p in (0.15, 0.2, 0.25, 0.3)]
    hosts.append(disjoint_union(disjoint_union(complete_bipartite(3, 3), petersen()), random_graph(14, 0.3, 4)))
    for i, g in enumerate(hosts):
        dec = treewidth_exact(g)[1]
        bags, tree = oracles.decomposition_by_build_graph(g, elimination_order(dec))
        assert (dec.bags, dec.tree.n, dec.tree.adj) == (bags, tree.n, tree.adj), i
