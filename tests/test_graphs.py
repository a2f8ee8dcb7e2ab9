import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thetakit.generators import petersen
from thetakit.graphs import (
    ABTreeCert,
    PathFamily,
    ab_tree_size,
    ab_tree_violation,
    are_anticomplete,
    bfs_layers,
    build_digraph,
    build_graph,
    connected_components,
    induced_subgraph,
    is_clique,
    is_induced_cycle,
    is_induced_path,
    is_stable_set,
    iter_bits,
    iter_induced_paths,
    mask_of,
    max_disjoint_paths,
    neighborhood_mask,
    path_order_of_component,
    path_family_violation,
    relabel,
)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                edges.append((u, v))
    return build_graph(n, edges)


def test_mask_helpers_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_build_graph_basic():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
    assert g.n == 4
    assert g.m == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.neighbors(1) == [0, 2]


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])


def test_graph_equality_is_label_sensitive():
    p3a = build_graph(3, [(0, 1), (1, 2)])
    p3b = build_graph(3, [(0, 2), (2, 1)])
    assert p3a != p3b
    assert p3a == build_graph(3, [(1, 2), (0, 1)])
    assert hash(p3a) == hash(build_graph(3, [(1, 2), (0, 1)]))


def test_digraph_basics():
    d = build_digraph(3, [(0, 1), (1, 0), (1, 2)])
    assert d.has_arc(0, 1) and d.has_arc(1, 0)
    assert not d.has_arc(2, 1)
    assert d.out_degree(1) == 2
    assert d.arcs() == [(0, 1), (1, 0), (1, 2)]
    with pytest.raises(ValueError):
        build_digraph(2, [(0, 0)])


def test_relabel_reverses():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    h = relabel(g, [3, 2, 1, 0])
    assert h == build_graph(4, [(3, 2), (2, 1), (1, 0)])
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1, 2])


def test_induced_subgraph_renumbers_ascending():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub, old = induced_subgraph(g, [4, 0, 1])
    assert old == (0, 1, 4)
    assert sub == build_graph(3, [(0, 1), (0, 2)])


def test_set_predicates():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert is_stable_set(g, [0, 2])
    assert not is_stable_set(g, [0, 1])
    assert is_clique(g, [3, 4])
    assert not is_clique(g, [0, 1, 2])
    assert are_anticomplete(g, [0], [2, 3])
    assert not are_anticomplete(g, [0], [1])
    assert not are_anticomplete(g, [0, 2], [2, 3])
    assert neighborhood_mask(g, [0]) == mask_of([1, 4])


def test_induced_path_and_cycle():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert is_induced_path(c5, (0, 1, 2, 3))
    assert not is_induced_path(c5, (0, 1, 2, 3, 4))
    assert not is_induced_path(c5, (0, 2))
    assert is_induced_cycle(c5, (0, 1, 2, 3, 4))
    assert not is_induced_cycle(c5, (0, 1, 2))
    k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert not is_induced_cycle(k4, (0, 1, 2, 3))


def test_components_and_layers():
    g = build_graph(6, [(0, 1), (1, 2), (4, 5)])
    comps = connected_components(g)
    assert comps == [mask_of([0, 1, 2]), mask_of([3]), mask_of([4, 5])]
    layers = bfs_layers(g, 0)
    assert layers == [1 << 0, 1 << 1, 1 << 2]
    assert bfs_layers(g, 0, mask_of([0, 2])) == [1 << 0]


def test_path_order_of_component():
    g = build_graph(6, [(0, 3), (3, 1), (1, 5)])
    assert path_order_of_component(g, mask_of([0, 1, 3, 5])) == (0, 3, 1, 5)
    assert path_order_of_component(g, mask_of([2])) == (2,)
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert path_order_of_component(c4, c4.full_mask) is None
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert path_order_of_component(star, star.full_mask) is None


def test_path_family_validation():
    # Two ends joined by three fully disjoint paths of lengths 2, 2, 3.
    g = build_graph(6, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)])
    fam = PathFamily(x=0, y=1, paths=((0, 2, 1), (0, 3, 1), (0, 4, 5, 1)))
    assert path_family_violation(g, fam) is None
    assert fam.tips() == (2, 3, 4)
    assert fam.interior_masks() == (1 << 2, 1 << 3, mask_of([4, 5]))

    shared = PathFamily(0, 1, ((0, 2, 1), (0, 2, 1)))
    assert "share" in path_family_violation(g, shared)
    assert path_family_violation(g, PathFamily(0, 0, ((0, 2, 0),))) is not None
    g_edge = build_graph(3, [(0, 1), (0, 2), (2, 1)])
    assert path_family_violation(g_edge, PathFamily(0, 1, ((0, 2, 1),))) is not None
    # Two arcs of C5 between nonadjacent vertices form a valid family.
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert path_family_violation(c5, PathFamily(0, 2, ((0, 1, 2), (0, 4, 3, 2)))) is None


def test_ab_tree_size_small_values():
    assert ab_tree_size(3, 1) == 1
    assert ab_tree_size(1, 2) == 2
    assert ab_tree_size(3, 2) == 4
    assert ab_tree_size(2, 3) == 5
    assert ab_tree_size(6, 6) == 4687


def cert(a, b, root, vertices, parent):
    return ABTreeCert(a=a, b=b, root=root, vertices=vertices, parent=parent)


def test_ab_tree_validation():
    # A path on five vertices is a (2,3)-tree rooted at its middle vertex.
    p5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    mid = ((0, 1), (1, 2), (3, 2), (4, 3))
    assert ab_tree_violation(p5, cert(2, 3, 2, (0, 1, 2, 3, 4), mid)) is None
    off = ((0, 1), (2, 1), (3, 2), (4, 3))
    assert ab_tree_violation(p5, cert(2, 3, 1, (0, 1, 2, 3, 4), off)) is not None
    assert ab_tree_violation(p5, cert(1, 2, 0, (0, 1), ((1, 0),))) is None
    assert ab_tree_violation(p5, cert(2, 2, 1, (0, 1, 2), ((0, 1), (2, 1)))) is None
    assert ab_tree_violation(p5, cert(5, 1, 3, (3,), ())) is None
    # Root degree must match the branching exactly.
    assert ab_tree_violation(p5, cert(2, 2, 0, (0, 1), ((1, 0),))) is not None

    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    fan = ((1, 0), (2, 0), (3, 0))
    assert ab_tree_violation(star, cert(3, 2, 0, (0, 1, 2, 3), fan)) is None
    assert ab_tree_violation(star, cert(2, 2, 0, (0, 1, 2, 3), fan)) is not None
    assert ab_tree_violation(star, cert(2, 2, 0, (0, 1, 2), ((1, 0), (2, 0)))) is None

    # Depth three is unreachable with a = 1: the sole child is already a leaf.
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert ab_tree_violation(p3, cert(1, 3, 0, (0, 1, 2), ((1, 0), (2, 1)))) is not None
    # Rooting a 3-path at an end breaks the root degree requirement.
    assert ab_tree_violation(p3, cert(2, 2, 0, (0, 1, 2), ((1, 0), (2, 1)))) is not None

    # Extra edges beyond the parent links invalidate the certificate.
    triangle = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    bad = cert(2, 2, 0, (0, 1, 2), ((1, 0), (2, 0)))
    assert ab_tree_violation(triangle, bad) is not None

    # The parent map itself is checked: links must be edges, cover non-roots.
    assert ab_tree_violation(star, cert(3, 2, 0, (0, 1, 2, 3), ((1, 0), (2, 0)))) is not None
    assert ab_tree_violation(star, cert(3, 2, 0, (0, 1, 2, 3), ((1, 2), (2, 0), (3, 0)))) is not None


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_induced_subgraph_of_everything_is_identity(g):
    sub, old = induced_subgraph(g, g.full_mask)
    assert sub == g
    assert old == tuple(range(g.n))


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_components_partition_the_graph(g):
    comps = connected_components(g)
    union = 0
    for c in comps:
        assert union & c == 0
        union |= c
        for d in comps:
            if c != d:
                assert are_anticomplete(g, c, d)
    assert union == g.full_mask


@given(graphs(max_n=7), st.data())
@settings(max_examples=60, deadline=None)
def test_relabel_preserves_edge_count_and_inverts(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = relabel(g, perm)
    assert h.m == g.m
    inverse = [0] * g.n
    for old, new in enumerate(perm):
        inverse[new] = old
    assert relabel(h, inverse) == g


@given(graphs(max_n=12), st.data())
@settings(max_examples=200, deadline=None)
def test_max_disjoint_paths_matches_networkx_connectivity(g, data):
    # Oracle: in G[within] plus a super-source joined to the sources and a
    # super-sink joined to the sinks, the local node connectivity between the
    # two counts the disjoint paths; a vertex in both masks is a one-vertex path.
    def mask():
        return data.draw(st.integers(min_value=0, max_value=g.full_mask))

    sources, sinks, within = mask(), mask(), mask()
    sinks |= sources & mask()
    h = nx.Graph()
    h.add_nodes_from(["s", "t", *iter_bits(within)])
    h.add_edges_from((u, v) for u, v in g.edges() if within >> u & 1 and within >> v & 1)
    h.add_edges_from(("s", v) for v in iter_bits(sources & within))
    h.add_edges_from((v, "t") for v in iter_bits(sinks & within))
    assert max_disjoint_paths(g, sources, sinks, within) == nx.node_connectivity(h, "s", "t")


def test_iter_induced_paths_order_is_frozen():
    g = petersen()
    every = [(0, 1, 2), (0, 4, 3, 2), (0, 4, 9, 7, 2), (0, 5, 7, 2), (0, 5, 8, 3, 2)]
    assert list(iter_induced_paths(g, 0, 2, g.full_mask & ~0b101)) == every
    assert list(iter_induced_paths(g, 0, 2, g.full_mask & ~0b101, 4)) == [
        (0, 1, 2), (0, 4, 3, 2), (0, 5, 7, 2),
    ]


@given(graphs(max_n=9), st.data())
@settings(max_examples=80, deadline=None)
def test_iter_induced_paths_limit_keeps_exactly_the_short_paths(g, data):
    if g.n < 2:
        return
    x, y = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    allowed = g.full_mask & ~(1 << x) & ~(1 << y)
    every = list(iter_induced_paths(g, x, y, allowed))
    assert all(is_induced_path(g, p, x, y) for p in every)
    assert sorted(mask_of(p[1:-1]) for p in every) == sorted(oracles.induced_path_interiors(g, x, y))
    for limit in range(g.n + 2):
        assert list(iter_induced_paths(g, x, y, allowed, limit)) == [p for p in every if len(p) <= limit]
