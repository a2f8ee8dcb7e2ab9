import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from thetakit.generators import (
    complete_graph,
    line_graph,
    path_graph,
    petersen,
    random_graph,
    random_subdivision,
    wall,
)
from thetakit.graphs import (
    ABTreeCert,
    Digraph,
    Graph,
    PathFamily,
    _flow_paths,
    _induced_path_mask,
    _max_flow,
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


@pytest.mark.parametrize("make, n, rows, message", [
    (Graph, -1, (), "vertex count must be nonnegative"),
    (Graph, 2, (0b10,), "adjacency tuple length must equal n"),
    (Graph, 2, (0b100, 0), "adjacency of 0 mentions vertices >= 2"),
    (Graph, 2, (0b01, 0), "self-loop at 0"),
    (Graph, 2, (0b10, 0), "asymmetric adjacency between 1 and 0"),
    (Digraph, -1, (), "vertex count must be nonnegative"),
    (Digraph, 2, (0b10,), "out-neighbor tuple length must equal n"),
    (Digraph, 2, (0, 0b100), "arcs from 1 mention vertices >= 2"),
    (Digraph, 2, (0, 0b10), "self-loop at 1"),
])
def test_constructors_reject_malformed_rows(make, n, rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(n, rows)


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


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda g: is_stable_set(g, (0, 9)), id="stable-9"),
        pytest.param(lambda g: is_stable_set(g, (0, -1)), id="stable-minus-1"),
        pytest.param(lambda g: is_clique(g, (0, 9)), id="clique-9"),
        pytest.param(lambda g: is_clique(g, (0, -1)), id="clique-minus-1"),
        pytest.param(lambda g: is_clique(g, -1), id="clique-negative-mask"),
        pytest.param(lambda g: are_anticomplete(g, (0,), (9,)), id="anticomplete-9"),
        pytest.param(lambda g: are_anticomplete(g, (-1,), (2,)), id="anticomplete-minus-1"),
        pytest.param(lambda g: induced_subgraph(g, (9,)), id="subgraph-9"),
        pytest.param(lambda g: induced_subgraph(g, (-1,)), id="subgraph-minus-1"),
    ],
)
def test_set_predicates_reject_vertices_outside_the_graph(check):
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(ValueError, match="^vertex set mentions ids outside the graph$"):
        check(g)


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
    # 1 sees exactly the ends of the path 0-1-2, but it is on that path.
    assert not is_induced_cycle(c5, (0, 1, 2, 1))


def test_induced_path_mask_edge_cases():
    p4 = path_graph(4)
    assert _induced_path_mask(p4, (2,), None, None) == 1 << 2
    assert _induced_path_mask(p4, (2,), 2, 2) == 1 << 2
    assert _induced_path_mask(p4, (2,), 1, None) == 0
    assert _induced_path_mask(p4, (), None, None) == 0
    assert _induced_path_mask(p4, (1, 2, 3), 1, 3) == 0b1110
    # A wrong x, then a wrong y.
    assert _induced_path_mask(p4, (1, 2, 3), 0, 3) == 0
    assert _induced_path_mask(p4, (1, 2, 3), 1, 2) == 0
    # Ids -1 and n, first, inside and last.
    for seq in ((-1,), (4,), (-1, 0), (0, -1), (3, 4), (2, 3, 4), (4, 3, 2), (1, -1, 2)):
        assert _induced_path_mask(p4, seq, None, None) == 0, seq
    # Repeats, one of which sees exactly its predecessor among the vertices
    # before it, so only the vertex count rejects it.
    for seq in ((2, 2), (1, 2, 1), (0, 1, 2, 1)):
        assert _induced_path_mask(p4, seq, None, None) == 0, seq


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_induced_cycle_matches_networkx(data):
    # Half the draws are any ids from -1 to n, repeats and lengths below 3
    # included; the others are distinct vertices, some with one of them
    # repeated at the end.  The graph holds the sequence's own ring of edges
    # and up to two more, so that many sequences are induced cycles and many
    # just miss.
    n = data.draw(st.integers(0, 6))
    if data.draw(st.booleans()):
        seq = data.draw(st.lists(st.integers(-1, n), max_size=7))
    else:
        seq = data.draw(st.permutations(list(range(n))))[:data.draw(st.integers(0, n))]
        if seq and data.draw(st.booleans()):
            seq.append(data.draw(st.sampled_from(seq)))
    k = len(seq)
    ring = {frozenset((seq[i], seq[(i + 1) % k])) for i in range(k)}
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(tuple(e) for e in ring if len(e) == 2 and e <= set(range(n)))
    vertex = st.integers(0, max(n - 1, 0))
    h.add_edges_from((u, v) for u, v in data.draw(st.lists(st.tuples(vertex, vertex), max_size=2)) if u != v)
    want = (
        k >= 3
        and len(set(seq)) == k
        and all(0 <= v < n for v in seq)
        and {frozenset(e) for e in h.subgraph(seq).edges()} == ring
    )
    assert is_induced_cycle(build_graph(n, h.edges()), seq) == want


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_induced_path_matches_networkx(g, data):
    assume(g.n > 0)
    seq = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=6, unique=True))
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    sub = h.subgraph(seq)
    want = sub.number_of_edges() == len(seq) - 1 and all(
        sub.has_edge(u, v) for u, v in zip(seq, seq[1:])
    )
    assert is_induced_path(g, tuple(seq)) == want


def test_components_and_layers():
    g = build_graph(6, [(0, 1), (1, 2), (4, 5)])
    comps = connected_components(g)
    assert comps == [mask_of([0, 1, 2]), mask_of([3]), mask_of([4, 5])]
    layers = bfs_layers(g, 0)
    assert layers == [1 << 0, 1 << 1, 1 << 2]
    assert bfs_layers(g, 0, mask_of([0, 2])) == [1 << 0]


def test_reachability_matches_its_definitions_on_random_masks():
    # The components, layers and neighbourhoods built on graphs._reach and
    # graphs._union, against independent oracles on seeded G(n <= 20, p).
    rng = random.Random(2027)
    for seed in range(240):
        n = rng.randint(1, 20)
        g = random_graph(n, rng.choice((0.08, 0.15, 0.3)), seed)
        within = rng.getrandbits(n)
        assert connected_components(g) == oracles._components_within(g, g.full_mask)
        assert connected_components(g, within) == oracles._components_within(g, within)
        h = nx.Graph((u, v) for u, v in g.edges() if within >> u & within >> v & 1)
        h.add_nodes_from(iter_bits(within))
        for root in iter_bits(within):
            want = [0] * len(h)
            for v, d in nx.single_source_shortest_path_length(h, root).items():
                want[d] |= 1 << v
            assert bfs_layers(g, root, within) == [layer for layer in want if layer]
        s = rng.getrandbits(n)
        assert neighborhood_mask(g, s) == mask_of(v for v in range(n) if not s >> v & 1 and g.adj[v] & s)
        for root in iter_bits(g.full_mask & ~within):
            with pytest.raises(ValueError, match="not in the search area"):
                bfs_layers(g, root, within)


def test_path_family_validation():
    # Two ends joined by three fully disjoint paths of lengths 2, 2, 3.
    g = build_graph(6, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)])
    fam = PathFamily(x=0, y=1, paths=((0, 2, 1), (0, 3, 1), (0, 4, 5, 1)))
    assert path_family_violation(g, fam) is None
    assert fam.tips() == (2, 3, 4)

    shared = PathFamily(0, 1, ((0, 2, 1), (0, 2, 1)))
    assert "share" in path_family_violation(g, shared)
    # Paths 1 and 2 share vertex 3 and paths 0 and 3 share vertex 2; the
    # report names the least i, then the least j > i, not the first j seen.
    crossed = PathFamily(0, 1, ((0, 2, 1), (0, 3, 1), (0, 3, 1), (0, 2, 1)))
    assert path_family_violation(g, crossed) == "paths 0 and 3 share interior vertices"
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


def menger_by_networkx(g, sources, sinks, within):
    # Oracle: in G[within] plus a super-source joined to the sources and a
    # super-sink joined to the sinks, the local node connectivity between the
    # two counts the disjoint paths; a vertex in both masks is a one-vertex path.
    h = nx.Graph()
    h.add_nodes_from(["s", "t", *iter_bits(within)])
    h.add_edges_from((u, v) for u, v in g.edges() if within >> u & 1 and within >> v & 1)
    h.add_edges_from(("s", v) for v in iter_bits(sources & within))
    h.add_edges_from((v, "t") for v in iter_bits(sinks & within))
    return nx.node_connectivity(h, "s", "t")


def check_flow_paths(g, sources, sinks, within, value):
    """The flow's paths: value disjoint source-sink paths of G[within], by start.

    Each step of a path is an arc of the flow, linked both ways.
    """
    paths = _flow_paths(g, sources, sinks, within)
    _, prv, nxt = _max_flow(g, sources, sinks, within)
    assert len(paths) == value
    assert [p[0] for p in paths] == sorted(p[0] for p in paths)
    used = 0
    for p in paths:
        m = mask_of(p)
        assert m.bit_count() == len(p) and not m & used and not m & ~within
        used |= m
        assert sources >> p[0] & 1 and sinks >> p[-1] & 1
        assert all(g.has_edge(u, v) and nxt[u] == v and prv[v] == u for u, v in zip(p, p[1:]))


@given(graphs(max_n=12), st.data())
@settings(max_examples=200, deadline=None)
def test_max_disjoint_paths_matches_networkx_connectivity(g, data):
    def mask():
        return data.draw(st.integers(min_value=0, max_value=g.full_mask))

    sources, sinks, within = mask(), mask(), mask()
    sinks |= sources & mask()
    value = max_disjoint_paths(g, sources, sinks, within)
    assert value == menger_by_networkx(g, sources, sinks, within)
    check_flow_paths(g, sources, sinks, within, value)


def test_max_disjoint_paths_on_structured_hosts():
    # Larger hosts than the hypothesis test draws, with random masks and the
    # two shapes the library asks for: N(x) to N(y) in G - x - y
    # (separability) and N(y) to Z in G - y (max_path_fan).
    rng = random.Random(17)
    hosts = [wall(3), wall(4), line_graph(wall(3))]
    hosts += [random_subdivision(wall(3), 2, seed) for seed in range(3)]
    hosts += [line_graph(random_graph(9, 0.35, seed)) for seed in range(3)]
    hosts += [random_graph(rng.randint(20, 40), rng.choice((0.08, 0.15, 0.3)), seed) for seed in range(6)]
    cases = 0
    for g in hosts:
        for _ in range(8):
            sources, sinks = rng.getrandbits(g.n), rng.getrandbits(g.n)
            within = rng.choice((g.full_mask, rng.getrandbits(g.n) | sources | sinks, rng.getrandbits(g.n)))
            expected = menger_by_networkx(g, sources, sinks, within)
            assert max_disjoint_paths(g, sources, sinks, within) == expected
            check_flow_paths(g, sources, sinks, within, expected)
            cases += 1
        for _ in range(6):
            x, y = rng.sample(range(g.n), 2)
            within = g.full_mask & ~(1 << x) & ~(1 << y)
            if not g.has_edge(x, y):
                expected = menger_by_networkx(g, g.adj[x], g.adj[y], within)
                assert max_disjoint_paths(g, g.adj[x], g.adj[y], within) == expected
                check_flow_paths(g, g.adj[x], g.adj[y], within, expected)
                cases += 1
            zs = rng.getrandbits(g.n) & ~(1 << y)
            within = g.full_mask & ~(1 << y)
            expected = menger_by_networkx(g, g.adj[y], zs, within)
            assert max_disjoint_paths(g, g.adj[y], zs, within) == expected
            check_flow_paths(g, g.adj[y], zs, within, expected)
            cases += 1
    assert cases >= 250


@pytest.mark.parametrize(
    "n, edges, sources, sinks",
    [
        # The first path found, 0-2-4, must give up 2 to 1: 0-3-5 and 1-2-4.
        pytest.param(6, [(0, 2), (0, 3), (1, 2), (2, 4), (3, 5)], 0b11, 0b110000, id="cancel-an-arc"),
        # The path 4-3-0-1-2-5-6: the first path found, 0-1-2, is given up
        # whole for 0-3-4 and 6-5-2, so vertex 1 is freed.
        pytest.param(
            7, [(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (5, 6)], 0b1000001, 0b10100, id="free-a-vertex"
        ),
    ],
)
def test_max_disjoint_paths_reroutes_a_path(n, edges, sources, sinks):
    g = build_graph(n, edges)
    assert max_disjoint_paths(g, sources, sinks, g.full_mask) == 2
    check_flow_paths(g, sources, sinks, g.full_mask, 2)


def test_max_disjoint_paths_edge_cases():
    p5 = path_graph(5)
    assert max_disjoint_paths(p5, 0b1, 0b10000, 0) == 0
    # A vertex in both masks is a one-vertex path and blocks the others.
    assert max_disjoint_paths(p5, 0b101, 0b10100, p5.full_mask) == 1
    assert max_disjoint_paths(build_graph(3, []), 0b111, 0b111, 0b111) == 3
    g = petersen()
    assert max_disjoint_paths(g, 0b1011010110, 0b1011010110, 0b1011010110) == 6
    for n in (1, 2, 5, 8):
        k = complete_graph(n)
        assert max_disjoint_paths(k, 0b1, 1 << n - 1, k.full_mask) == 1
        half = (1 << n // 2) - 1
        assert max_disjoint_paths(k, half, k.full_mask & ~half, k.full_mask) == n // 2
        assert max_disjoint_paths(k, k.full_mask, k.full_mask, k.full_mask) == n
    # Sources and sinks outside within are ignored.
    assert max_disjoint_paths(p5, 0b11, 0b11000, 0b01110) == 1
    assert max_disjoint_paths(p5, 0b1, 0b10000, 0b01110) == 0
    assert max_disjoint_paths(p5, 0b11, 0b10000, 0b00111) == 0


@pytest.mark.parametrize(
    "sources, sinks, within",
    [
        pytest.param(1, 4, 15, id="within-names-3"),
        pytest.param(1, 4, -1, id="negative-within"),
        pytest.param(-1, 4, 7, id="negative-sources"),
        pytest.param(1, -1, 7, id="negative-sinks"),
        pytest.param(8, 4, 7, id="source-3"),
        pytest.param(1, 16, 7, id="sink-4"),
    ],
)
def test_max_disjoint_paths_rejects_masks_outside_the_graph(sources, sinks, within):
    with pytest.raises(ValueError, match="^vertex set mentions ids outside the graph$"):
        max_disjoint_paths(path_graph(3), sources, sinks, within)


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
