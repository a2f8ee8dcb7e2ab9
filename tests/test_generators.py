import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakit.generators import (
    ab_tree_cert,
    ab_tree_graph,
    complement,
    complete_bipartite,
    complete_graph,
    constellation,
    cycle_graph,
    disjoint_union,
    line_graph,
    path_graph,
    petersen,
    prism_graph,
    random_graph,
    random_subdivision,
    subdivide,
    theta_graph,
    wall,
)
from thetakit.graphs import (
    Graph,
    ab_tree_violation,
    build_graph,
    connected_components,
    induced_subgraph,
    is_clique,
    is_induced_cycle,
    is_induced_path,
    is_stable_set,
    iter_bits,
    mask_of,
    relabel,
)

ROOT = Path(__file__).resolve().parent.parent


def test_small_families():
    assert path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert cycle_graph(4).m == 4
    assert complete_graph(5).m == 10
    assert complete_bipartite(2, 3).m == 6
    p = petersen()
    assert p.n == 10 and p.m == 15
    assert all(p.degree(v) == 3 for v in range(10))
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_theta_graph_shape():
    g = theta_graph(2, 2, 2)
    assert g == complete_bipartite(2, 3)
    assert not g.has_edge(0, 1)
    assert sorted(g.degree(v) for v in range(g.n)) == [2, 2, 2, 3, 3]

    g = theta_graph(2, 3, 4)
    assert g.n == 2 + 1 + 2 + 3
    assert is_induced_path(g, (0, 2, 1), 0, 1)
    assert is_induced_path(g, (0, 3, 4, 1), 0, 1)
    assert is_induced_path(g, (0, 5, 6, 7, 1), 0, 1)
    with pytest.raises(ValueError):
        theta_graph(1, 2, 2)


def test_prism_graph_shape():
    g = prism_graph(2, 2, 2)
    assert g.n == 6 and g.m == 9
    assert all(g.degree(v) == 3 for v in range(6))
    # Exactly two triangles, and they are disjoint.
    triangles = [
        (a, b, c)
        for a in range(6)
        for b in range(a + 1, 6)
        for c in range(b + 1, 6)
        if is_clique(g, [a, b, c])
    ]
    assert len(triangles) == 2
    assert not set(triangles[0]) & set(triangles[1])

    long = prism_graph(2, 3, 4)
    assert long.n == (2 + 3 + 4) and long.m == 6 + (1 + 2 + 3)


def test_line_graph_of_k23_is_the_triangular_prism():
    assert line_graph(complete_bipartite(2, 3)) == prism_graph(2, 2, 2)


def test_line_graph_small():
    # L(P4) is P3; L(K3) is K3; L(star) is a clique; L(C5) is C5.
    assert line_graph(path_graph(4)) == path_graph(3)
    assert line_graph(complete_graph(3)) == complete_graph(3)
    assert line_graph(complete_bipartite(1, 4)) == complete_graph(4)
    c5 = cycle_graph(5)
    l5 = line_graph(c5)
    assert l5.n == 5 and l5.m == 5 and all(l5.degree(v) == 2 for v in range(5))


def test_wall_frozen_sizes():
    w1 = wall(1)
    assert (w1.n, w1.m) == (6, 6)
    assert is_induced_cycle(w1, (0, 1, 2, 3, 4, 5))
    # The two-row drawing, its corners cut, is a single brick: a 6-cycle.
    w2 = wall(2)
    assert (w2.n, w2.m) == (6, 6)
    assert all(w2.degree(v) == 2 for v in range(6))
    w3 = wall(3)
    assert (w3.n, w3.m) == (16, 19)
    w4 = wall(4)
    assert (w4.n, w4.m) == (30, 38)
    for w in (w3, w4):
        assert max(w.degree(v) for v in range(w.n)) == 3
        assert min(w.degree(v) for v in range(w.n)) == 2
        assert len(connected_components(w)) == 1
    assert sum(1 for v in range(w3.n) if w3.degree(v) == 3) == 6
    assert sum(1 for v in range(w4.n) if w4.degree(v) == 3) == 16
    with pytest.raises(ValueError):
        wall(0)


def test_wall_matches_the_pruned_drawing():
    # perfbench/corpus.py builds its walls without the library, by deleting
    # cells of degree at most 1 until none is left.  That pruning is the
    # reference for the two corners wall cuts, and the benchmark's wall
    # hosts must be the library's walls.
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    for t in range(1, 13):
        assert build_graph(*corpus.wall(t)) == wall(t), t


def test_complement_and_union():
    assert complement(complete_graph(4)).m == 0
    assert complement(path_graph(3)) == build_graph(3, [(0, 2)])
    u = disjoint_union(complete_graph(3), path_graph(2))
    assert u.n == 5 and u.m == 4
    assert connected_components(u) == [mask_of([0, 1, 2]), mask_of([3, 4])]


def test_derived_graphs_pass_the_constructor_check():
    # These builders skip Graph's validation, trusting their valid inputs;
    # rebuilding each result through Graph(...) checks that trust.
    densities = (0.0, 0.2, 0.5, 0.8, 1.0)
    hosts = [random_graph(n, p, 16 * n + k) for n in range(13) for k, p in enumerate(densities)]
    hosts += [wall(t) for t in (2, 3, 4)]
    for g in hosts:
        rng = random.Random(g.n)
        perm = list(range(g.n))
        rng.shuffle(perm)
        keep = [v for v in range(g.n) if rng.random() < 0.6]
        derived = (
            complement(g),
            induced_subgraph(g, keep)[0],
            relabel(g, perm),
            disjoint_union(g, complement(g)),
            line_graph(g),
        )
        for h in derived:
            assert Graph(h.n, h.adj) == h


def test_ab_tree_graph_validates():
    for a, b in [(1, 1), (1, 2), (2, 2), (3, 2), (2, 4), (3, 3), (4, 3), (5, 1)]:
        g, root = ab_tree_graph(a, b)
        assert root == 0
        assert ab_tree_violation(g, ab_tree_cert(a, b)) is None
    assert ab_tree_graph(6, 6)[0].n == 4687
    assert ab_tree_graph(3, 2)[0] == complete_bipartite(1, 3)
    with pytest.raises(ValueError):
        ab_tree_graph(1, 3)


def test_subdivide_plans():
    k3 = complete_graph(3)
    assert subdivide(k3, [0, 0, 0]) == k3
    c6 = subdivide(k3, [1, 1, 1])
    assert c6.n == 6 and all(c6.degree(v) == 2 for v in range(6))

    g = cycle_graph(4)
    h = subdivide(g, [1, 0, 2, 0])
    assert h.n == 4 + 3
    assert h.m == g.m + 3
    # Edge (0,1) gains vertex 4; edge (1,2) gains 5 then 6.
    assert h.has_edge(0, 4) and h.has_edge(4, 1)
    assert is_induced_path(h, (1, 5, 6, 2))
    # A mapping is refused even when its keys would read as counts.
    for plan in ({(0, 1): 1, (0, 3): 0, (1, 2): 0, (2, 3): 0}, {0: 1, 1: 1, 2: 1, 3: 1}):
        with pytest.raises(ValueError, match="not a mapping"):
            subdivide(g, plan)
    with pytest.raises(ValueError):
        subdivide(g, [1, 2, 3])


def test_random_subdivision_deterministic():
    g = cycle_graph(4)
    assert random_subdivision(g, 3, 7) == random_subdivision(g, 3, 7)
    assert random_subdivision(g, 3, random.Random(7)) == random_subdivision(g, 3, 7)


def test_random_graph_seeded():
    assert random_graph(12, 0.3, 5) == random_graph(12, 0.3, 5)
    assert random_graph(12, 0.0, 5).m == 0
    assert random_graph(12, 1.0, 5) == complete_graph(12)
    with pytest.raises(ValueError):
        random_graph(5, 1.5, 0)


def test_constellation_structure():
    g = constellation(2, 3, (1, 2, 2), ((1, 0b01, 0b10), (1, 0b11, 0b01)))
    assert g.n == 2 + 5
    assert is_stable_set(g, [0, 1])
    comps = connected_components(g, g.full_mask & ~0b11)
    assert len(comps) == 3
    for comp in comps:
        assert is_induced_path(g, list(iter_bits(comp)))
    # Center 0 attaches to path 0 at its only vertex, to path 1 at its first
    # vertex, and to path 2 at its second vertex.
    assert g.has_edge(0, 2) and g.has_edge(0, 3) and g.has_edge(0, 6)
    assert not g.has_edge(0, 4) and not g.has_edge(0, 5)

    # Attach sets may be position iterables instead of masks.
    assert constellation(1, 1, [3], [[(0, 1, 2)]]) == build_graph(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    )
    # Full attachment on three single-vertex paths is K_{2,3}.
    assert constellation(2, 3, (1, 1, 1), ((1, 1, 1), (1, 1, 1))) == complete_bipartite(2, 3)

    with pytest.raises(ValueError):
        constellation(2, 1, (2,), ((0,), (1,)))
    with pytest.raises(ValueError):
        constellation(2, 1, (1,), ((0b10,), (1,)))
    with pytest.raises(ValueError):
        constellation(1, 2, (1,), ((1, 1),))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_constellation_meets_its_definition(data):
    s = data.draw(st.integers(1, 3))
    l = data.draw(st.integers(1, 3))
    lengths = data.draw(st.lists(st.integers(1, 4), min_size=l, max_size=l))
    attach = []
    for _ in range(s):
        row = []
        for size in lengths:
            m = data.draw(st.integers(1, (1 << size) - 1))
            row.append(m if data.draw(st.booleans()) else list(iter_bits(m)))
        attach.append(row)
    g = constellation(s, l, lengths, attach)
    centers = mask_of(range(s))
    blocks, base = [], s
    for size in lengths:
        blocks.append(mask_of(range(base, base + size)))
        base += size
    assert g.n == base
    assert is_stable_set(g, centers)
    assert connected_components(g, g.full_mask & ~centers) == blocks
    for block in blocks:
        assert is_induced_path(g, list(iter_bits(block)))
        assert all(g.adj[c] & block for c in range(s))


@given(st.integers(min_value=3, max_value=8))
@settings(max_examples=10, deadline=None)
def test_cycle_is_induced_cycle(n):
    g = cycle_graph(n)
    assert is_induced_cycle(g, tuple(range(n)))


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=20, deadline=None)
def test_random_subdivision_keeps_branch_degrees(seed):
    g = wall(3)
    h = random_subdivision(g, 2, seed)
    assert len(connected_components(h)) == 1
    before = sorted(d for v in range(g.n) if (d := g.degree(v)) >= 3)
    after = sorted(d for v in range(h.n) if (d := h.degree(v)) >= 3)
    assert before == after


@given(st.integers(min_value=0, max_value=14), st.floats(0.0, 1.0), st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_line_graph_matches_definition(n, p, seed):
    g = random_graph(n, p, seed)
    es = g.edges()
    lg = line_graph(g)
    assert lg.n == len(es)
    for i, j in itertools.combinations(range(lg.n), 2):
        assert lg.has_edge(i, j) == bool(set(es[i]) & set(es[j])), (es[i], es[j])
    # Symmetric and loop-free: the lower triangle agrees with the upper one.
    assert lg == build_graph(lg.n, lg.edges())
