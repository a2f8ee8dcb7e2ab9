"""Searches against frozen answers, validators, and brute-force oracles."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thetakit.detectors import (
    CapExceeded,
    ConstellationWitness,
    Embedding,
    ThetaWitness,
    clique_number,
    constellation_witness_violation,
    embedding_violation,
    excludes_wall_line_graphs,
    find_biclique,
    find_constellation,
    find_induced,
    find_prism,
    find_theta,
    max_path_fan,
    three_in_a_tree,
    theta_witness_violation,
)
from thetakit.generators import (
    complete_bipartite,
    complete_graph,
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
from thetakit.graphs import build_graph, mask_of, relabel


def seeded_hosts(count, max_n=8, start=0):
    for i in range(count):
        n = 4 + (i % (max_n - 3))
        p = (0.15, 0.3, 0.5, 0.7, 0.85)[i % 5]
        yield random_graph(n, p, seed=start + i)


class TestFindInduced:
    def test_path_in_cycle_is_least(self):
        emb = find_induced(cycle_graph(5), path_graph(3))
        assert emb is not None and emb.phi == (0, 1, 2)
        assert embedding_violation(cycle_graph(5), emb) is None

    def test_square_in_clique_none(self):
        assert find_induced(complete_graph(4), cycle_graph(4)) is None

    def test_pentagon_in_petersen(self):
        emb = find_induced(petersen(), cycle_graph(5))
        assert emb is not None and emb.phi == (0, 1, 2, 3, 4)

    def test_empty_pattern(self):
        emb = find_induced(cycle_graph(4), build_graph(0, []))
        assert emb is not None and emb.phi == ()

    def test_pattern_larger_than_host(self):
        assert find_induced(path_graph(3), path_graph(4)) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            find_induced(petersen(), path_graph(3), cap=5)

    def test_violation_messages(self):
        host = cycle_graph(5)
        short = Embedding(path_graph(3), (0, 1))
        assert "cover" in embedding_violation(host, short)
        dup = Embedding(path_graph(3), (0, 1, 1))
        assert "injective" in embedding_violation(host, dup)
        out = Embedding(path_graph(3), (0, 1, 7))
        assert "range" in embedding_violation(host, out)
        chord = Embedding(path_graph(3), (0, 1, 4))
        assert "not reproduced" in embedding_violation(host, chord)

    def test_agrees_with_permutation_order(self):
        patterns = [path_graph(3), cycle_graph(3), cycle_graph(4),
                    build_graph(4, [(0, 1), (0, 2), (0, 3)])]
        cases = [(host, patterns[i % len(patterns)])
                 for i, host in enumerate(seeded_hosts(60, max_n=6, start=900))]
        # Five- and six-vertex patterns on hosts of up to eight vertices, where
        # forward checking empties masks of later pattern vertices.  Every
        # other host has a copy of the pattern planted on random vertices, so
        # hits are not rare.
        larger = [prism_graph(2, 2, 2), cycle_graph(5), path_graph(5),
                  line_graph(build_graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]))]
        grid = itertools.product(larger, (6, 7, 8), (0.3, 0.5, 0.7), (False, True))
        for seed, (pat, n, p, plant) in enumerate(grid):
            host = random_graph(n, p, seed=1000 + seed)
            if plant:
                spots = random.Random(seed).sample(range(n), pat.n)
                inside = set(spots)
                edges = [e for e in host.edges() if not inside.issuperset(e)]
                edges += [(spots[a], spots[b]) for a, b in pat.edges()]
                host = build_graph(n, edges)
            cases.append((host, pat))
        hits = 0
        for host, pat in cases:
            got = find_induced(host, pat)
            want = oracles.least_induced_embedding(host, pat)
            assert (None if got is None else got.phi) == want
            hits += want is not None
        assert 0 < hits < len(cases)


class TestTheta:
    def test_biclique_two_three(self):
        g = complete_bipartite(2, 3)
        w = find_theta(g)
        assert w == ThetaWitness(0, 1, ((0, 2, 1), (0, 3, 1), (0, 4, 1)))
        assert theta_witness_violation(g, w) is None

    def test_none_cases(self):
        assert find_theta(complete_graph(5)) is None
        assert find_theta(cycle_graph(9)) is None
        dumbbell = build_graph(
            7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 6), (6, 3)]
        )
        assert find_theta(dumbbell) is None

    def test_theta_graphs_all_found(self):
        for l1 in range(2, 5):
            for l2 in range(l1, 5):
                for l3 in range(l2, 5):
                    g = theta_graph(l1, l2, l3)
                    w = find_theta(g)
                    assert w is not None and theta_witness_violation(g, w) is None

    def test_petersen_contains_theta(self):
        w = find_theta(petersen())
        assert w is not None and theta_witness_violation(petersen(), w) is None

    def test_validator_rejects_tampering(self):
        g = complete_bipartite(2, 3)
        assert "three paths" in theta_witness_violation(
            g, ThetaWitness(0, 1, ((0, 2, 1), (0, 3, 1)))
        )
        k4 = complete_graph(4)
        assert theta_witness_violation(
            k4, ThetaWitness(0, 1, ((0, 2, 1), (0, 3, 1), (0, 2, 1)))
        ) is not None
        # Interiors must avoid each other: subdivide nothing, reuse C6 arcs.
        c6 = cycle_graph(6)
        w = ThetaWitness(0, 3, ((0, 1, 2, 3), (0, 5, 4, 3), (0, 1, 2, 3)))
        assert theta_witness_violation(c6, w) is not None

    def test_oracle_agreement_seeded(self):
        hits = 0
        for g in seeded_hosts(300, max_n=8, start=0):
            got = find_theta(g)
            want = oracles.contains_theta(g)
            assert (got is not None) == want
            if got is not None:
                assert theta_witness_violation(g, got) is None
                hits += 1
        assert 0 < hits < 300

    def test_cap(self):
        with pytest.raises(CapExceeded):
            find_theta(petersen(), cap=9)

    def test_deterministic(self):
        g = random_graph(8, 0.5, seed=77)
        assert find_theta(g) == find_theta(random_graph(8, 0.5, seed=77))


def prism_by_patterns(g):
    """The shape-ordered reference: find_induced on prism_graph(l1, l2, l3)
    for l1 <= l2 <= l3 in ascending (total, l1, l2), first hit returned."""
    for total in range(6, g.n + 1):
        for l1 in range(2, total // 3 + 1):
            for l2 in range(l1, (total - l1) // 2 + 1):
                emb = find_induced(g, prism_graph(l1, l2, total - l1 - l2))
                if emb is not None:
                    return emb
    return None


def shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def random_cubic(n, seed):
    return build_graph(n, nx.random_regular_graph(3, n, seed=seed).edges())


def perturbed_prism(rng, lengths, extra, toggles):
    """prism_graph(*lengths) plus extra vertices of random adjacency, with
    some vertex pairs toggled, relabelled at random."""
    g = prism_graph(*lengths)
    n = g.n + extra
    edges = set(g.edges())
    for v in range(g.n, n):
        edges |= {(u, v) for u in range(v) if rng.random() < 0.3}
    edges ^= set(rng.sample(list(itertools.combinations(range(n), 2)), toggles))
    return shuffled(build_graph(n, edges), rng)


PRISM_HOSTS = {
    "sparse-gnp": lambda: (
        random_graph(n, p, seed=41_000 + 10 * n + k)
        for n in range(8, 17)
        for k, p in enumerate((0.2, 0.25, 0.3))
    ),
    "theta-lines": lambda: (
        shuffled(line_graph(theta_graph(*sorted(rng.randint(2, 6) for _ in range(3)))), rng)
        for rng in [random.Random(42_000)]
        for _ in range(12)
    ),
    "wall3-lines": lambda: (
        shuffled(line_graph(random_subdivision(wall(3), 1, 43_000 + k)), random.Random(k))
        for k in range(3)
    ),
    "cubic-lines": lambda: (
        shuffled(line_graph(random_cubic(n, 44_000 + n)), random.Random(n))
        for n in range(6, 15, 2)
    ),
    "dense-gnp": lambda: (random_graph(n, 0.5, seed=45_000 + n) for n in range(6, 15)),
    "perturbed-prisms": lambda: (
        perturbed_prism(rng, [rng.randint(2, 5) for _ in range(3)], rng.randint(0, 2), rng.randint(0, 3))
        for rng in [random.Random(46_000)]
        for _ in range(40)
    ),
    # Two prisms of one total: only the sorted lengths decide between them.
    "equal-totals": lambda: (
        shuffled(disjoint_union(prism_graph(*s), prism_graph(*t)), random.Random(k))
        for k in range(2)
        for s, t in itertools.permutations(((2, 2, 5), (2, 3, 4), (3, 3, 3)), 2)
    ),
    "none-cases": lambda: (cycle_graph(6), petersen(), complete_graph(5)),
}


class TestPrism:
    def test_triangular_prism(self):
        g = prism_graph(2, 2, 2)
        emb = find_prism(g)
        assert emb is not None and embedding_violation(g, emb) is None
        assert emb.pattern.n == 6

    def test_none_cases(self):
        assert find_prism(cycle_graph(6)) is None
        assert find_prism(petersen()) is None
        assert find_prism(complete_graph(5)) is None

    def test_line_graphs_of_thetas(self):
        for l1 in range(2, 4):
            for l2 in range(l1, 4):
                for l3 in range(l2, 4):
                    h = line_graph(theta_graph(l1, l2, l3))
                    emb = find_prism(h)
                    assert emb is not None and embedding_violation(h, emb) is None

    def test_wall_line_graph(self):
        h = line_graph(wall(3))
        emb = find_prism(h)
        assert emb is not None and embedding_violation(h, emb) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            find_prism(line_graph(wall(4)), cap=32)

    @pytest.mark.parametrize("family", sorted(PRISM_HOSTS))
    def test_same_embedding_as_the_shape_loop(self, family):
        for g in PRISM_HOSTS[family]():
            assert find_prism(g) == prism_by_patterns(g)

    def test_oracle_agreement_seeded(self):
        rng = random.Random(40_000)
        small = ((2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3))
        hosts = [random_graph(6 + i % 4, (0.3, 0.45, 0.6, 0.75)[i % 4], seed=40_000 + i) for i in range(80)]
        hosts += [perturbed_prism(rng, small[i % 4], i % 2, i % 3) for i in range(120)]
        for g in hosts:
            emb = find_prism(g)
            assert (emb is not None) == oracles.contains_prism(g)
            if emb is not None:
                assert oracles.induces_prism(g, mask_of(emb.phi))


class TestClique:
    def test_frozen(self):
        assert clique_number(complete_graph(4)) == (4, (0, 1, 2, 3))
        assert clique_number(petersen()) == (2, (0, 1))
        assert clique_number(cycle_graph(5)) == (2, (0, 1))
        assert clique_number(complete_bipartite(3, 3)) == (2, (0, 3))
        assert clique_number(build_graph(0, [])) == (0, ())
        assert clique_number(build_graph(3, [])) == (1, (0,))

    def test_oracle_agreement_seeded(self):
        for g in seeded_hosts(200, max_n=8, start=10_000):
            size, wit = clique_number(g)
            assert size == oracles.max_clique_mask(g).bit_count()
            assert mask_of(wit).bit_count() == size
            assert all(g.has_edge(a, b) for a, b in itertools.combinations(wit, 2))


class TestBiclique:
    def test_found_cases(self):
        g = complete_bipartite(3, 3)
        emb = find_biclique(g, 3)
        assert emb is not None and embedding_violation(g, emb) is None
        emb2 = find_biclique(complete_bipartite(2, 3), 2)
        assert emb2 is not None and embedding_violation(complete_bipartite(2, 3), emb2) is None

    def test_none_cases(self):
        assert find_biclique(theta_graph(3, 3, 3), 3) is None
        assert find_biclique(cycle_graph(6), 2) is None

    def test_bad_side(self):
        with pytest.raises(ValueError):
            find_biclique(cycle_graph(4), 0)

    def test_oracle_agreement_seeded(self):
        for i, g in enumerate(seeded_hosts(150, max_n=8, start=20_000)):
            s = 1 + i % 3
            got = find_biclique(g, s)
            assert (got is not None) == oracles.has_induced_biclique(g, s)
            if got is not None:
                assert embedding_violation(g, got) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            find_biclique(petersen(), 2, cap=9)


class TestConstellation:
    def test_biclique_witness(self):
        g = complete_bipartite(2, 3)
        w = find_constellation(g, 2, 3)
        assert w == ConstellationWitness((0, 1), ((2,), (3,), (4,)))
        assert constellation_witness_violation(g, w, 2, 3) is None

    def test_single_center_single_path(self):
        g = cycle_graph(5)
        w = find_constellation(g, 1, 1)
        assert w is not None and constellation_witness_violation(g, w, 1, 1) is None

    def test_none_cases(self):
        assert find_constellation(complete_graph(4), 2, 1) is None
        assert find_constellation(path_graph(2), 1, 2) is None

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            find_constellation(cycle_graph(4), 0, 1)
        with pytest.raises(ValueError):
            find_constellation(cycle_graph(4), 1, 0)

    def test_validator_rejects_tampering(self):
        g = complete_bipartite(2, 3)
        assert "centers" in constellation_witness_violation(
            g, ConstellationWitness((0, 2), ((3,), (4,))), 2, 2
        )
        assert constellation_witness_violation(
            g, ConstellationWitness((0, 1), ((2,), (3,))), 2, 3
        ) is not None
        k4 = complete_graph(4)
        assert constellation_witness_violation(
            k4, ConstellationWitness((0,), ((1, 2),)), 1, 1
        ) is None
        assert "anticomplete" in constellation_witness_violation(
            k4, ConstellationWitness((0,), ((1,), (2,))), 1, 2
        )

    def test_longer_paths(self):
        # A center seeing both ends of a 4-vertex path.
        g = build_graph(5, [(1, 2), (2, 3), (3, 4), (0, 1), (0, 4)])
        w = find_constellation(g, 1, 1)
        assert w is not None and constellation_witness_violation(g, w, 1, 1) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            find_constellation(random_graph(25, 0.5, seed=1), 1, 1)


class TestThreeInATree:
    @staticmethod
    def check_tree(g, verts, z):
        m = mask_of(verts)
        assert len(set(verts)) == len(verts)
        assert sum((g.adj[v] & m).bit_count() for v in verts) // 2 == len(verts) - 1
        assert len([v for v in z if m >> v & 1]) >= 3
        assert oracles.induces_tree(g, m)

    def test_path(self):
        g = path_graph(5)
        t = three_in_a_tree(g, (0, 2, 4))
        assert t == (0, 1, 2, 3, 4)
        self.check_tree(g, t, (0, 2, 4))

    def test_star(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        t = three_in_a_tree(g, (1, 2, 3))
        assert t == (0, 1, 2, 3)
        self.check_tree(g, t, (1, 2, 3))

    def test_net_is_constricted(self):
        net = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
        assert three_in_a_tree(net, (3, 4, 5)) is None
        assert three_in_a_tree(net, (3, 4, 5)) is None

    def test_biclique_side(self):
        g = complete_bipartite(3, 3)
        t = three_in_a_tree(g, (0, 1, 2))
        assert t is not None
        self.check_tree(g, t, (0, 1, 2))

    def test_bad_sets(self):
        with pytest.raises(ValueError):
            three_in_a_tree(path_graph(4), (0, 2))
        with pytest.raises(ValueError):
            three_in_a_tree(path_graph(4), (0, 1, 3))

    def test_oracle_agreement_seeded(self):
        checked = 0
        for g in seeded_hosts(250, max_n=8, start=30_000):
            z = next(
                (
                    trip
                    for trip in itertools.combinations(range(g.n), 3)
                    if not any(g.has_edge(a, b) for a, b in itertools.combinations(trip, 2))
                ),
                None,
            )
            if z is None:
                continue
            got = three_in_a_tree(g, z)
            assert (got is not None) == oracles.has_tree_with_three(g, z)
            if got is not None:
                self.check_tree(g, got, z)
            checked += 1
        assert checked > 100

    def test_cap(self):
        with pytest.raises(CapExceeded):
            three_in_a_tree(path_graph(5), (0, 2, 4), cap=4)


def wall_chains(w):
    """(u, v, edges, index of the first edge) for each chain of w, a maximal
    run of edges between branch vertices, listed by u and the first step."""
    index = {e: i for i, e in enumerate(w.edges())}
    chains, seen = [], set()
    for u in range(w.n):
        if w.degree(u) < 3:
            continue
        for x in w.neighbors(u):
            if (u, x) in seen:
                continue
            prev, cur, k = u, x, 1
            while w.degree(cur) == 2:
                prev, cur, k = cur, next(y for y in w.neighbors(cur) if y != prev), k + 1
            seen.add((cur, prev))
            chains.append((u, cur, k, index[(min(u, x), max(u, x))]))
    return chains


def wall_by_profiles(g, r):
    """The profile-ordered reference for r >= 3: find_induced on the line
    graph of every subdivision of wall(r), ascending by total added vertices
    and then by per-chain counts in chain order, first hit returned; a
    chain's added vertices go on its first edge."""
    w = wall(r)
    firsts = [e for _, _, _, e in wall_chains(w)]
    k = len(firsts)
    for extra in range(g.n - w.m + 1):
        for split in itertools.combinations(range(extra + k - 1), k - 1):
            bounds = (-1,) + split + (extra + k - 1,)
            counts = [0] * w.m
            for e, lo, hi in zip(firsts, bounds, bounds[1:]):
                counts[e] = hi - lo - 1
            emb = find_induced(g, line_graph(subdivide(w, counts)))
            if emb is not None:
                return emb
    return None


def wall3_with_lengths(lengths, chords=0, rng=None):
    """The line graph of wall(3)'s branch vertices joined by chains of the
    given edge counts, which may fall below wall(3)'s, plus ``chords`` edges
    between the corners that chains i and i + 1 (i < chords, counted among
    the chains with one edge in wall(3)) have at their first branch
    vertices, relabelled by rng."""
    chains = wall_chains(wall(3))
    edges, corners, n = [], [], 16
    for (u, v, _, _), l in zip(chains, lengths):
        path = [u] + list(range(n, n + l - 1)) + [v]
        n += l - 1
        edges += zip(path, path[1:])
        corners.append((min(path[:2]), max(path[:2])))
    h = line_graph(build_graph(n, edges))
    at = {e: i for i, e in enumerate(build_graph(n, edges).edges())}
    ones = [corners[i] for i, c in enumerate(chains) if c[2] == 1]
    h = build_graph(h.n, set(h.edges()) | {(at[ones[i]], at[ones[i + 1]]) for i in range(chords)})
    return shuffled(h, rng) if rng else h


def wall3_line(rng, extra):
    """L(wall(3)) with extra vertices spread over its edges, relabelled."""
    counts = [0] * wall(3).m
    for _ in range(extra):
        counts[rng.randrange(len(counts))] += 1
    return shuffled(line_graph(subdivide(wall(3), counts)), rng)


def host_triangles(g):
    return [t for t in itertools.combinations(range(g.n), 3)
            if all(g.has_edge(a, b) for a, b in itertools.combinations(t, 2))]


def with_chord(g, rng):
    edges = set(g.edges())
    chord = rng.choice([e for e in itertools.combinations(range(g.n), 2) if e not in edges])
    return build_graph(g.n, edges | {chord})


def with_pendant(g, rng):
    return build_graph(g.n + 1, set(g.edges()) | {(rng.randrange(g.n), g.n)})


def short_chain_hosts(rng):
    """wall3_with_lengths with one chain a vertex shorter than in wall(3),
    two vertices where three are needed or three where four are, alone and
    with another chain one edge longer."""
    chains = wall_chains(wall(3))
    for i, (_, _, k, _) in enumerate(chains):
        if k >= 2:
            lengths = [c[2] for c in chains]
            lengths[i] -= 1
            yield wall3_with_lengths(lengths, 0, rng)
            lengths[rng.choice([j for j in range(len(chains)) if j != i])] += 1
            yield wall3_with_lengths(lengths, 0, rng)


WALL_HOSTS = {
    "wall3-lines": lambda: (wall3_line(rng, k % 3) for rng in [random.Random(47_000)] for k in range(12)),
    "wall3-lines-chord": lambda: (
        with_chord(wall3_line(rng, k % 3), rng) for rng in [random.Random(48_000)] for k in range(9)
    ),
    "wall3-lines-pendant": lambda: (
        with_pendant(wall3_line(rng, k % 3), rng) for rng in [random.Random(49_000)] for k in range(9)
    ),
    "triangle-poor-gnp": lambda: (
        random_graph(19 + k % 3, 0.2, seed=50_000 + k) for k in range(10)
    ),
    "short-chain-lines": lambda: short_chain_hosts(random.Random(53_000)),
    # Two chains with one edge in wall(3) toward the same branch vertex,
    # lengthened, with their far corners joined, and maybe one more chord.
    "corner-chord-lines": lambda: (
        wall3_with_lengths([k + (k == 1 and j < 4) for j, (_, _, k, _) in enumerate(wall_chains(wall(3)))],
                           1 + t % 2, rng)
        for rng in [random.Random(54_000)]
        for t in range(6)
    ),
}


class TestWallLineExclusion:
    def test_triangle_free_host(self):
        rep = excludes_wall_line_graphs(petersen(), 3)
        assert rep.excluded and not rep.partial and rep.patterns_tried == 0
        assert "triangle-free" in rep.reason

    def test_hexagon_hosts_dodge_triangle_shortcut(self):
        # wall(2) is a 6-cycle, so its subdivision line graphs are cycles
        # and triangle-freeness of the host proves nothing.
        rep = excludes_wall_line_graphs(petersen(), 2)
        assert not rep.excluded
        assert rep.embedding is not None and embedding_violation(petersen(), rep.embedding) is None

    def test_contains_itself(self):
        h = line_graph(wall(3))
        rep = excludes_wall_line_graphs(h, 3)
        assert not rep.excluded and not rep.partial
        assert rep.embedding is not None and embedding_violation(h, rep.embedding) is None

    def test_small_host_r1(self):
        rep = excludes_wall_line_graphs(cycle_graph(5), 1)
        assert rep.excluded and not rep.partial and rep.patterns_tried == 0

    def test_long_cycle_r1(self):
        rep = excludes_wall_line_graphs(cycle_graph(7), 1)
        assert not rep.excluded
        assert rep.embedding is not None and embedding_violation(cycle_graph(7), rep.embedding) is None

    def test_clique_host_has_no_long_induced_cycle(self):
        rep = excludes_wall_line_graphs(complete_graph(20), 2, pattern_budget=1)
        assert rep.excluded and not rep.partial and rep.embedding is None

    def test_small_triangle_host(self):
        rep = excludes_wall_line_graphs(complete_graph(4), 2)
        assert rep.excluded and not rep.partial

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            excludes_wall_line_graphs(cycle_graph(4), 0)
        with pytest.raises(CapExceeded):
            excludes_wall_line_graphs(line_graph(wall(4)), 3)

    def test_subdivided_wall_line_graph_is_decided(self):
        rng = random.Random(51_000)
        counts = [1] * 10 + [0] * 9
        rng.shuffle(counts)
        h = shuffled(line_graph(subdivide(wall(3), counts)), rng)
        assert h.n == 29
        rep = excludes_wall_line_graphs(h, 3)
        assert not rep.excluded and not rep.partial
        assert rep.embedding is not None and embedding_violation(h, rep.embedding) is None

    @pytest.mark.parametrize("triangles", range(1, 6))
    def test_too_few_triangles_is_decided(self, triangles):
        # Dropping one edge of a triangle of L(subdivided wall(3)) removes that triangle.
        rng = random.Random(52_000 + triangles)
        h = line_graph(subdivide(wall(3), [rng.randint(0, 1) for _ in range(wall(3).m)]))
        edges = set(h.edges())
        for a, b, _ in host_triangles(h)[triangles:]:
            edges.discard((a, b))
        h = shuffled(build_graph(h.n, edges), rng)
        assert len(host_triangles(h)) == triangles
        rep = excludes_wall_line_graphs(h, 3, pattern_budget=40)
        assert rep.excluded and not rep.partial and rep.embedding is None

    def test_walls_above_the_host_size(self):
        rep = excludes_wall_line_graphs(complete_graph(20), 4)
        assert rep.excluded and not rep.partial

    @pytest.mark.parametrize("family", sorted(WALL_HOSTS))
    def test_same_embedding_as_the_profile_loop(self, family):
        for g in WALL_HOSTS[family]():
            rep = excludes_wall_line_graphs(g, 3)
            assert rep.embedding == wall_by_profiles(g, 3)
            assert rep.excluded == (rep.embedding is None) and not rep.partial
            # A second find_induced call embeds the least key the search found,
            # so it cannot miss.
            assert rep.embedding is not None or rep.patterns_tried <= 1


class TestMaxPathFan:
    def test_star(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert max_path_fan(g, 0, (1, 2, 3, 4)) == 4

    def test_path_middle(self):
        assert max_path_fan(path_graph(5), 2, (0, 4)) == 2

    def test_shared_cut_vertex(self):
        # Both targets sit behind vertex 1, so only one path fits.
        assert max_path_fan(path_graph(4), 0, (1, 3)) == 1

    def test_biclique(self):
        g = complete_bipartite(2, 3)
        assert max_path_fan(g, 0, (2, 3, 4)) == 3
        assert max_path_fan(g, 0, (1,)) == 1
        assert max_path_fan(g, 2, (3, 4)) == 2

    def test_unreachable_and_empty(self):
        g = build_graph(4, [(0, 1)])
        assert max_path_fan(g, 0, (2, 3)) == 0
        assert max_path_fan(g, 0, ()) == 0

    def test_hub_in_targets(self):
        with pytest.raises(ValueError):
            max_path_fan(path_graph(3), 1, (1, 2))


@pytest.mark.parametrize("hub", [-1, 3])
def test_max_path_fan_rejects_a_hub_outside_the_graph(hub):
    with pytest.raises(ValueError):
        max_path_fan(path_graph(3), hub, (0, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 7), st.sampled_from((0.2, 0.4, 0.6)))
def test_witnesses_always_valid(seed, n, p):
    g = random_graph(n, p, seed=seed)
    w = find_theta(g)
    if w is not None:
        assert theta_witness_violation(g, w) is None
    emb = find_biclique(g, 2)
    if emb is not None:
        assert embedding_violation(g, emb) is None
    cw = find_constellation(g, 1, 2)
    if cw is not None:
        assert constellation_witness_violation(g, cw, 1, 2) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 7))
def test_theta_matches_oracle(seed, n):
    g = random_graph(n, 0.45, seed=seed)
    assert (find_theta(g) is not None) == oracles.contains_theta(g)
