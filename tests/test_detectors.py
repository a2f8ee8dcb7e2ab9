"""Searches against frozen answers, validators, and brute-force oracles."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thetakit import detectors
from thetakit.detectors import (
    CapExceeded,
    ConstellationWitness,
    Embedding,
    ThetaWitness,
    WallLineReport,
    _largest,
    _legs,
    clique_number,
    constellation_witness_violation,
    embedding_violation,
    excludes_wall_line_graphs,
    find_biclique,
    find_constellation,
    find_induced,
    find_prism,
    find_theta,
    induced_tree_violation,
    max_path_fan,
    three_in_a_tree,
    theta_witness_violation,
)
from thetakit.generators import (
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
from thetakit.extraction import Biclique, PreconditionWitness, biclique_violation, witness_violation
from thetakit.graphs import (
    ABTreeCert,
    PathFamily,
    ab_tree_violation,
    build_graph,
    induced_subgraph,
    is_induced_cycle,
    is_induced_path,
    is_stable_set,
    iter_bits,
    iter_induced_paths,
    mask_of,
    neighborhood_mask,
    path_family_violation,
    relabel,
)
from thetakit.treewidth import treewidth_exact


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


def with_k4(g, rng):
    """g plus a K4, one of whose vertices is joined to a random vertex of g."""
    n = g.n
    k4 = set(itertools.combinations(range(n, n + 4), 2))
    return build_graph(n + 4, set(g.edges()) | k4 | {(rng.randrange(n), n + rng.randrange(4))})


def perturbed(rng, g, extra, toggles):
    """g plus extra vertices of random adjacency, with some vertex pairs
    toggled, relabelled at random."""
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
        perturbed(rng, prism_graph(*[rng.randint(2, 5) for _ in range(3)]), rng.randint(0, 2), rng.randint(0, 3))
        for rng in [random.Random(46_000)]
        for _ in range(40)
    ),
    # Two prisms of one total: only the sorted lengths decide between them.
    "equal-totals": lambda: (
        shuffled(disjoint_union(prism_graph(*s), prism_graph(*t)), random.Random(k))
        for k in range(2)
        for s, t in itertools.permutations(((2, 2, 5), (2, 3, 4), (3, 3, 3)), 2)
    ),
    # More triangles than branch vertices: the next level's spare is 0, so
    # each link's reachability is tested on an unblocked region.
    "prisms-with-triangles": lambda: (
        shuffled(with_k4(g, rng) if k % 2 else disjoint_union(g, complete_graph(3)), rng)
        for rng in [random.Random(46_500)]
        for k in range(16)
        for g in [perturbed(rng, prism_graph(*[rng.randint(2, 4) for _ in range(3)]), 0, k % 3)]
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
        hosts += [perturbed(rng, prism_graph(*small[i % 4]), i % 2, i % 3) for i in range(120)]
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

    @pytest.mark.parametrize("masked", [False, True])
    def test_least_embedding(self, masked):
        # phi is the first induced K_{s,s} in permutation order, within the mask too.
        rng = random.Random(76_000 + masked)
        hits = 0
        for i in range(300 if masked else 400):
            g = random_graph(5 + i % 5, (0.2, 0.35, 0.5, 0.7)[i % 4], seed=76_000 + i)
            s = 1 + i % 3
            within = rng.getrandbits(g.n) | rng.getrandbits(g.n) if masked else g.full_mask
            sub, back = induced_subgraph(g, within)
            want = oracles.least_induced_embedding(sub, complete_bipartite(s, s))
            got = find_biclique(g, s, within=within if masked else None)
            assert (got and got.phi) == (want and tuple(back[v] for v in want))
            hits += want is not None
        assert hits >= 100


def test_claw_centres_by_brute_force():
    for i in range(200):
        g = random_graph(9, 0.4, seed=77_000 + i)
        for v in range(g.n):
            want = any(not (g.adj[a] >> b & 1 or g.adj[a] >> c & 1 or g.adj[b] >> c & 1)
                       for a, b, c in itertools.combinations(iter_bits(g.adj[v]), 3))
            assert detectors._is_claw_centre(g.adj, v) == want


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

    def test_oracle_agreement_seeded(self):
        hits = 0
        for i, g in enumerate(seeded_hosts(270, max_n=9, start=51_000)):
            s, l = 1 + i // 6 % 3, 1 + i // 18 % 3
            got = find_constellation(g, s, l)
            assert (got is not None) == oracles.has_constellation(g, s, l)
            if got is not None:
                assert constellation_witness_violation(g, got, s, l) is None
                hits += 1
        assert 0 < hits < 270


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

    @staticmethod
    def two_half_search(g, zs):
        # The earlier search, kept as a reference: induced paths through a
        # middle terminal, then spiders on hubs of degree at least 3.
        full = g.full_mask
        for a, b, c in itertools.combinations(zs, 3):
            for u, w, mid in ((a, b, c), (a, c, b), (b, c, a)):
                for p in iter_induced_paths(g, u, w, full & ~(1 << u) & ~(1 << w)):
                    if mask_of(p) >> mid & 1:
                        return tuple(sorted(p))
            base = full & ~mask_of((a, b, c))
            for v in iter_bits(base):
                if g.adj[v].bit_count() >= 3:
                    for la, lb, lc in _legs(g, v, (a, b, c), base & ~(1 << v), 1 << v):
                        return tuple(sorted({v, *la, *lb, *lc}))
        return None

    def test_agrees_with_two_half_search(self):
        rng = random.Random(2010)
        hits = misses = 0
        for i in range(1500):
            n = 5 + i % 12
            g = random_graph(n, rng.choice((0.15, 0.25, 0.35, 0.5)), seed=rng.randrange(1 << 30))
            z = random_stable(g, rng, 4)
            if len(z) < 3:
                continue
            got = three_in_a_tree(g, z)
            assert (got is None) == (self.two_half_search(g, sorted(z)) is None), i
            if got is None:
                misses += 1
            else:
                hits += 1
                self.check_tree(g, got, z)
        assert hits > 900 and misses > 300


def theta_by_degree(g):
    """find_theta without the claw-centre prune or the ascending legs, kept
    as a reference: every nonadjacent pair of vertices of degree at least 3,
    ascending."""
    full = g.full_mask
    degs = [g.adj[v].bit_count() for v in range(g.n)]
    for x in range(g.n):
        if degs[x] < 3:
            continue
        for y in range(x + 1, g.n):
            if degs[y] < 3 or g.has_edge(x, y):
                continue
            ends = (1 << x) | (1 << y)
            for paths in oracles.legs_unconstrained(g, x, (y, y, y), full & ~ends, ends):
                return ThetaWitness(x, y, paths)
    return None


def tree_by_degree_hubs(g, z):
    """three_in_a_tree's hub loop without the claw-centre prune, over the
    unrestricted leg search, kept as a reference: every hub with at least as
    many neighbours as legs."""
    for a, b, c in itertools.combinations(sorted(z), 3):
        base = g.full_mask & ~mask_of((a, b, c))
        for hub in itertools.chain((c, b, a), iter_bits(base)):
            ends = tuple(t for t in (a, b, c) if t != hub)
            if g.adj[hub].bit_count() < len(ends):
                continue
            for legs in oracles.legs_unconstrained(g, hub, ends, base & ~(1 << hub), 1 << hub):
                return tuple(sorted({hub}.union(*legs)))
    return None


def constellation_by_regions(g, s, l):
    """find_constellation without the component cut or the prefix prune,
    kept as a reference: paths come from the whole region above the last
    minimum, and every prefix is extended."""

    def paths_in(region):
        def extend(last, path, banned):
            if len(path) == 1 or path[0] < path[-1]:
                yield path
            for c in iter_bits(g.adj[last] & region & ~banned):
                yield from extend(c, path + (c,), banned | g.adj[last] | (1 << c))

        for v in iter_bits(region):
            yield from extend(v, (v,), 1 << v)

    def pick_paths(centers, region, chosen, floor):
        if len(chosen) == l:
            return ConstellationWitness(centers, tuple(chosen))
        for p in paths_in(region & ~((1 << (floor + 1)) - 1)):
            pm = mask_of(p)
            if not all(g.adj[c] & pm for c in centers):
                continue
            chosen.append(p)
            got = pick_paths(centers, region & ~pm & ~neighborhood_mask(g, pm), chosen, min(p))
            if got is not None:
                return got
            chosen.pop()
        return None

    for centers in itertools.combinations(range(g.n), s):
        if is_stable_set(g, centers):
            got = pick_paths(centers, g.full_mask & ~mask_of(centers), [], -1)
            if got is not None:
                return got
    return None


def spider(rng, legs, max_len):
    """A hub with legs of 1..max_len edges."""
    edges, nxt = [], 1
    for _ in range(legs):
        prev = 0
        for _ in range(rng.randint(1, max_len)):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return build_graph(nxt, edges)


def random_stable(g, rng, most):
    """A stable set of at most ``most`` vertices, grown in random order."""
    z, free = [], g.full_mask
    for v in rng.sample(range(g.n), g.n):
        if free >> v & 1 and len(z) < most:
            z.append(v)
            free &= ~g.adj[v]
    return z


SEARCH_HOSTS = {
    "gnp": lambda: (
        random_graph(n, p, seed=47_000 + 10 * n + k)
        for n in range(5, 17)
        for k, p in enumerate((0.15, 0.25, 0.35, 0.5, 0.7))
    ),
    "random-lines": lambda: (
        line_graph(random_graph(n, p, seed=48_000 + 10 * n + k))
        for n in range(5, 11)
        for k, p in enumerate((0.25, 0.4, 0.55))
    ),
    "wall3": lambda: (
        h
        for seed in range(3)
        for h in (random_subdivision(wall(3), 1, seed), line_graph(random_subdivision(wall(3), 1, seed)))
    ),
    "spider-lines": lambda: (
        line_graph(spider(rng, rng.randint(3, 5), 4)) for rng in [random.Random(49_000)] for _ in range(30)
    ),
}


class TestSameWitnessAsTheUnprunedSearch:
    """The claw-centre, component and prefix prunes skip only branches that
    find nothing, so every witness equals the unpruned search's, not just its
    existence."""

    @pytest.mark.parametrize("family", sorted(SEARCH_HOSTS))
    def test_theta(self, family):
        for g in SEARCH_HOSTS[family]():
            assert find_theta(g) == theta_by_degree(g)

    @pytest.mark.parametrize("legs", [2, 3])
    def test_legs_to_one_end(self, legs):
        # Every nonadjacent pair, hits and misses, gets the same first tuple
        # of legs to one end as the search that lets legs start anywhere.
        rng = random.Random(51_000 + legs)
        hits = misses = 0
        for i in range(400):
            g = random_graph(5 + i % 9, rng.choice((0.2, 0.3, 0.4, 0.55)), seed=rng.randrange(1 << 30))
            for x, y in itertools.combinations(range(g.n), 2):
                if g.has_edge(x, y):
                    continue
                ends = (1 << x) | (1 << y)
                args = (g, x, (y,) * legs, g.full_mask & ~ends, ends)
                got = next(_legs(*args), None)
                assert got == next(oracles.legs_unconstrained(*args), None), (i, x, y)
                hits += got is not None
                misses += got is None
        assert hits > 500 and misses > 5000

    @pytest.mark.parametrize("family", sorted(SEARCH_HOSTS))
    def test_three_in_a_tree(self, family):
        rng = random.Random(family)
        hits = 0
        for g in SEARCH_HOSTS[family]():
            for _ in range(3):
                z = random_stable(g, rng, rng.randint(3, 5))
                if len(z) >= 3:
                    got = three_in_a_tree(g, z, cap=None)
                    assert got == tree_by_degree_hubs(g, z)
                    if got is not None:
                        hits += 1
                        assert induced_tree_violation(g, z, got) is None
        assert hits

    @pytest.mark.parametrize("s, l", list(itertools.product((1, 2, 3), repeat=2)))
    def test_constellation(self, s, l):
        rng = random.Random(50_000 + 3 * s + l)
        hosts = [random_graph(n, p, seed=rng.randrange(1 << 30)) for n in range(5, 15) for p in (0.2, 0.35, 0.5)]
        hosts += [random_graph(n, 0.25, seed=rng.randrange(1 << 30)) for n in (15, 17)]
        # As in the benchmark's constellation ops: L(wall(3)) and sparse G(20, p).
        hosts += [line_graph(wall(3)), random_graph(20, 0.13, seed=rng.randrange(1 << 30))]
        for _ in range(10):
            lengths = [rng.randint(1, 4) for _ in range(l)]
            attach = [[rng.randrange(1, 1 << k) for k in lengths] for _ in range(s)]
            hosts.append(perturbed(rng, constellation(s, l, lengths, attach), 2, 2))
        found = 0
        for g in hosts:
            got = find_constellation(g, s, l)
            assert got == constellation_by_regions(g, s, l)
            found += got is not None
        assert found


# mask_of calls in find_constellation(random_graph(20, 0.13, seed=3), 2, 3):
# one per stable center pair and one per path handed on to the next choice.
# Without the prefix prune it makes 45285.
CONSTELLATION_PATHS = 12218


def test_prefixes_without_room_are_dropped(monkeypatch):
    paths = count_calls(monkeypatch, detectors, "mask_of")
    assert find_constellation(random_graph(20, 0.13, seed=3), 2, 3) is None
    assert paths[0] == CONSTELLATION_PATHS


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


def wall_report_by_profiles(g, r):
    """The report excludes_wall_line_graphs owes for wall_by_profiles's answer.
    Too few host triangles settle it with no find_induced call.  Else one call
    tries the unsubdivided pattern, which ends the search if it embeds, and
    the search's second call embeds the least key it found, so that call
    cannot miss."""
    w = wall(r)
    emb = wall_by_profiles(g, r)
    if len(host_triangles(g)) < sum(w.degree(v) == 3 for v in range(w.n)):
        tried = 0
    else:
        tried = 1 if emb is None or emb.pattern.n == w.m else 2
    reason = ("pattern found" if emb else "no pattern embeds" if tried else
              "host is triangle-free or has fewer triangles than the wall has branch vertices")
    return WallLineReport(excluded=emb is None, r=r, host_n=g.n, patterns_tried=tried, partial=False,
                          reason=reason, embedding=emb)


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
    # More triangles than wall(3) has branch vertices, so the next level's
    # spare is 0 and each link's reachability is tested on an unblocked region.
    "wall3-lines-k4": lambda: (
        shuffled(with_k4(wall3_line(rng, k % 3), rng), rng) for rng in [random.Random(55_000)] for k in range(6)
    ),
    "wall3-lines-triangle": lambda: (
        shuffled(disjoint_union(wall3_line(rng, k % 3), complete_graph(3)), rng)
        for rng in [random.Random(56_000)]
        for k in range(6)
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
            assert excludes_wall_line_graphs(g, 3) == wall_report_by_profiles(g, 3)


def count_calls(monkeypatch, module, name):
    """Count the calls that go through module.name from now on, in a
    one-item list."""
    calls, real = [0], getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# Link searches (iter_induced_paths calls) that excludes_wall_line_graphs makes
# on L(random_subdivision(wall(r), 1, s)).  Before triangle placements were
# checked for reachability it made 1367, 1508, 956, 17318, 14058 and 14552;
# before the wall's automorphisms were broken, 72, 72, 50, 128, 106 and 112.
# The counts pin the search tree: a change that only makes each placement
# cheaper leaves them as they are.
LINK_SEARCHES = {(3, 0): 22, (3, 1): 22, (3, 2): 13, (4, 0): 90, (4, 1): 72, (4, 2): 74}
# The same for find_prism on the r = 3 hosts.
PRISM_LINK_SEARCHES = {0: 53, 1: 50, 2: 43}


@pytest.mark.parametrize("r, s", sorted(LINK_SEARCHES))
def test_placements_that_cannot_link_are_dropped(monkeypatch, r, s):
    h = line_graph(random_subdivision(wall(r), 1, s))
    calls = count_calls(monkeypatch, detectors, "iter_induced_paths")
    rep = excludes_wall_line_graphs(h, r, cap=None)
    assert not rep.excluded and rep.patterns_tried == 2
    assert calls[0] == LINK_SEARCHES[r, s]


@pytest.mark.parametrize("s", sorted(PRISM_LINK_SEARCHES))
def test_prism_link_searches_are_pinned(monkeypatch, s):
    h = line_graph(random_subdivision(wall(3), 1, s))
    calls = count_calls(monkeypatch, detectors, "iter_induced_paths")
    emb = find_prism(h)
    assert emb is not None and embedding_violation(h, emb) is None
    assert calls[0] == PRISM_LINK_SEARCHES[s]


THETA_CHAINS = ((0, 1, 2),) * 3


@pytest.mark.parametrize("chains, count", [
    (detectors._wall_chains(3)[1], 4),
    (detectors._wall_chains(4)[1], 2),
    (detectors._wall_chains(5)[1], 2),
    (THETA_CHAINS, 2),
])
def test_automorphisms_keep_every_chain_and_its_m(chains, count):
    order, autos, conditions = detectors._automorphisms(chains)
    assert len(autos) == count and len(set(autos)) == count and conditions
    for images, cmap in autos:
        sigma = dict(zip(order, images))
        assert sorted(images) == sorted(order) and sorted(cmap) == list(range(len(chains)))
        for (u, v, m), j in zip(chains, cmap):
            x, y, m_image = chains[j]
            assert m_image == m and {x, y} == {sigma[u], sigma[v]}


def test_automorphic_hosts_get_one_pattern():
    w, chains, firsts = detectors._wall_chains(3)
    plan = range(len(chains))  # added vertices per chain, moved by no automorphism but the identity
    patterns = set()
    for seed, (_, cmap) in enumerate(detectors._automorphisms(chains)[1]):
        counts = [0] * w.m
        for i, added in enumerate(plan):
            counts[firsts[cmap[i]]] = added
        h = shuffled(line_graph(subdivide(w, counts)), random.Random(seed))
        rep = excludes_wall_line_graphs(h, 3, cap=None)
        assert not rep.excluded and embedding_violation(h, rep.embedding) is None
        patterns.add(rep.embedding.pattern)
    assert len(patterns) == 1


def test_each_orbit_searched_once_gives_the_full_answers(monkeypatch):
    hosts = [g for family in (WALL_HOSTS, PRISM_HOSTS) for make in family.values() for g in make()]
    broken = [(excludes_wall_line_graphs(g, 3), find_prism(g)) for g in hosts]
    real = detectors._automorphisms

    def identity_only(chains):
        order = real(chains)[0]
        return order, ((order, tuple(range(len(chains)))),), ()

    monkeypatch.setattr(detectors, "_automorphisms", identity_only)
    assert [(excludes_wall_line_graphs(g, 3), find_prism(g)) for g in hosts] == broken


class TestNecessityFamily:
    """Hypothesis (b) of the paper is necessary: line graphs of subdivided
    walls are theta-free (claw-free, and a theta's branch vertex with its
    three neighbours is an induced claw) with clique number 3, and their
    treewidth grows with the wall."""

    def test_wall_line_graphs(self):
        hosts = [(r, line_graph(random_subdivision(wall(r), 1, seed))) for r in (3, 4) for seed in range(3)]
        hosts.append((4, line_graph(wall(4))))
        hosts += [(5, line_graph(random_subdivision(wall(5), 1, seed))) for seed in (1, 2)]
        assert [h.n for _, h in hosts[-2:]] == [96, 103]
        for r, h in hosts:
            assert find_theta(h, cap=None) is None
            assert clique_number(h)[0] == 3
            rep = excludes_wall_line_graphs(h, r, cap=None)
            assert not rep.excluded and embedding_violation(h, rep.embedding) is None
            assert treewidth_exact(h, cap=None)[0] == r + 1
        h = line_graph(wall(5))
        assert find_theta(h) is None
        assert treewidth_exact(h, cap=None)[0] == 6


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


@pytest.mark.parametrize("target", [-1, 3])
def test_max_path_fan_rejects_a_target_outside_the_graph(target):
    with pytest.raises(ValueError):
        max_path_fan(path_graph(3), 0, (2, target))


@pytest.mark.parametrize("z", [(0, 2, 9), (-1, 0, 2)])
def test_three_in_a_tree_rejects_terminals_outside_the_graph(z):
    with pytest.raises(ValueError):
        three_in_a_tree(path_graph(5), z)


def masked_hosts(count, start):
    """Seeded G(n <= 16, p) with a random vertex mask, its induced copy, and
    the copy's map back to host labels."""
    rng = random.Random(start)
    for i in range(count):
        n = 4 + i % 13
        g = random_graph(n, (0.2, 0.35, 0.5, 0.7)[i % 4], seed=start + i)
        within = rng.getrandbits(n)
        sub, back = induced_subgraph(g, within)
        yield rng, g, within, sub, back


class TestWithinMasks:
    """A search given ``within`` returns what the same search returns on
    the copy induced_subgraph(g, within), in the host's labels."""

    def test_clique_number(self):
        for _, g, within, sub, back in masked_hosts(400, 71_000):
            size, clique = clique_number(sub)
            assert clique_number(g, within) == (size, tuple(back[v] for v in clique))

    def test_stable_form_against_the_complement(self):
        for _, g, within, sub, back in masked_hosts(400, 72_000):
            _, stable = clique_number(complement(sub))
            assert _largest(g.adj, within, -1) == tuple(back[v] for v in stable)

    def test_find_biclique(self):
        hits = 0
        for _, g, within, sub, back in masked_hosts(400, 73_000):
            for s in (1, 2):
                want = find_biclique(sub, s)
                got = find_biclique(g, s, within=within)
                if want is None:
                    assert got is None
                else:
                    hits += 1
                    assert got == Embedding(want.pattern, tuple(back[v] for v in want.phi))
        assert hits >= 100

    def test_three_in_a_tree(self):
        hits = 0
        for rng, g, within, sub, back in masked_hosts(600, 74_000):
            z = random_stable(sub, rng, 3 + rng.randrange(3))
            if len(z) < 3:
                continue
            want = three_in_a_tree(sub, z, cap=None)
            zg = [back[v] for v in z]
            got = three_in_a_tree(g, zg, cap=None, within=within)
            if want is None:
                assert got is None
            else:
                hits += 1
                assert got == tuple(back[v] for v in want)
                assert induced_tree_violation(g, zg, got, within) is None
        assert hits >= 100

    def test_three_in_a_tree_tests_hubs_in_the_mask(self, monkeypatch):
        # The hub tests read G[within], so the masked search starts exactly
        # the leg searches that the search on the induced copy starts.
        legs = count_calls(monkeypatch, detectors, "_legs")
        claws = 0
        for rng, g, within, sub, back in masked_hosts(600, 76_000):
            z = random_stable(sub, rng, 3 + rng.randrange(3))
            if len(z) < 3:
                continue
            legs[0] = 0
            three_in_a_tree(sub, z, cap=None)
            on_copy = legs[0]
            legs[0] = 0
            three_in_a_tree(g, [back[v] for v in z], cap=None, within=within)
            assert legs[0] == on_copy
            # Hosts where a claw test on all of g would let a hub through.
            claws += any(
                detectors._is_claw_centre(g.adj, back[v]) and not detectors._is_claw_centre(sub.adj, v)
                for v in range(sub.n)
            )
        assert claws >= 100

    @pytest.mark.parametrize("within", [1 << 5, 0b111 | 1 << 9, -1])
    def test_a_mask_outside_the_graph_is_rejected(self, within):
        g = cycle_graph(5)
        for search in (
            lambda: clique_number(g, within),
            lambda: find_biclique(g, 1, within=within),
            lambda: three_in_a_tree(path_graph(5), (0, 2, 4), within=within),
        ):
            with pytest.raises(ValueError):
                search()

    def test_terminals_outside_the_mask_are_rejected(self):
        with pytest.raises(ValueError):
            three_in_a_tree(path_graph(5), (0, 2, 4), within=0b01111)

    def test_caps_count_the_mask(self):
        g = random_graph(70, 0.2, seed=75_000)
        inner = mask_of(range(20))
        with pytest.raises(CapExceeded):
            find_biclique(g, 2)
        find_biclique(g, 2, cap=detectors.THETA_PRISM_CAP, within=inner)
        z = random_stable(induced_subgraph(g, inner)[0], random.Random(1), 3)
        with pytest.raises(CapExceeded):
            three_in_a_tree(g, z)
        with pytest.raises(CapExceeded):
            three_in_a_tree(g, z, within=mask_of(range(40)))
        three_in_a_tree(g, z, within=inner)


# Each check meets a vertex id outside cycle_graph(5); a validator must name
# the fault and a predicate must answer False, not raise or accept.
@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda g: path_family_violation(g, PathFamily(9, 2, ((9, 1, 2),))), id="family-end"),
        pytest.param(lambda g: path_family_violation(g, PathFamily(0, 2, ((0, 9, 2),))), id="family-path"),
        pytest.param(
            lambda g: theta_witness_violation(g, ThetaWitness(9, 2, ((9, 1, 2), (9, 3, 2), (9, 4, 2)))),
            id="theta-end",
        ),
        pytest.param(
            lambda g: constellation_witness_violation(g, ConstellationWitness((9,), ((1,),))),
            id="constellation-center-9",
        ),
        pytest.param(
            lambda g: constellation_witness_violation(g, ConstellationWitness((-1,), ((1,),))),
            id="constellation-center-minus-1",
        ),
        pytest.param(
            lambda g: constellation_witness_violation(g, ConstellationWitness((0,), ((1, 9),))),
            id="constellation-path",
        ),
        pytest.param(lambda g: ab_tree_violation(g, ABTreeCert(1, 2, 0, (0, -1), ((-1, 0),))), id="ab-tree-vertex"),
        pytest.param(lambda g: ab_tree_violation(g, ABTreeCert(1, 1, -1, (0,), ())), id="ab-tree-root"),
        pytest.param(lambda g: biclique_violation(g, Biclique((0,), (-1,))), id="biclique"),
        pytest.param(lambda g: witness_violation(g, PreconditionWitness("clique", (0, 9), ())), id="clique"),
        pytest.param(lambda g: induced_tree_violation(g, (0, 2, 9), (0, 1, 2, 9)), id="induced-tree"),
        pytest.param(lambda g: is_induced_path(g, (9,)), id="induced-path"),
        pytest.param(lambda g: is_induced_cycle(g, (9, 0, 1)), id="induced-cycle"),
    ],
)
def test_validators_report_vertices_outside_the_graph(check):
    verdict = check(cycle_graph(5))
    assert verdict is False or isinstance(verdict, str)


# One table per validator: a minimal broken witness per row with the exact
# message it must produce, and a valid witness (message None) last.

@pytest.mark.parametrize("sides, message", [
    (((), (3,)), "both sides must be nonempty"),
    (((0, 1), (3,)), "the sides must have equal size"),
    (((0, 0), (3, 4)), "the sides must be disjoint and repetition-free"),
    (((0, 3), (1, 4)), "each side must be a stable set"),
    (((0,), (1,)), "missing cross edge 0-1"),
    (((0, 1, 2), (3, 4, 5)), None),
])
def test_biclique_violation_messages(sides, message):
    assert biclique_violation(complete_bipartite(3, 3), Biclique(*sides)) == message


@pytest.mark.parametrize("g, kind, witness, message", [
    (complete_graph(4), "clique", (0,), "a clique witness needs at least two distinct vertices"),
    (complete_graph(4), "stable", (0, 1), "unknown witness kind 'stable'"),
    (path_graph(3), "clique", (0, 2), "the vertices are not pairwise adjacent"),
    (complete_graph(4), "clique", (0, 1, 2, 3), None),
])
def test_witness_violation_messages(g, kind, witness, message):
    assert witness_violation(g, PreconditionWitness(kind, witness, ())) == message


# K_{2,3} on centers 0, 1 and leaves 2, 3, 4, plus an isolated vertex 5.
STAR_PAIR = build_graph(6, [(c, v) for c in (0, 1) for v in (2, 3, 4)])


@pytest.mark.parametrize("centers, paths, s, message", [
    ((0,), ((2,),), 2, "needs exactly 2 centers"),
    ((0, 0), ((2,),), None, "centers repeat"),
    ((0, 1), ((2,), (1,)), None, "component 1 meets the centers"),
    ((0,), ((2,), (5,)), None, "center 0 has no neighbor in component 1"),
    ((0, 1), ((2,), (3,), (4,)), 2, None),
])
def test_constellation_witness_violation_messages(centers, paths, s, message):
    assert constellation_witness_violation(STAR_PAIR, ConstellationWitness(centers, paths), s) == message


THETA = theta_graph(2, 2, 3)
THETA_PATHS = ((0, 2, 1), (0, 3, 1), (0, 4, 5, 1))


@pytest.mark.parametrize("g, paths, message", [
    (THETA, THETA_PATHS[:2], "a theta needs exactly three paths"),
    # A path without interior is the pair (x, y), which the family check rejects.
    (THETA, THETA_PATHS[:2] + ((0, 1),), "path 2 is not an induced path from x to y"),
    (build_graph(6, THETA.edges() + [(2, 3)]), THETA_PATHS, "interiors of paths 0 and 1 see each other"),
    (THETA, THETA_PATHS, None),
])
def test_theta_witness_violation_messages(g, paths, message):
    assert theta_witness_violation(g, ThetaWitness(0, 1, paths)) == message


@pytest.mark.parametrize("tree, within, message", [
    ((0, 1, 2, 6), None, "vertex 6 is outside the graph"),
    ((-1, 0, 1), None, "vertex -1 is outside the graph"),
    ((0, 1, 2), 0b111110, "vertex 0 is outside the search area"),
    ((), None, "the vertices do not induce a tree"),
    ((0, 1, 1, 2), None, "the vertices do not induce a tree"),
    ((0, 2, 4), None, "the vertices do not induce a tree"),
    ((0, 1, 2, 3, 4), None, "the vertices do not induce a tree"),
    ((0, 1, 2, 3, 4, 5), None, "the vertices do not induce a tree"),
    ((1, 2, 3), None, "the tree holds fewer than three vertices of z"),
    ((0, 1, 2, 3), 0b001111, None),
    ((0, 1, 2, 3), None, None),
])
def test_induced_tree_violation_messages(tree, within, message):
    # z = (0, 2, 3) in the 5-cycle 0-1-2-3-4 plus the isolated vertex 5; the
    # whole graph has one edge fewer than vertices but is no tree.
    g = disjoint_union(cycle_graph(5), path_graph(1))
    assert induced_tree_violation(g, (0, 2, 3), tree, within) == message


@pytest.mark.parametrize("cert, message", [
    (ABTreeCert(0, 2, 1, (0, 1, 2), ((0, 1), (2, 1))), "tree parameters must be positive"),
    (ABTreeCert(2, 2, 0, (0, 0), ()), "repeated vertices"),
    (ABTreeCert(2, 1, 0, (0, 1), ()), "depth-1 tree must be the bare root"),
    (ABTreeCert(2, 2, 0, (0, 1, 2), ((1, 2), (2, 1))), "parent map does not lead to the root"),
    (ABTreeCert(2, 2, 1, (0, 1, 2), ((0, 1), (2, 1))), None),
])
def test_ab_tree_violation_messages(cert, message):
    assert ab_tree_violation(path_graph(3), cert) == message


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


def check_trees_are_paths(h, z):
    """three_in_a_tree on claw-free h: any tree it returns induces a path."""
    t = three_in_a_tree(h, z, cap=None)
    if t is not None:
        m = mask_of(t)
        assert oracles.induces_tree(h, m) and all((h.adj[v] & m).bit_count() <= 2 for v in t)
    return t


# Line graphs are claw-free, and a theta's branch vertices and a spider's hub
# are claw centres, so the pruned searches end with no theta and path trees.
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(6, 12), st.sampled_from((0.2, 0.35, 0.5)))
def test_line_graphs_hold_no_theta_and_only_path_trees(seed, n, p):
    h = line_graph(random_graph(n, p, seed=seed))
    assert find_theta(h, cap=None) is None
    z = random_stable(h, random.Random(seed), 5)
    if len(z) >= 3:
        check_trees_are_paths(h, z)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(6, 9), st.sampled_from((0.2, 0.3, 0.4)))
def test_line_graph_trees_match_oracle(seed, n, p):
    h = line_graph(random_graph(n, p, seed=seed))
    z = random_stable(h, random.Random(seed), 4)
    if h.n <= 9 and len(z) >= 3:
        assert (check_trees_are_paths(h, z) is not None) == oracles.has_tree_with_three(h, z)
