"""Answers that do not depend on vertex labels, checked across relabellings."""

import random

import pytest

from thetakit.detectors import (
    clique_number,
    excludes_wall_line_graphs,
    find_biclique,
    find_prism,
    find_theta,
    three_in_a_tree,
)
from thetakit.generators import line_graph, random_graph, random_subdivision, wall
from thetakit.graphs import build_graph, relabel
from thetakit.separability import separability
from thetakit.treewidth import treewidth_exact


def relabellings(g, seed, count=5):
    """count seeded (perm, relabelled graph) pairs, perm[old] = new."""
    rng = random.Random(seed)
    for _ in range(count):
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield perm, relabel(g, perm)


@pytest.mark.parametrize(
    "host, lam",
    [(random_graph(32, 0.1, 2), 5), (random_graph(32, 0.2, 2), 9), (line_graph(wall(4)), 4)],
    ids=["gnp-32-0.1", "gnp-32-0.2", "L-wall4"],
)
def test_separability(host, lam):
    for _, h in relabellings(host, host.n):
        rep = separability(h)
        assert (rep.lambda_star, rep.exact) == (lam, True)


def answers(g, z):
    return (
        clique_number(g)[0],
        treewidth_exact(g)[0],
        find_theta(g) is None,
        find_prism(g) is None,
        find_biclique(g, 2) is None,
        three_in_a_tree(g, z) is None,
        excludes_wall_line_graphs(g, 3).excluded,
    )


def test_small_hosts():
    hits = [0] * 4
    for seed in range(40):
        g = random_graph(6 + seed % 11, (0.15, 0.25, 0.4, 0.6)[seed % 4], seed)
        z = []
        for v in range(g.n):
            if not any(g.has_edge(v, u) for u in z):
                z.append(v)
        if len(z) < 3:
            continue
        want = answers(g, z)
        hits = [h + (not miss) for h, miss in zip(hits, want[2:6])]
        for perm, h in relabellings(g, seed):
            assert answers(h, [perm[v] for v in z]) == want, seed
    assert all(hits), hits


def least_patterns(g):
    """The edges of the least wall(3) line graph and the least prism found in g."""
    found = excludes_wall_line_graphs(g, 3).embedding, find_prism(g)
    return tuple(None if emb is None else emb.pattern.edges() for emb in found)


def test_least_keys():
    # The least key is a minimum over every embedding, so the pattern built
    # from it cannot depend on the labels, though triangles, corners and
    # paths are tried in label order.
    found = 0
    for seed in range(4):
        g = line_graph(random_subdivision(wall(3), 1, seed))
        rng = random.Random(seed)
        a, b = rng.sample(range(g.n), 2)
        for h in (g, build_graph(g.n, set(g.edges()) ^ {(min(a, b), max(a, b))})):
            want = least_patterns(h)
            found += want != (None, None)
            for _, k in relabellings(h, seed):
                assert least_patterns(k) == want, seed
    assert found == 8
