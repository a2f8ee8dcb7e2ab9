"""Seeded benchmark inputs, built without importing thetakit.

Every graph leaves this module as graph6 text, so the library meets its
inputs only through ``thetakit.graphio.parse_graph``.  Because nothing here
calls the library, a later change to ``thetakit.generators`` cannot change
the inputs; ``corpus_digest`` makes that visible on every run.

A corpus is a dict ``{"seed": s, "workloads": {name: {"graphs": [...],
"families": [...], "ops": [...]}}}``.  ``graphs`` holds graph6 strings and
``families`` x-y path families as vertex lists; each op is a dict whose
``fn`` names a public thetakit function and whose other keys are its inputs,
graphs and families referred to by index.  The layout of each workload and
the reason for it are in README.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

DEFAULT_SEED = 1
COMMITTED = Path(__file__).resolve().parent / "corpus" / f"seed-{DEFAULT_SEED}.json"
# Every workload draws its graphs once from this seed and lets the run seed
# relabel them.  Per-instance cost varies by orders of magnitude between
# G(n, p) samples but only mildly between labelings, so fresh samples per seed
# would make the run-to-run spread a property of the sample.  thetakit's
# searches visit vertices in label order, so each seed still takes its own
# search paths and returns its own certificates.
BASE_SEED = 20250605


# --------------------------------------------------------------------------
# graphs as (n, edge list)


def encode_graph6(n: int, edges) -> str:
    """graph6 text for a simple graph on 0..n-1 (n <= 258047)."""
    adj = set()
    for u, v in edges:
        adj.add((min(u, v), max(u, v)))
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    else:
        out += bytes((126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63))
    group, filled = 0, 0
    for v in range(1, n):
        for u in range(v):
            group = group << 1 | ((u, v) in adj)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group, filled = 0, 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return out.decode("ascii")


def gnp(rng: random.Random, n: int, p: float):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def wall(t: int):
    """The t by t wall of thetakit.generators.wall, built the same way."""
    if t == 1:
        return 6, [(i, (i + 1) % 6) for i in range(6)]
    cells = {(i, j) for i in range(t) for j in range(2 * t)}

    def cell_edges(live):
        out = []
        for i, j in sorted(live):
            if (i, j + 1) in live:
                out.append(((i, j), (i, j + 1)))
            if (i + j) % 2 == 0 and (i + 1, j) in live:
                out.append(((i, j), (i + 1, j)))
        return out

    while True:
        deg = dict.fromkeys(cells, 0)
        for a, b in cell_edges(cells):
            deg[a] += 1
            deg[b] += 1
        drop = {c for c, d in deg.items() if d <= 1}
        if not drop:
            break
        cells -= drop
    index = {c: k for k, c in enumerate(sorted(cells))}
    return len(cells), [(index[a], index[b]) for a, b in cell_edges(cells)]


def subdivide(graph, counts):
    """Each edge i gets counts[i] new vertices, appended in edge order."""
    n, edges = graph
    out, nxt = [], n
    for (u, v), c in zip(edges, counts):
        chain = [u, *range(nxt, nxt + c), v]
        nxt += c
        out += zip(chain, chain[1:])
    return nxt, out


def line_graph(graph):
    _, edges = graph
    es = sorted((min(u, v), max(u, v)) for u, v in edges)
    return len(es), [
        (i, j) for i, j in itertools.combinations(range(len(es)), 2) if set(es[i]) & set(es[j])
    ]


def spider_line_graph(rng: random.Random, legs: int, max_len: int):
    """L(spider) with the last edge of each leg: a stable set no induced tree holds three of.

    A spider's line graph is claw-free, so its induced trees are paths, and a
    path of the spider holds at most two leaf edges.  Every three-in-a-tree
    search on these sets must therefore end in an exhaustive miss.
    """
    edges, leaf_edges, nxt = [], [], 1
    for _ in range(legs):
        prev = 0
        for _ in range(rng.randint(2, max_len)):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        leaf_edges.append(edges[-1])
    es = sorted(edges)
    lg = line_graph((nxt, edges))
    return lg, sorted(es.index(e) for e in leaf_edges)


def path_family(rng: random.Random, paths: int, max_inner: int, cross: float):
    """A host plus an x-y family of induced paths, random edges between interiors.

    Vertex 0 is x and vertex 1 is y; every path has 1..max_inner interior
    vertices.  Edges run only between interiors of different paths, so each
    path stays induced and the family stays valid.
    """
    edges, fam, inner, nxt = [], [], [], 2
    for _ in range(paths):
        k = rng.randint(1, max_inner)
        seq = list(range(nxt, nxt + k))
        nxt += k
        full = [0, *seq, 1]
        edges += zip(full, full[1:])
        fam.append(full)
        inner.append(seq)
    for i, j in itertools.combinations(range(paths), 2):
        for u in inner[i]:
            for v in inner[j]:
                if rng.random() < cross:
                    edges.append((u, v))
    return (nxt, edges), fam


def anticomplete_paths(count: int, inner: int):
    """x, y and ``count`` x-y paths with ``inner`` interior vertices, pairwise anticomplete."""
    edges, fam, nxt = [], [], 2
    for _ in range(count):
        full = [0, *range(nxt, nxt + inner), 1]
        nxt += inner
        edges += zip(full, full[1:])
        fam.append(full)
    return (nxt, edges), fam


def deep_instance():
    """The hand-built host on which tree growth reaches depth four.

    Four designated fan-out paths and 84 pool paths run between x=0 and y;
    the zones of each pool path are laid out so that the pipeline's
    deterministic choices assemble a (4, 4) tree of 53 vertices.
    """
    pool, block = 84, 21

    def zones(j):
        b = 9 + 6 * j
        return b, b + 1, b + 2, b + 3, b + 4, b + 5

    x, y = 0, 9 + 6 * pool
    edges, paths = [], []
    for i in range(4):
        tip, mid = 1 + i, 5 + i
        edges += [(x, tip), (tip, mid), (mid, y)]
        paths.append([x, tip, mid, y])
    for j in range(pool):
        t, f, h, fp, hp, fpp = zones(j)
        edges += [(x, t), (t, f), (f, h), (h, fp), (fp, hp), (hp, fpp), (fpp, y)]
        paths.append([x, t, f, h, fp, hp, fpp, y])
        edges += [(f, 1 + i) for i in range(4)]
        edges.append((h, 1 + j // block))
    for b in range(4):
        local = [b * block + k for k in range(block)]
        for d in range(3):
            h_d = zones(local[d])[2]
            edges += [(h_d, zones(local[k])[3]) for k in range(3, block)]
            edges += [(h_d, zones(local[3 + 6 * d + w])[4]) for w in range(6)]
        for d in range(3):
            window = [local[3 + 6 * d + w] for w in range(6)]
            for w in range(3):
                edges += [(zones(window[w])[4], zones(window[m])[5]) for m in range(3, 6)]
    return (y + 1, edges), paths


def random_digraph(rng: random.Random, n: int, p: float):
    return n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]


# --------------------------------------------------------------------------
# workloads


class _Builder:
    """Collects a workload's graphs and the ops that refer to them by index.

    Every graph and digraph is stored under a relabeling drawn from the run
    seed; ``graph`` returns the relabeling so that vertex data in an op's
    arguments can follow it.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.graphs: list[str] = []
        self.families: list[list[list[int]]] = []
        self.ops: list[dict] = []

    def _perm(self, n: int) -> list[int]:
        perm = list(range(n))
        self.rng.shuffle(perm)
        return perm

    def graph(self, graph) -> tuple[int, list[int]]:
        n, edges = graph
        perm = self._perm(n)
        self.graphs.append(encode_graph6(n, [(perm[u], perm[v]) for u, v in edges]))
        return len(self.graphs) - 1, perm

    def family(self, graph, fam) -> tuple[int, int]:
        """Indices of the relabeled host and of its path family."""
        g, perm = self.graph(graph)
        self.families.append([[perm[v] for v in p] for p in fam])
        return g, len(self.families) - 1

    def interiors(self, fam: int) -> list[list[int]]:
        return [p[1:-1] for p in self.families[fam]]

    def digraph(self, digraph) -> list:
        n, arcs = digraph
        perm = self._perm(n)
        return [n, sorted([perm[u], perm[v]] for u, v in arcs)]

    def op(self, label: str, fn: str, **args):
        self.ops.append({"label": label, "fn": fn, **args})

    def done(self) -> dict:
        return {"graphs": self.graphs, "families": self.families, "ops": self.ops}


def _treewidth(base: random.Random, b: _Builder) -> None:
    # The n = 12 cell is there for the output check: treewidth_dp confirms
    # every width up to 16 vertices.
    cells = ((12, 0.3, 12), (18, 0.2, 160), (18, 0.3, 160), (20, 0.15, 160), (20, 0.2, 100), (22, 0.15, 100), (24, 0.15, 24), (20, 0.3, 8))
    for n, p, count in cells:
        for k in range(count):
            b.op(f"gnp-{n}-{p}-{k}", "treewidth_exact", g=b.graph(gnp(base, n, p))[0])
    fixed = {"wall3": wall(3), "wall4": wall(4), "L-wall3": line_graph(wall(3))}
    for k in range(3):
        sub = subdivide(wall(3), [base.randint(0, 1) for _ in wall(3)[1]])
        fixed[f"sub-wall3-{k}"] = sub
        fixed[f"L-sub-wall3-{k}"] = line_graph(sub)
    for name, graph in fixed.items():
        b.op(name, "treewidth_exact", g=b.graph(graph)[0])


def _induced_search(base: random.Random, b: _Builder) -> None:
    hosts = {"wall4": wall(4), "L-wall3": line_graph(wall(3))}
    for k in range(6):
        sub3 = subdivide(wall(3), [base.randint(0, 1) for _ in wall(3)[1]])
        hosts[f"sub-wall3-{k}"] = sub3
        if k < 4:
            hosts[f"sub-wall4-{k}"] = subdivide(wall(4), [base.randint(0, 1) for _ in wall(4)[1]])
            hosts[f"L-sub-wall3-{k}"] = line_graph(sub3)
    for k in range(12):
        n = 20 + k % 3 * 2
        hosts[f"gnp-{n}-{k}"] = gnp(base, n, 2.6 / n)
    spiders = [spider_line_graph(base, 4 + k % 2, 6) for k in range(8)]
    # Hosts appear under several labelings.  A search that hits early on one
    # labeling can hit late on another, and whether separability is exact is
    # close to a coin flip between labelings on most of these hosts, so the
    # two ops that can end undecided get four labelings and the rest two.
    for copy in range(4):
        for name, graph in hosts.items():
            n = graph[0]
            if copy >= 2 and n > 32:
                continue
            g, perm = b.graph(graph)
            name = f"{name}:{copy}"
            if n <= 32:
                b.op(f"separability:{name}", "separability", g=g)
                # L(subdivided wall(3)) hosts report partial at this budget: a
                # known limit of the scoped search, kept visible in undecided_share.
                b.op(f"excludes_wall_line_graphs:{name}", "excludes_wall_line_graphs",
                     g=g, r=3, pattern_budget=40)
            if copy >= 2:
                continue
            for fn in ("find_theta", "clique_number"):
                b.op(f"{fn}:{name}", fn, g=g)
            if not name.startswith("gnp") or int(name.split("-")[2].split(":")[0]) % 2 == 0:
                b.op(f"find_prism:{name}", "find_prism", g=g)
            for s in (2, 3):
                b.op(f"find_biclique:{name}:{s}", "find_biclique", g=g, s=s)
            for i in range(5):
                ends = [perm[v] for v in base.sample(range(n), 6)]
                b.op(f"max_path_fan:{name}:{i}", "max_path_fan", g=g, y=ends[0], z=sorted(ends[1:]))
            if n <= 20:
                b.op(f"find_constellation:{name}", "find_constellation", g=g, s=2, l=2)
        if copy < 2:
            for k, (lg, leaves) in enumerate(spiders):
                g, perm = b.graph(lg)
                b.op(f"three_in_a_tree:spider-{k}:{copy}", "three_in_a_tree", g=g,
                     z=sorted(perm[v] for v in leaves))


def _pipelines(base: random.Random, b: _Builder) -> None:
    zero = {"default": 0}
    tipped = {"default": 0, "tip_stable": 2, "fanout_high": 1}
    forests = [b.graph(f)[0] for f in ((3, [(0, 1)]), (3, [(0, 1), (1, 2)]), (4, [(0, 1), (2, 3)]))]
    # At most 10 paths of at most 3 interior vertices keep every region that
    # the low branch hands to three_in_a_tree within its cap of 32.  Larger
    # families hit the known CapExceeded defect at a rate that depends on the
    # labeling, which made failed_share swing between seeds; the defect is
    # kept below as named ops whose outcome does not depend on labels.
    for k in range(200):
        paths = base.randint(5, 10)
        g, fam = b.family(*path_family(base, paths, 3, 0.6 / paths))
        for a, depth in ((2, 2), (3, 2), (2, 3), (3, 3)):
            for name, policy in (("zero", zero), ("tipped", tipped)):
                b.op(f"grow_ab_tree:{k}:{a}x{depth}:{name}", "grow_ab_tree", g=g, fam=fam, a=a, b=depth,
                     thresholds=policy)
        for i, h in enumerate(forests):
            b.op(f"embed_forest:{k}:{i}", "embed_forest", g=g, fam=fam, h=h, thresholds=zero)
        b.op(f"anticomplete_family:{k}", "anticomplete_family", g=g,
             sets=b.interiors(fam), alpha=2 + k % 2, s=2, thresholds=zero)
    for k in range(400):
        g, _ = b.graph(gnp(base, base.randint(10, 20), base.choice((0.3, 0.5, 0.7))))
        b.op(f"eh_extract:{k}", "eh_extract", g=g, s=2, t=3, alpha=3)
        b.op(f"ramsey_extract:{k}", "ramsey_extract", g=g, t=3, alpha=3)
    for k in range(400):
        d = b.digraph(random_digraph(base, base.randint(6, 10), base.choice((0.15, 0.3))))
        b.op(f"digraph_stable:{k}", "digraph_stable", d=d, r=2, s=3)
        b.op(f"digraph_fanout:{k}", "digraph_fanout", d=d, q=1, r=2, s=2)
    g, fam = b.family(*deep_instance())
    b.op("grow_ab_tree:deep-4x4", "grow_ab_tree", g=g, fam=fam, a=4, b=4, thresholds=zero)
    # Known defects, kept as named ops so that their fixes show.
    b.op("digraph_stable:two-triangles", "digraph_stable",
         d=b.digraph((6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])), r=1, s=3)
    low_branch = {"default": 0, "fanout_high": 10 ** 6}
    g, fam = b.family(*anticomplete_paths(49, 2))
    b.op("grow_ab_tree:49-anticomplete", "grow_ab_tree", g=g, fam=fam, a=2, b=2, thresholds=low_branch)
    g, fam = b.family(*anticomplete_paths(11, 3))
    b.op("grow_ab_tree:11-anticomplete", "grow_ab_tree", g=g, fam=fam, a=2, b=2, thresholds=low_branch)


def _tower(rng: random.Random, depth: int):
    """A random exponent tower over small naturals, as a nested spec."""
    if depth == 0:
        return ["nat", rng.randint(2, 9)]
    op = rng.choice(("pow", "pow", "mul", "add"))
    return [op, _tower(rng, depth - 1), _tower(rng, rng.randint(0, depth - 1))]


def _towers(base: random.Random, b: _Builder) -> None:
    paper = {"paper": 3}
    forest = b.graph((2, [(0, 1)]))[0]
    for k in range(40):
        g, fam = b.family(*path_family(base, base.randint(5, 12), 3, 0.05))
        b.op(f"grow_ab_tree:{k}", "grow_ab_tree", g=g, fam=fam, a=2 + k % 3, b=2 + k % 4,
             thresholds=paper)
        b.op(f"embed_forest:{k}", "embed_forest", g=g, fam=fam, h=forest, thresholds=paper)
        b.op(f"anticomplete_family:{k}", "anticomplete_family", g=g,
             sets=b.interiors(fam), alpha=2 + k % 3, s=2, thresholds=paper)
    for a in range(1, 7):
        for n in range(1, 7):
            b.op(f"tree_constants:{a}:{n}", "tree_constants", a=a, n=n)
    # The grid holds the points where verify_sigma_inequalities raises; they
    # count as failed ops until the comparison ladder resolves them.
    for alpha, t, s, r_max in itertools.product(range(2, 8), range(1, 4), range(2, 8), range(2, 6)):
        b.op(f"verify_sigma_inequalities:{alpha}:{t}:{s}:{r_max}", "verify_sigma_inequalities",
             alpha=alpha, t=t, s=s, r_max=r_max)
    for k in range(200):
        b.op(f"tower_compare:{k}", "tower_compare", a=_tower(base, 3), b=_tower(base, 3))


WORKLOADS = {
    "treewidth": _treewidth,
    "induced-search": _induced_search,
    "pipelines": _pipelines,
    "towers": _towers,
}


def build_corpus(seed: int) -> dict:
    """Every workload's graphs drawn from BASE_SEED, relabeled by ``seed``."""
    workloads = {}
    for name, make in WORKLOADS.items():
        builder = _Builder(random.Random(f"{seed}:{name}"))
        make(random.Random(f"{BASE_SEED}:{name}"), builder)
        workloads[name] = builder.done()
    return {"seed": seed, "workloads": workloads}


def dumps(corpus: dict) -> bytes:
    return json.dumps(corpus, sort_keys=True, separators=(",", ":")).encode("ascii")


def load_corpus(seed: int) -> bytes:
    """The corpus bytes: the committed file for the default seed, else generated."""
    if seed == DEFAULT_SEED:
        return COMMITTED.read_bytes()
    return dumps(build_corpus(seed))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


if __name__ == "__main__":
    COMMITTED.parent.mkdir(exist_ok=True)
    COMMITTED.write_bytes(dumps(build_corpus(DEFAULT_SEED)))
    print(f"wrote {COMMITTED.name}")
