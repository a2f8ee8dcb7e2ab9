"""Spans at thetakit's layer boundaries, recorded from outside the library.

``Tracer.install`` replaces public functions, as module attributes, with
wrappers that record a span per call: its name, start, end, the span that
caused it and the op it belongs to.  A boundary is the attribute through
which a caller reaches the callee, so ``extraction.three_in_a_tree`` is
wrapped as well as ``detectors.three_in_a_tree``.  The span is named after
the module that defines the function.  Spans stay in memory until the pass
ends; ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time
from typing import NamedTuple

from thetakit import bigconst, detectors, extraction, generators, graphio, treewidth

# The package exports the function ``separability`` under its module's name.
separability = importlib.import_module("thetakit.separability")

PIPELINES = (
    "grow_ab_tree", "embed_forest", "anticomplete_family", "eh_extract",
    "ramsey_extract", "digraph_stable", "digraph_fanout",
)
SEARCHES = (
    "find_theta", "find_prism", "three_in_a_tree", "find_biclique", "clique_number",
    "find_constellation", "excludes_wall_line_graphs", "max_path_fan", "find_induced",
)
HIT_OR_MISS = tuple(fn for fn in SEARCHES if fn not in ("clique_number", "max_path_fan"))
PATTERNS = ("prism_graph", "line_graph", "subdivide", "cycle_graph")
OUTCOMES = {"Success": "success", "PreconditionWitness": "precondition", "ThresholdUnmet": "unmet"}

# (module whose attribute is replaced, attribute names)
BOUNDARIES = (
    (graphio, ("parse_graph",)),
    (treewidth, ("treewidth_exact", "build_graph")),
    (detectors, SEARCHES + PATTERNS),
    (separability, ("separability",)),
    (generators, ("build_graph",)),
    (bigconst, ("tree_constants", "verify_sigma_inequalities", "tower_compare")),
    (extraction, PIPELINES + (
        "clique_number", "find_biclique", "find_induced", "three_in_a_tree",
        "tower_compare", "tree_constants", "sigma", "normalize", "evaluate",
        "build_graph", "build_digraph", "induced_subgraph", "relabel",
    )),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    note: object


def _note(name: str, out):
    """What a span keeps of its result: hit or miss, outcome kind, effort."""
    fn = name.split(".", 1)[1]
    if fn in PIPELINES:
        return OUTCOMES[type(out).__name__], len(out.trace)
    if fn == "excludes_wall_line_graphs":
        return not out.excluded, out.patterns_tried, out.partial
    if fn == "separability":
        return out.exact
    if fn in HIT_OR_MISS:
        return out is not None
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                spans[index] = Span(name, start, clock(), parent, self.op, ("raised", type(e).__name__))
                raise
            finally:
                stack.pop()
            end = clock()
            spans[index] = Span(name, start, end, parent, self.op, _note(name, out))
            return out

        return traced

    def install(self) -> None:
        for module, names in BOUNDARIES:
            for attr in names:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for c in sorted(kids, key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _raised(s: Span) -> bool:
    return isinstance(s.note, tuple) and s.note[0] == "raised"


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    own = self_times(spans)
    layer_self: dict[str, float] = collections.defaultdict(float)
    by_name: dict[str, list[Span]] = collections.defaultdict(list)
    for s, t in zip(spans, own):
        layer_self[s.name.split(".", 1)[0]] += t
        by_name[s.name].append(s)

    def calls(name: str) -> int:
        return len(by_name[name])

    def spent(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    def finished(names) -> list[Span]:
        return [s for name in names for s in by_name[name] if not _raised(s)]

    m: dict[str, tuple[float, str]] = {}
    m["graphs.build_graph.calls"] = (calls("graphs.build_graph"), "count")
    m["graphs.build_graph_s"] = (spent("graphs.build_graph"), "s")
    m["generators.pattern_builds"] = (sum(calls(f"generators.{p}") for p in PATTERNS), "count")
    m["generators.pattern_build_s"] = (sum(spent(f"generators.{p}") for p in PATTERNS), "s")
    m["graphio.parse_s"] = (spent("graphio.parse_graph"), "s")

    for fn in SEARCHES:
        m[f"detectors.{fn}.calls"] = (calls(f"detectors.{fn}"), "count")
    m["detectors.self_s"] = (layer_self["detectors"], "s")
    m["detectors.find_induced.self_s"] = (
        sum(t for s, t in zip(spans, own) if s.name == "detectors.find_induced"), "s")
    searched = finished(f"detectors.{fn}" for fn in HIT_OR_MISS)
    hits = sum(1 for s in searched if (s.note[0] if isinstance(s.note, tuple) else s.note))
    m["detectors.hit_share"] = (_share(hits, len(searched)), "ratio")
    walls = finished(["detectors.excludes_wall_line_graphs"])
    m["detectors.wall_patterns_tried"] = (sum(s.note[1] for s in walls), "count")

    seps = finished(["separability.separability"])
    m["separability.calls"] = (calls("separability.separability"), "count")
    m["separability.self_s"] = (layer_self["separability"], "s")
    m["separability.inexact_share"] = (_share(sum(1 for s in seps if not s.note), len(seps)), "ratio")

    widths = sorted((s.end - s.start for s in by_name["treewidth.treewidth_exact"]), reverse=True)
    m["treewidth.calls"] = (len(widths), "count")
    m["treewidth.self_s"] = (layer_self["treewidth"], "s")
    m["treewidth.max_op_s"] = (widths[0] if widths else 0.0, "s")
    tail = widths[: (len(widths) + 9) // 10]
    m["treewidth.tail_share"] = (sum(tail) / sum(widths) if widths else 0.0, "ratio")

    m["bigconst.tower_compare.calls"] = (calls("bigconst.tower_compare"), "count")
    m["bigconst.self_s"] = (layer_self["bigconst"], "s")
    m["bigconst.failed"] = (sum(
        1 for s in spans
        if s.name.startswith("bigconst.") and _raised(s)
        and (s.parent is None or not spans[s.parent].name.startswith("bigconst."))
    ), "count")
    info = bigconst.normalize.cache_info()
    m["bigconst.normalize_cache_size"] = (info.currsize, "count")
    m["bigconst.normalize_hit_ratio"] = (_share(info.hits, info.hits + info.misses), "ratio")

    runs = [s for fn in PIPELINES for s in by_name[f"extraction.{fn}"]]
    for fn in PIPELINES:
        m[f"extraction.{fn}.calls"] = (calls(f"extraction.{fn}"), "count")
    m["extraction.self_s"] = (layer_self["extraction"], "s")
    m["extraction.trace_steps"] = (sum(s.note[1] for s in runs if not _raised(s)), "count")
    for kind in ("success", "precondition", "unmet", "raised"):
        m[f"extraction.outcome_{kind}_share"] = (
            _share(sum(1 for s in runs if s.note[0] == kind), len(runs)), "ratio")
    return m
