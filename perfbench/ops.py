"""Benchmark ops on thetakit's public API: setup, calls, output checks.

An op is one public call.  ``setup`` turns a workload's corpus into ops,
parsing every graph with ``graphio.parse_graph``.  ``call`` looks the
function up on its module at call time, so that the traced run's wrappers on
module attributes see every call.  ``classify`` runs the independent
validators on an op's outcome; it is only ever called outside the timed
region.
"""

from __future__ import annotations

import dataclasses
import importlib
import operator
from typing import NamedTuple

from thetakit import bigconst, detectors, extraction, graphio, graphs, treewidth

# The package exports the function ``separability`` under its module's name.
separability = importlib.import_module("thetakit.separability")

MODULES = {
    "treewidth_exact": treewidth,
    "find_theta": detectors,
    "find_prism": detectors,
    "three_in_a_tree": detectors,
    "find_biclique": detectors,
    "clique_number": detectors,
    "find_constellation": detectors,
    "excludes_wall_line_graphs": detectors,
    "max_path_fan": detectors,
    "separability": separability,
    "grow_ab_tree": extraction,
    "embed_forest": extraction,
    "anticomplete_family": extraction,
    "eh_extract": extraction,
    "ramsey_extract": extraction,
    "digraph_stable": extraction,
    "digraph_fanout": extraction,
    "tree_constants": bigconst,
    "verify_sigma_inequalities": bigconst,
    "tower_compare": bigconst,
}

# Defects the library has today, as (function, failure kind).  An op failing
# this way counts in failed_share but leaves the run correct; any other
# failure makes the run incorrect.  README.md lists the ops that show them.
KNOWN_DEFECTS = frozenset({
    # ThresholdUnmet("digraph_low") with available >= required.
    ("digraph_stable", "contradiction"),
    # The low branch leaks CapExceeded from digraph_stable (more than 48
    # paths) or from three_in_a_tree (a region above 32 vertices).
    ("grow_ab_tree", "CapExceeded"),
    # The comparison ladder gives up on some grid points.
    ("verify_sigma_inequalities", "RuntimeError"),
})


class Op(NamedTuple):
    label: str
    fn: str
    args: dict


def _tower(spec) -> bigconst.TowerInt:
    if spec[0] == "nat":
        return bigconst.nat(spec[1])
    combine = {"pow": operator.pow, "mul": operator.mul, "add": operator.add}[spec[0]]
    return combine(_tower(spec[1]), _tower(spec[2]))


def _thresholds(spec: dict):
    if "paper" in spec:
        return extraction.PaperThresholds(spec["paper"])
    named = {k: v for k, v in spec.items() if k != "default"}
    return extraction.FixedThresholds(spec["default"], **named)


def setup(workload: dict) -> list[Op]:
    """Parse the workload's graphs and build every op's arguments."""
    parsed = [graphio.parse_graph(text.encode("ascii"), "graph6") for text in workload["graphs"]]
    families = [
        graphs.PathFamily(paths[0][0], paths[0][-1], tuple(map(tuple, paths)))
        for paths in workload["families"]
    ]
    ops = []
    for raw in workload["ops"]:
        args = {}
        for key, value in raw.items():
            if key in ("label", "fn"):
                continue
            if key in ("g", "h"):
                value = parsed[value]
            elif key == "fam":
                value = families[value]
                args["x"], args["y"] = value.x, value.y
            elif key == "d":
                value = graphs.build_digraph(value[0], map(tuple, value[1]))
            elif key == "thresholds":
                value = _thresholds(value)
            elif raw["fn"] == "tower_compare":
                value = _tower(value)
            args[key] = value
        ops.append(Op(raw["label"], raw["fn"], args))
    return ops


def call(op: Op):
    return getattr(MODULES[op.fn], op.fn)(**op.args)


# --------------------------------------------------------------------------
# checks


def _unmet_violation(out) -> str | None:
    if isinstance(out.required, int) and out.available >= out.required:
        return "contradiction"
    return None


def _induced_tree_violation(g, vertices, z) -> str | None:
    mask = graphs.mask_of(vertices)
    sub, _ = graphs.induced_subgraph(g, mask)
    if len(graphs.connected_components(sub)) != 1 or sub.m != sub.n - 1:
        return "invalid: not an induced tree"
    if (mask & graphs.mask_of(z)).bit_count() < 3:
        return "invalid: holds fewer than three vertices of z"
    return None


def _extraction_violation(op: Op, out) -> str | None:
    g = op.args.get("g")
    if isinstance(out, extraction.ThresholdUnmet):
        return _unmet_violation(out)
    if isinstance(out, extraction.PreconditionWitness):
        bad = extraction.witness_violation(g, out)
        return bad and f"invalid: {bad}"
    value = out.value
    bad = None
    if op.fn == "grow_ab_tree":
        bad = graphs.ab_tree_violation(g, value)
        if bad is None and (value.a, value.b) != (op.args["a"], op.args["b"]):
            bad = "tree shape differs from the request"
    elif op.fn == "embed_forest":
        bad = detectors.embedding_violation(g, value)
        if bad is None and value.pattern != op.args["h"]:
            bad = "embedded pattern differs from the forest"
    elif op.fn == "anticomplete_family":
        masks = [graphs.mask_of(s) for s in value]
        family = {frozenset(s) for s in op.args["sets"]}
        if any(frozenset(s) not in family for s in value):
            bad = "a chosen set is not in the family"
        elif any(not graphs.are_anticomplete(g, a, b) for i, a in enumerate(masks) for b in masks[i + 1:]):
            bad = "chosen sets are not pairwise anticomplete"
    elif op.fn in ("eh_extract", "ramsey_extract"):
        kind, payload = value
        if kind == "biclique":
            bad = extraction.biclique_violation(g, payload)
        elif kind == "stable" and not graphs.is_stable_set(g, payload):
            bad = "stable set has an edge"
        elif kind == "clique" and not graphs.is_clique(g, payload):
            bad = "clique misses an edge"
    elif op.fn == "digraph_stable":
        d = op.args["d"]
        if any(d.out_degree(v) > op.args["r"] for v in value):
            bad = "a chosen vertex has out-degree above r"
        elif any(d.has_arc(u, v) for u in value for v in value if u != v):
            bad = "chosen vertices are joined by an arc"
        elif len(value) < op.args["s"]:
            bad = "fewer than s vertices"
    elif op.fn == "digraph_fanout":
        d, q, r = op.args["d"], op.args["q"], op.args["r"]
        if len(value) != op.args["s"] or any(d.out_degree(v) < q * r for v in value):
            bad = "chosen set has the wrong size or a low out-degree"
    return bad and f"invalid: {bad}"


def _violation(op: Op, out) -> str | None:
    """None when the outcome checks out, else why it does not."""
    g = op.args.get("g")
    fn = op.fn
    if fn == "treewidth_exact":
        width, dec = out
        if not treewidth.validate_decomposition(g, dec) or dec.width() != width:
            return "invalid: decomposition"
        if g.n <= treewidth.DP_CAP and treewidth.treewidth_dp(g) != width:
            return "invalid: width differs from treewidth_dp"
        return None
    if out is None:
        return None
    if fn == "find_theta":
        bad = detectors.theta_witness_violation(g, out)
    elif fn in ("find_prism", "find_biclique"):
        bad = detectors.embedding_violation(g, out)
    elif fn == "clique_number":
        bad = None if len(out[1]) == out[0] and graphs.is_clique(g, out[1]) else "not a clique of that size"
    elif fn == "find_constellation":
        bad = detectors.constellation_witness_violation(g, out, op.args["s"], op.args["l"])
    elif fn == "three_in_a_tree":
        return _induced_tree_violation(g, out, op.args["z"])
    elif fn == "excludes_wall_line_graphs":
        if out.excluded != (out.embedding is None):
            return "contradiction"
        bad = out.embedding and detectors.embedding_violation(g, out.embedding)
    elif fn == "max_path_fan":
        bad = None if 0 <= out <= min(len(op.args["z"]), g.degree(op.args["y"])) else "fan out of range"
    elif fn == "separability":
        if out.vacuous:
            return None
        bad = graphs.path_family_violation(g, out.witness)
        if bad is None and len(out.witness.paths) != out.lambda_star:
            bad = "witness size differs from lambda_star"
    elif fn in ("tree_constants", "verify_sigma_inequalities"):
        bad = None
    elif fn == "tower_compare":
        if out not in (-1, 0, 1):
            return "invalid: not a sign"
        return None if bigconst.tower_compare(op.args["b"], op.args["a"]) == -out else "contradiction"
    else:
        return _extraction_violation(op, out)
    return bad and f"invalid: {bad}"


def classify(op: Op, out, error: BaseException | None) -> tuple[str, str | None]:
    """(status, failure kind): status is ok, undecided or failed."""
    if error is not None:
        return "failed", type(error).__name__
    bad = _violation(op, out)
    if bad is not None:
        return "failed", bad
    if op.fn == "excludes_wall_line_graphs" and out.partial:
        return "undecided", None
    if op.fn == "separability" and not out.exact:
        return "undecided", None
    return "ok", None


def is_known(op: Op, kind: str | None) -> bool:
    return (op.fn, kind) in KNOWN_DEFECTS


# --------------------------------------------------------------------------
# answers


def canonical(value):
    """A plain, hashable rendering of an outcome; big integers go to hex."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value if -(1 << 60) < value < 1 << 60 else f"0x{value:x}"
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, graphs.Graph):
        return ("Graph", value.n, canonical(value.adj))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, BaseException):
        return (type(value).__name__, str(value))
    raise TypeError(f"no canonical form for {type(value).__name__}")
