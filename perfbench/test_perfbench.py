"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q perfbench"""

import json

import pytest

import corpus
import run
import spans
from thetakit import graphio


def _small(workload: dict, ops: int) -> bytes:
    """The first ``ops`` ops of every function in a workload, for a quick pass."""
    kept, seen = [], {}
    for op in workload["ops"]:
        seen[op["fn"]] = seen.get(op["fn"], 0) + 1
        if seen[op["fn"]] <= ops:
            kept.append(op)
    return corpus.dumps({**workload, "ops": kept})


@pytest.fixture(scope="module")
def default_corpus():
    return json.loads(corpus.load_corpus(corpus.DEFAULT_SEED))


def test_committed_corpus_is_the_default_seed_corpus():
    assert corpus.COMMITTED.read_bytes() == corpus.dumps(corpus.build_corpus(corpus.DEFAULT_SEED))


def test_seed_changes_inputs_and_repeats_them():
    assert corpus.dumps(corpus.build_corpus(2)) == corpus.dumps(corpus.build_corpus(2))
    assert corpus.dumps(corpus.build_corpus(2)) != corpus.dumps(corpus.build_corpus(3))


def test_corpus_round_trips_through_graph6(default_corpus):
    for workload in default_corpus["workloads"].values():
        for text in workload["graphs"]:
            data = text.encode("ascii")
            assert graphio.emit_graph(graphio.parse_graph(data, "graph6")) == data


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_two_passes_agree_on_answers_and_calls(default_corpus, name):
    payload = _small(default_corpus["workloads"][name], 3)
    first, second = run.run_pass(payload, "traced"), run.run_pass(payload, "traced")
    assert first["answers_digest"] == second["answers_digest"]
    assert first["span_counts"] == second["span_counts"]
    assert run.run_pass(payload, "plain")["answers_digest"] == first["answers_digest"]


def _span(name, start, end, parent=None, note=None):
    return spans.Span(name, start, end, parent, 0, note)


def test_self_time_subtracts_the_time_children_cover():
    tree = [
        _span("extraction.grow_ab_tree", 0.0, 10.0),
        _span("detectors.clique_number", 1.0, 4.0, 0),
        _span("detectors.find_biclique", 5.0, 9.0, 0),
        _span("graphs.build_graph", 6.0, 7.0, 2),
        _span("graphs.build_graph", 7.5, 8.0, 2),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("bigconst.tower_compare", 0.0, 10.0),
        _span("bigconst.tower_compare", 2.0, 6.0, 0),
        _span("bigconst.tower_compare", 4.0, 12.0, 0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_layer_self_times_add_up_to_the_root_span():
    tree = [
        _span("extraction.grow_ab_tree", 0.0, 10.0, note=("success", 4)),
        _span("detectors.clique_number", 1.0, 4.0, 0),
        _span("graphs.build_graph", 2.0, 3.0, 1),
    ]
    m = spans.layer_metrics(tree)
    total = m["extraction.self_s"][0] + m["detectors.self_s"][0] + m["graphs.build_graph_s"][0]
    assert total == pytest.approx(10.0)
