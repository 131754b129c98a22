import numpy as np

from zerocontrol import dotexport, graph as graph_module
from zerocontrol import (
    PatternMatrix,
    build_graph,
    export_dot,
    is_generically_zero_controllable,
    scc_decompose,
    validate_driver_set,
)
from conftest import sparse_pattern


def test_dot_example1_marks_unreachable_state(example1_a, example1_b):
    graph = build_graph(example1_a, example1_b)
    scc = scc_decompose(graph)
    report = is_generically_zero_controllable(example1_a, example1_b)
    dot = export_dot(graph, scc, report)
    assert dot.startswith("digraph system {")
    assert "x5 [style=filled, fillcolor=lightpink];" in dot
    assert "x1 [style=filled, fillcolor=palegreen];" in dot
    assert "x5 -> x5;" in dot
    assert "u1 -> x4;" in dot
    assert "u1 [shape=box];" in dot


def test_dot_clusters_and_peripheries(example1_a, example1_b):
    graph = build_graph(example1_a, example1_b)
    scc = scc_decompose(graph)
    dot = export_dot(graph, scc)
    for k in range(1, 5):
        assert f"subgraph cluster_{k} {{" in dot
    # nontrivial clusters C1 and C4 get double borders, trivial ones do not
    assert dot.count("peripheries=2;") == 2
    assert 'label="C1 (nontrivial)";' in dot
    assert 'label="C2 (trivial)";' in dot


def test_dot_empty_graph_is_valid():
    graph = build_graph(PatternMatrix.zeros(0, 0))
    dot = export_dot(graph, scc_decompose(graph))
    assert dot == "digraph system {\n  rankdir=LR;\n  node [shape=circle];\n}\n"


def test_dot_marks_drivers(example2_a):
    graph = build_graph(example2_a)
    scc = scc_decompose(graph)
    ds = validate_driver_set(example2_a, {"x4", "x8"})
    dot = export_dot(graph, scc, ds)
    assert "x4 [shape=doublecircle, style=filled, fillcolor=palegreen];" in dot
    assert "x8 [shape=doublecircle, style=filled, fillcolor=palegreen];" in dot
    # every cycle-bearing state is reached; the pure feeders x9..x11 are not
    for reached in ("x1", "x2", "x3", "x5", "x6", "x7"):
        assert f"{reached} [style=filled, fillcolor=palegreen];" in dot
    for feeder in ("x9", "x10", "x11"):
        assert f"{feeder} [style=filled, fillcolor=lightpink];" in dot


def test_dot_is_deterministic(example2_a):
    graph = build_graph(example2_a)
    scc = scc_decompose(graph)
    ds = validate_driver_set(example2_a, {"x4", "x8"})
    assert export_dot(graph, scc, ds) == export_dot(graph, scc, ds)


def test_dot_names_each_state_once_and_reads_ids(monkeypatch):
    pattern = sparse_pattern(np.random.default_rng(3), 60, 60, 90)
    inputs = PatternMatrix(60, 2, frozenset({(4, 1), (31, 2)}))
    graph = build_graph(pattern, inputs)
    reports = [is_generically_zero_controllable(pattern, inputs), validate_driver_set(pattern, {"x2", "x17"})]
    expected = [export_dot(graph, graph.condensation, report) for report in reports]

    def forbidden(*args):
        raise AssertionError("export_dot went back to names")

    calls = []
    counted = graph_module.state_name
    monkeypatch.setattr(dotexport, "state_name", lambda i: calls.append(i) or counted(i))
    for module in (dotexport, graph_module):
        monkeypatch.setattr(module, "sort_vertices", forbidden, raising=False)
        monkeypatch.setattr(module, "reachable_from", forbidden, raising=False)
    for report, dot in zip(reports, expected):
        calls.clear()
        assert export_dot(graph, graph.condensation, report) == dot
        assert len(calls) <= graph.n_states
