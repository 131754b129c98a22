"""Cross-checks against networkx, a second oracle independent of the package
that reaches sizes the brute-force oracles cannot."""

import json

import numpy as np
import pytest

nx = pytest.importorskip("networkx")

from zerocontrol import (
    PatternMatrix,
    build_graph,
    is_generically_zero_controllable,
    scc_decompose,
    validate_driver_set,
)
from zerocontrol.cli import run_cli
from zerocontrol.fileio import serialize_pattern_file


def sparse_pattern(rng, n_rows, n_cols, nnz):
    """About ``nnz`` uniformly drawn entries (duplicates collapse)."""
    if not n_rows or not n_cols:
        return PatternMatrix(n_rows, n_cols)
    rows = rng.integers(1, n_rows + 1, size=nnz)
    cols = rng.integers(1, n_cols + 1, size=nnz)
    return PatternMatrix(n_rows, n_cols, frozenset(zip(rows.tolist(), cols.tolist())))


def to_networkx(pattern_a, pattern_b=None):
    g = nx.DiGraph()
    g.add_nodes_from(f"x{i}" for i in range(1, pattern_a.n_rows + 1))
    g.add_edges_from((f"x{j}", f"x{i}") for i, j in pattern_a.nonzeros)
    if pattern_b is not None:
        g.add_nodes_from(f"u{j}" for j in range(1, pattern_b.n_cols + 1))
        g.add_edges_from((f"u{j}", f"x{i}") for i, j in pattern_b.nonzeros)
    return g


def unreached_by(g, sources):
    """States that no walk from the sources reaches (a state source reaches itself)."""
    reached = set(sources)
    for s in sources:
        reached |= nx.descendants(g, s)
    return {v for v in g if v.startswith("x") and v not in reached}


def cyclic_components(g):
    return {
        frozenset(c)
        for c in nx.strongly_connected_components(g)
        if len(c) > 1 or any(g.has_edge(v, v) for v in c)
    }


def random_instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 301))
        a = sparse_pattern(rng, n, n, int(rng.uniform(0.5, 2.0) * n))
        m = int(rng.integers(0, 3))
        b = sparse_pattern(rng, n, m, int(rng.integers(1, 4))) if m else None
        yield rng, a, b


def test_components_and_order_match_networkx():
    for _, a, b in random_instances(301, 40):
        g = to_networkx(a)
        scc = scc_decompose(build_graph(a, b))
        assert set(scc.components) == {frozenset(c) for c in nx.strongly_connected_components(g)}
        mins = [min(int(v[1:]) for v in c) for c in scc.components]
        assert mins == sorted(mins)
        assert {c for c, nt in zip(scc.components, scc.nontrivial) if nt} == cyclic_components(g)

        cond = nx.condensation(g, scc=[set(c) for c in scc.components])
        assert scc.order == frozenset(
            (k, d) for k in cond for d in nx.descendants(cond, k)
        )
        assert scc.covering_order == frozenset(nx.transitive_reduction(cond).edges)


def test_zero_controllability_matches_networkx():
    for rng, a, b in random_instances(302, 60):
        g = to_networkx(a, b)
        inputs = [v for v in g if v.startswith("u")]
        unreached = unreached_by(g, inputs)
        report = is_generically_zero_controllable(a, b)
        assert report.unreachable_states == unreached
        assert report.verdict == nx.is_directed_acyclic_graph(g.subgraph(unreached))
        assert set(report.nontrivial_unreachable_components) == cyclic_components(
            g.subgraph(unreached)
        )
        if not report.verdict:
            walk = report.cycle_witness
            assert walk[0][0] == walk[-1][1]
            assert all(g.has_edge(s, d) and d in unreached for s, d in walk)

        drivers = {f"x{int(i)}" for i in rng.integers(1, a.n_rows + 1, size=2)}
        ds = validate_driver_set(a, drivers)
        assert ds.valid == nx.is_directed_acyclic_graph(
            g.subgraph(unreached_by(g, drivers))
        )


def _write(tmp_path, name, a, b=None):
    path = tmp_path / name
    path.write_text(serialize_pattern_file(a, b), encoding="utf-8")
    return str(path)


def _run_json(capsys, argv):
    code = run_cli(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def _chain_with_end_cycle(n):
    # x1 -> x2 -> ... -> x(n-1) <-> xn, no inputs
    entries = {(i + 1, i) for i in range(1, n)} | {(n - 1, n)}
    return PatternMatrix(n, n, frozenset(entries)), None


def _random_with_input(n):
    rng = np.random.default_rng(20_000)
    return sparse_pattern(rng, n, n, 3 * n // 2), sparse_pattern(rng, n, 1, 3)


@pytest.mark.filterwarnings("ignore::zerocontrol.drivers.ExactSearchSkipped")
@pytest.mark.parametrize("make", [_chain_with_end_cycle, _random_with_input])
def test_analyze_and_select_at_20000_states(make, tmp_path, capsys):
    a, b = make(20_000)
    g = to_networkx(a, b)
    path = _write(tmp_path, "big.pat", a, b)

    code, doc = _run_json(capsys, ["analyze", path])
    report = doc["report"]
    unreached = unreached_by(g, [v for v in g if v.startswith("u")])
    zc = nx.is_directed_acyclic_graph(g.subgraph(unreached))
    assert code == (0 if zc else 1)
    assert report["verdict"] == zc
    assert set(report["unreachable_states"]) == unreached

    code, doc = _run_json(capsys, ["select", path])
    chosen = doc["driver_set"]
    assert code == 0 and chosen["valid"]
    assert nx.is_directed_acyclic_graph(g.subgraph(unreached_by(g, chosen["drivers"])))
