"""Cross-checks against networkx, a second oracle independent of the package
that reaches sizes the brute-force oracles cannot."""

import json

import numpy as np
import pytest

nx = pytest.importorskip("networkx")

from zerocontrol import (
    PatternMatrix,
    build_graph,
    find_cycle,
    has_cycle,
    is_generically_zero_controllable,
    minimal_driver_set,
    scc_decompose,
    validate_driver_set,
)
from zerocontrol.cli import run_cli
from zerocontrol.fileio import serialize_pattern_file
from zerocontrol.graph import _peel, _reachable_split
from conftest import cover_instance, sparse_pattern


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


def _relabelled(n, edges, inputs, seed):
    """The pattern pair of state edges (src, dst) and input heads, states shuffled."""
    perm = np.random.default_rng(seed).permutation(n) + 1
    a = PatternMatrix(n, n, frozenset((int(perm[d - 1]), int(perm[s - 1])) for s, d in edges))
    return a, PatternMatrix(n, 1, frozenset((int(perm[d - 1]), 1) for d in inputs))


def _acyclic_unreached_part(n):
    # the input feeds a chain through the first half, whose random back edges
    # close cycles; the second half only feeds forward, into itself and into
    # the first half, so it is unreached and acyclic: the peel clears it
    rng = np.random.default_rng(20_001)
    half = n // 2
    edges = {(i, i + 1) for i in range(1, half)}
    edges |= set(zip(rng.integers(1, half + 1, size=half).tolist(), rng.integers(1, half + 1, size=half).tolist()))
    s, d = rng.integers(half + 1, n + 1, size=(2, n))
    edges |= {(int(u), int(v)) for u, v in zip(np.minimum(s, d), np.maximum(s, d)) if u != v}
    edges |= set(zip(rng.integers(half + 1, n + 1, size=half).tolist(), rng.integers(1, half + 1, size=half).tolist()))
    return _relabelled(n, edges, [1], 20_001)


def _giant_unreached_scc(n):
    # a Hamiltonian cycle with chords over 60% of the states, fed by an
    # unreached chain; the input feeds a chain of its own, which the cycle
    # also feeds
    rng = np.random.default_rng(20_002)
    k, chain = 3 * n // 5, n // 5
    edges = {(i, i % k + 1) for i in range(1, k + 1)}
    edges |= set(zip(rng.integers(1, k + 1, size=k // 2).tolist(), rng.integers(1, k + 1, size=k // 2).tolist()))
    edges |= {(i, i + 1) for i in range(k + 1, k + chain)} | {(k + chain, 1)}
    edges |= {(i, i + 1) for i in range(k + chain + 1, n)}
    edges |= set(zip(rng.integers(1, k + 1, size=10).tolist(), rng.integers(k + chain + 1, n + 1, size=10).tolist()))
    return _relabelled(n, edges, [k + chain + 1], 20_002)


def _assert_cycle_within(witness, g, states):
    """``witness`` is a list of edges of g that closes a cycle on the given states."""
    assert witness and all(g.has_edge(u, v) for u, v in witness)
    assert [v for _, v in witness] == [u for u, _ in witness[1:]] + [witness[0][0]]
    assert {u for u, _ in witness} <= states


@pytest.mark.filterwarnings("ignore::zerocontrol.drivers.ExactSearchSkipped")
@pytest.mark.parametrize(
    "make", [_chain_with_end_cycle, _random_with_input, _acyclic_unreached_part, _giant_unreached_scc]
)
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
    # every blocking component, as networkx finds it in the unreached
    # subgraph, in the order of their smallest states
    theirs = sorted(cyclic_components(g.subgraph(unreached)), key=lambda c: min(int(v[1:]) for v in c))
    assert list(map(frozenset, report["nontrivial_unreachable_components"])) == theirs
    if zc:
        assert report["cycle_witness"] is None
    else:
        _assert_cycle_within(report["cycle_witness"], g, unreached)

    code, doc = _run_json(capsys, ["select", path])
    chosen = doc["driver_set"]
    assert code == 0 and chosen["valid"]
    assert nx.is_directed_acyclic_graph(g.subgraph(unreached_by(g, chosen["drivers"])))


def test_find_cycle_within_a_subset_at_20000_states():
    n = 20_000
    rng = np.random.default_rng(20_003)
    a = sparse_pattern(rng, n, n, 3 * n // 2)
    graph, g = build_graph(a), to_networkx(a)
    outcomes = set()
    for share in (0.05, 0.2, 0.5, 1.0):
        within = {f"x{v}" for v in (np.flatnonzero(rng.random(n) < share) + 1).tolist()}
        cycle = find_cycle(graph, within=within)
        outcomes.add(cycle is None)
        assert (cycle is None) == nx.is_directed_acyclic_graph(g.subgraph(within))
        if cycle is not None:
            _assert_cycle_within([list(edge) for edge in cycle], g, within)
    assert outcomes == {True, False}  # both answers are exercised


def test_peel_leaves_the_states_on_or_after_a_cycle():
    rng = np.random.default_rng(20_004)
    for n in (1, 5, 50, 500, 5000):
        a = sparse_pattern(rng, n, n, max(1, int(rng.uniform(0.5, 1.5) * n)))
        graph, g = build_graph(a), to_networkx(a)
        excluded = (rng.random(n + 1) < 0.3).astype(np.uint8).tobytes()  # index 0 is padding
        kept = g.subgraph(f"x{v}" for v in range(1, n + 1) if not excluded[v])
        after = set().union(*(nx.descendants(kept, v) | {v} for c in cyclic_components(kept) for v in c))
        survivors = np.flatnonzero(_peel(graph, excluded)[0]).tolist()
        assert {f"x{v}" for v in survivors} == after


def test_reachable_split_matches_networkx():
    """Up to n = 10^4: the reached states are the descendants of the states
    the inputs feed, the peeled states come in a topological order of the
    subgraph they induce, and the survivors are the unreached states on or
    after an unreached cycle."""
    rng = np.random.default_rng(20_026)
    parts = set()
    for n in (1, 6, 60, 600, 3000, 10_000):
        for m in (0, 1, 3):
            a = sparse_pattern(rng, n, n, max(1, int(rng.uniform(0.6, 1.4) * n)))
            b = sparse_pattern(rng, n, m, int(rng.integers(1, 4))) if m else None
            g = to_networkx(a, b)
            order, _, n1, k = _reachable_split(build_graph(a, b))
            names = [f"x{v}" for v in order.tolist()]
            fed = {f"x{i}" for i, _ in b.nonzeros} if b is not None else set()
            assert set(names[:n1]) == fed.union(*(nx.descendants(g, v) for v in fed))
            peeled = g.subgraph(names[n1:n - k])
            at = {v: p for p, v in enumerate(names)}
            assert all(at[u] < at[v] for u, v in peeled.edges)
            unreached = g.subgraph(names[n1:])
            after = set().union(*(nx.descendants(unreached, v) | {v} for c in cyclic_components(unreached) for v in c))
            assert set(names[n - k:]) == after
            parts.add((n1 > 0, n - k > n1, k > 0))
    assert (True, True, True) in parts  # some split has all three parts


def _milp_optimum(a):
    """Fewest condensation components whose descendants, themselves included,
    meet every cyclic component: a 0/1 set-cover ILP solved by HiGHS."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    g = to_networkx(a)
    cond = nx.condensation(g)
    cyclic = cyclic_components(g)
    targets = [k for k in cond if frozenset(cond.nodes[k]["members"]) in cyclic]
    row_of = {t: row for row, t in enumerate(targets)}
    incidence = np.zeros((len(targets), len(cond)))
    for c in cond:
        for t in (nx.descendants(cond, c) | {c}) & row_of.keys():
            incidence[row_of[t], c] = 1
    res = milp(
        np.ones(len(cond)),
        constraints=LinearConstraint(incidence, lb=1),
        integrality=np.ones(len(cond)),
        bounds=Bounds(0, 1),
    )
    assert res.success
    return round(res.fun)


def _coverage_classes(a):
    """States grouped by the set of root cyclic condensation nodes (those with
    no cyclic ancestor) among their descendants, themselves included, in order
    of smallest state; states that reach no cycle are left out.  Also the
    number of condensation nodes that reach one."""
    g = to_networkx(a)
    cond = nx.condensation(g)
    cyclic = {k for k in cond if frozenset(cond.nodes[k]["members"]) in cyclic_components(g)}
    roots = {k for k in cyclic if not nx.ancestors(cond, k) & cyclic}
    reached = {k: frozenset((nx.descendants(cond, k) | {k}) & roots) for k in cond}
    classes = {}
    for v in range(1, a.n_rows + 1):
        key = reached[cond.graph["mapping"][f"x{v}"]]
        if key:
            classes.setdefault(key, []).append(v)
    return tuple(tuple(states) for states in classes.values()), sum(map(bool, reached.values()))


def test_driver_candidates_are_the_coverage_classes():
    from zerocontrol.drivers import _cover_problem

    rng = np.random.default_rng(402)
    patterns = [a for _, a, _ in random_instances(403, 70)] + [cover_instance(rng) for _ in range(30)]
    merged = 0
    for a in patterns:
        classes, components = _coverage_classes(a)
        assert _cover_problem(a).members == classes
        merged += len(classes) < components
    assert merged >= 50  # most instances merge components with equal coverage


def test_minimum_driver_set_size_matches_milp():
    rng = np.random.default_rng(401)
    for _ in range(200):
        a = cover_instance(rng)
        ds = minimal_driver_set(a, exact_cap=80)
        assert ds.valid and ds.minimal
        assert ds.size == _milp_optimum(a)


def test_minimum_driver_set_size_matches_milp_at_scale():
    """Up to 300 targets and 40 feeders: most cycles are forced, and the
    rest form independent blocks of up to 186 classes."""
    rng = np.random.default_rng(405)
    for _ in range(200):
        a = cover_instance(rng, max_targets=300)
        ds = minimal_driver_set(a, exact_cap=300)
        assert ds.valid and ds.minimal
        assert ds.size == _milp_optimum(a)


# --- the CSR Tarjan at scale ---------------------------------------------------------

def _path(n):
    return {(i + 1, i) for i in range(1, n)}


def _hamiltonian_cycle_with_chords(n):
    rng = np.random.default_rng(7)
    chords = zip(rng.integers(1, n + 1, size=n // 2).tolist(), rng.integers(1, n + 1, size=n // 2).tolist())
    return {(i % n + 1, i) for i in range(1, n + 1)} | set(chords)


def _chains_ending_in_cycles(n, length=1000):
    # chain x(s) -> ... -> x(s+length-1), whose last three states form a cycle
    entries = set()
    for s in range(1, n + 1, length):
        e = min(s + length, n + 1) - 1
        entries |= {(i + 1, i) for i in range(s, e)} | ({(e - 2, e)} if e - 2 >= s else set())
    return entries


def _bidiagonal_plus_corner(n):
    return {(i, i) for i in range(1, n + 1)} | {(i + 1, i) for i in range(1, n)} | {(1, n)}


def _assert_condensation_matches_networkx(n, entries):
    """Our condensation against networkx's partition, with the condensation's
    edges read off the state edges between its components."""
    dst, src = np.array(list(entries), dtype=np.int64).reshape(-1, 2).T  # x_src -> x_dst
    order = np.lexsort((dst, src))  # the pattern's entry order, which the graph keeps
    graph = build_graph(PatternMatrix._trusted(n, n, dst[order], src[order]))
    scc = graph.condensation
    assert has_cycle(graph) == any(scc.nontrivial)  # Kahn against Tarjan
    comp = np.array(scc._comp_of)
    g = nx.DiGraph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    theirs = np.zeros(n + 1, dtype=np.int64)
    for k, members in enumerate(nx.strongly_connected_components(g)):
        theirs[list(members)] = k
    loops = np.fromiter(nx.nodes_with_selfloops(g), dtype=np.int64)
    del g

    # the same partition, numbered by smallest member
    count = theirs.max(initial=-1) + 1
    assert len(scc.nontrivial) == count == len(np.unique(comp[1:] * count + theirs[1:]))
    first = np.unique(comp[1:], return_index=True)[1]
    assert (np.diff(first) > 0).all()
    sizes = np.bincount(theirs[1:], minlength=count)
    nontrivial = sizes[theirs] > 1
    nontrivial[loops] = True
    assert np.array_equal(np.array(scc.nontrivial)[comp[1:]], nontrivial[1:])
    # the condensation's edges, from networkx's components
    cross = theirs[src] != theirs[dst]
    edges = np.unique(np.stack([comp[src[cross]], comp[dst[cross]]], axis=1), axis=0)
    ours = [(a, b) for a, succ in enumerate(scc._successors) for b in succ]
    assert np.array_equal(np.array(ours, dtype=np.int64).reshape(-1, 2), edges)
    # sinks first: every component once, after every component it reaches
    assert sorted(scc._sinks_first) == list(range(count))
    position = np.empty(count, dtype=np.int64)
    position[list(scc._sinks_first)] = np.arange(count)
    assert (position[edges[:, 1]] < position[edges[:, 0]]).all()


def test_csr_tarjan_matches_networkx_at_scale():
    rng = np.random.default_rng(501)
    for n in (1, 2, 10, 100, 1000, 20_000):
        for density in (0.5, 1.5, 3.0) if n < 20_000 else (1.5,):
            a = sparse_pattern(rng, n, n, max(1, int(density * n)))
            _assert_condensation_matches_networkx(n, a.nonzeros)
    n = 100_000
    for shape in (_path, _hamiltonian_cycle_with_chords, _chains_ending_in_cycles, _bidiagonal_plus_corner):
        _assert_condensation_matches_networkx(n, shape(n))
