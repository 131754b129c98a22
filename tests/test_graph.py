import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerocontrol import (
    EdgeSymbol,
    PathMonomial,
    PatternMatrix,
    SystemGraph,
    WalkCountError,
    build_b_pattern,
    build_graph,
    entry_paths,
    find_cycle,
    has_cycle,
    is_generically_controllable,
    is_generically_zero_controllable,
    parse_pattern_file,
    reachable_from,
    sample_realization,
    scc_decompose,
    validate_driver_set,
)
from zerocontrol.cli import run_cli
from zerocontrol.dotexport import export_dot
from zerocontrol.graph import _reachable_split, sort_vertices
from conftest import EXAMPLE2_A, EXAMPLE2_B_PER_DRIVER, random_pattern, sparse_pattern
from oracles import oracle_find_cycle


# --- construction -----------------------------------------------------------

def test_build_graph_example1_edges(example1_a, example1_b):
    g = build_graph(example1_a, example1_b)
    assert g.n_states == 5 and g.n_inputs == 1
    assert g.state_edges == frozenset(
        {(1, 1), (2, 1), (3, 1), (1, 2), (4, 2), (4, 3), (5, 3), (5, 5)}
    )
    assert g.input_edges == frozenset({(1, 4)})


def test_build_graph_empty_pattern_is_isolated():
    g = build_graph(PatternMatrix.zeros(4, 4))
    assert g.n_states == 4 and g.n_inputs == 0
    assert not g.state_edges and not g.input_edges


def test_build_graph_example2_edge_count(example2_a):
    g = build_graph(example2_a)
    assert g.n_states == 11
    assert len(g.state_edges) == 15


def test_build_graph_rejects_bad_shapes():
    with pytest.raises(ValueError, match="must be square, got 2x3"):
        build_graph(PatternMatrix(2, 3))
    with pytest.raises(ValueError, match="has 3 rows, expected 2"):
        build_graph(PatternMatrix.zeros(2, 2), PatternMatrix.zeros(3, 1))


def test_edge_counts_match_pattern_nonzeros(example1_a, example1_b):
    g = build_graph(example1_a, example1_b)
    assert len(g.state_edges) == len(example1_a.nonzeros)
    assert len(g.input_edges) == len(example1_b.nonzeros)


# (n, m, A entries drawn): n = 0, m = 0 and an empty A first, then seeded sizes
TWIN_CASES = [(0, 0, 0), (0, 2, 0), (6, 0, 12), (6, 2, 0), (1, 1, 1), (9, 1, 18), (14, 3, 28), (30, 2, 60)]


def _twin_case(n: int, m: int, draws: int, seed: int):
    """A seeded pattern file with its entry lines shuffled, and its A and B entries in the
    order a parsed pattern keeps them (by column, then row).  A frozenset iterates, and so
    prints, in an order that follows its insertions: a twin built from these prints alike."""
    rng = np.random.default_rng(seed)
    a = {(int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))) for _ in range(draws)}
    b = {(int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1))) for _ in range(3 if n * m else 0)}
    entry_lines = [f"a {i} {j}" for i, j in a] + [f"b {i} {j}" for i, j in b]
    rng.shuffle(entry_lines)
    by_column = [sorted(entries, key=lambda e: (e[1], e[0])) for entries in (a, b)]
    return "\n".join([f"n {n}", f"m {m}", *entry_lines]) + "\n", *by_column


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def _assert_twins(fast, twin, name):
    """Equal on ==, hash and repr, also after dataclasses.replace and a pickle round trip
    (each of which re-inserts a stored frozenset in its iteration order, so each side gets
    it).  Unread, the field stays out of a fast object's pickle and is named as before."""
    unread = _round_trip(fast)
    assert name not in fast.__dict__ and name not in unread.__dict__
    assert unread == twin and hash(unread) == hash(twin)
    for got, want in ((fast, twin), (dataclasses.replace(fast), dataclasses.replace(twin)),
                      (_round_trip(fast), _round_trip(twin))):
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert getattr(fast, name) is fast.__dict__[name] is getattr(fast, name)


@pytest.mark.parametrize("case", TWIN_CASES)
def test_parsed_patterns_equal_their_public_twins(case):
    # a parsed pattern keeps only its coordinate arrays and names nonzeros on first read
    text, a_entries, b_entries = _twin_case(*case, seed=sum(case))
    n, m, _ = case
    a, b = parse_pattern_file(text)
    twins = [(a, PatternMatrix(n, n, a_entries))] + [(b, PatternMatrix(n, m, b_entries))] * (m > 0)
    assert (b is None) == (m == 0)
    for fast, twin in twins:
        _assert_twins(fast, twin, "nonzeros")


@pytest.mark.parametrize("case", TWIN_CASES)
def test_built_graphs_equal_their_public_twins(case):
    # a built graph keeps its CSR and names state_edges on first read
    text, a_entries, b_entries = _twin_case(*case, seed=sum(case))
    n, m, _ = case
    g = build_graph(*parse_pattern_file(text))
    twin = SystemGraph(n, m, frozenset((j, i) for i, j in a_entries), frozenset((j, i) for i, j in b_entries))
    assert g.state_successors == twin.state_successors
    assert g.condensation._members == twin.condensation._members
    _assert_twins(g, twin, "state_edges")


def test_equal_patterns_and_graphs_print_alike():
    """repr lists the entries sorted: 200 seeded parsed patterns and their graphs print as
    their twins built from the same entries inserted in a shuffled order, also after
    dataclasses.replace and a pickle round trip, though the frozensets print apart."""
    rng = np.random.default_rng(51)
    apart = 0
    for _ in range(200):
        n = int(rng.integers(1, 30))
        entries = sorted({(int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))) for _ in range(2 * n)})
        a, _ = parse_pattern_file("\n".join([f"n {n}", *(f"a {i} {j}" for i, j in entries)]) + "\n")
        rng.shuffle(entries)
        twin = PatternMatrix(n, n, entries)
        twin_graph = SystemGraph(n, 0, frozenset((j, i) for i, j in entries), frozenset())
        apart += repr(a.nonzeros) != repr(twin.nonzeros)
        for fast, slow in ((a, twin), (build_graph(a), twin_graph)):
            for got in (fast, dataclasses.replace(fast), _round_trip(fast), _round_trip(slow)):
                assert repr(got) == repr(slow)
    assert apart > 100


# --- reachability -----------------------------------------------------------

def test_reachable_from_inputs_example1(example1_a, example1_b):
    g = build_graph(example1_a, example1_b)
    assert reachable_from(g, {"u1"}) == frozenset({"x1", "x2", "x3", "x4"})


def test_reachable_from_empty_sources(example1_a, example1_b):
    g = build_graph(example1_a, example1_b)
    assert reachable_from(g, set()) == frozenset()


def test_reachable_from_x8_example2(example2_a):
    g = build_graph(example2_a)
    assert reachable_from(g, {"x8"}) == frozenset(
        {"x8", "x5", "x3", "x7", "x6", "x2", "x1"}
    )


def test_state_source_reaches_itself():
    g = build_graph(PatternMatrix.zeros(2, 2))
    assert reachable_from(g, {"x2"}) == frozenset({"x2"})


def test_reachable_rejects_unknown_vertices(example1_a, example1_b):
    g = build_graph(example1_a, example1_b)
    with pytest.raises(ValueError, match="unknown vertex 'x9'"):
        reachable_from(g, {"x9"})
    with pytest.raises(ValueError, match="unknown vertex 'u2'"):
        reachable_from(g, {"u2"})
    with pytest.raises(ValueError, match="unknown vertex 'y1'"):
        reachable_from(g, {"y1"})


def test_names_with_a_trailing_newline_are_rejected(example1_a, example2_a):
    g = build_graph(example1_a)
    with pytest.raises(ValueError, match="unknown vertex"):
        g.resolve("x2\n")
    with pytest.raises(ValueError, match="unknown vertex"):
        reachable_from(g, ["x1\n"])
    with pytest.raises(ValueError, match="unknown vertex"):
        find_cycle(g, within=["x1\n"])
    with pytest.raises(ValueError, match="unknown vertex"):
        g.condensation.component_of("x3\n")
    with pytest.raises(ValueError, match="unknown vertex"):
        validate_driver_set(example2_a, ["x1\n"])
    with pytest.raises(ValueError, match="unknown vertex"):
        build_b_pattern(5, ["x1\n"], "shared")


def test_cycle_search_refuses_input_vertices(example1_a, example1_b):
    g = build_graph(example1_a, example1_b)
    with pytest.raises(ValueError, match="^cycle search is over states, got 'u1'$"):
        find_cycle(g, within=["x1", "u1"])


# Every name an entry point takes goes through one resolver, on the 11-state example2 with the
# inputs of drivers x4 and x8.  Each bad name gets the same refusal from every entry point; only
# an input vertex is refused in the entry point's own words, or (reachable_from) accepted.
_BAD_NAMES = [
    (["u1"], ValueError, "{input}, got 'u1'"),
    (["x0"], ValueError, "unknown vertex 'x0' (pattern has 11 states)"),
    (["x99"], ValueError, "unknown vertex 'x99' (pattern has 11 states)"),
    (["y1"], ValueError, "unknown vertex 'y1' (pattern has 11 states)"),
    (["x1\n"], ValueError, "unknown vertex 'x1\\n' (pattern has 11 states)"),
    ([4], ValueError, "unknown vertex 4 (pattern has 11 states)"),
    ("x1", TypeError, "expected a collection of vertex names, got the string 'x1'"),
]


def _name_entry_points():
    """(entry point, its words for an input vertex or None where an input is a valid name)."""
    a, b = EXAMPLE2_A, EXAMPLE2_B_PER_DRIVER
    g = build_graph(a, b)
    zc = is_generically_zero_controllable(a, b)
    return [
        (lambda names: validate_driver_set(a, names), "driver vertices must be states"),
        (lambda names: build_b_pattern(11, names, "shared"), "driver vertices must be states"),
        (lambda names: find_cycle(g, within=names), "cycle search is over states"),
        (lambda names: reachable_from(g, names), None),
        (lambda names: export_dot(g, g.condensation, dataclasses.replace(validate_driver_set(a, ["x4"]), drivers=names)),
         "driver vertices must be states"),
        (lambda names: export_dot(g, g.condensation, dataclasses.replace(zc, reachable_states=names)),
         "reachable vertices must be states"),
    ]


@pytest.mark.parametrize("names, error, words", _BAD_NAMES, ids=[repr(names) for names, _, _ in _BAD_NAMES])
def test_every_entry_point_refuses_a_name_in_the_same_words(names, error, words):
    for call, input_words in _name_entry_points():
        if names == ["u1"] and input_words is None:
            call(names)  # an input is a source for reachability
            continue
        with pytest.raises(error) as refused:
            call(names)
        assert str(refused.value) == words.format(input=input_words)


_BAD_NAME_ROWS = [(names[0], words) for names, error, words in _BAD_NAMES if error is ValueError]


@pytest.mark.parametrize("name, words", _BAD_NAME_ROWS, ids=[repr(name) for name, _ in _BAD_NAME_ROWS])
def test_component_of_refuses_a_name_in_the_resolver_words(name, words):
    g = build_graph(EXAMPLE2_A)
    assert g.condensation.component_of("x4") == g.condensation._comp_of[4]
    with pytest.raises(ValueError) as refused:
        g.condensation.component_of(name)
    assert str(refused.value) == words.format(input="components hold states")


# the rows a --drivers list can spell (it strips each name and reads a bare index as a state),
# then u1 after a good driver, and x0 and x99 spelled as bare indices
_BAD_DRIVERS = [(names[0], words) for names, _, words in _BAD_NAMES[:4]] + [
    ("x4,u1", _BAD_NAMES[0][2]), ("0", _BAD_NAMES[1][2]), ("99", _BAD_NAMES[2][2])]


@pytest.mark.parametrize("command", ["verify", "simulate", "export-dot"])
@pytest.mark.parametrize("drivers, words", _BAD_DRIVERS, ids=[drivers for drivers, _ in _BAD_DRIVERS])
def test_every_driver_option_refuses_a_name_in_the_same_words(command, drivers, words, fixture_dir, capsys):
    assert run_cli([command, str(fixture_dir / "example2.pat"), "--drivers", drivers]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {words.format(input='driver vertices must be states')}\n")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_graph_accessors_agree_with_the_edge_sets(seed):
    g = build_graph(random_pattern(np.random.default_rng(seed), 9, 9, 0.3), PatternMatrix.zeros(9, seed))
    successors = [[] for _ in range(g.n_states + 1)]
    for s, d in g.state_edges:
        successors[s].append(d)
    assert g.state_successors == tuple(tuple(sorted(succ)) for succ in successors)
    assert g.input_vertices == tuple(f"u{j}" for j in range(1, seed + 1))
    loops = {f"x{d}" for s, d in g.state_edges if s == d}
    expected = tuple(c for c in g.condensation.components if len(c) > 1 or c & loops)
    assert g.condensation.nontrivial_components() == expected


def test_nontrivial_components_example2(example2_a):
    expected = ({"x1", "x2", "x3"}, {"x4"}, {"x5"}, {"x6", "x7"})
    assert build_graph(example2_a).condensation.nontrivial_components() == tuple(map(frozenset, expected))


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_components_are_named_on_first_read(seed, monkeypatch):
    # the decomposition keeps state ids only; nontrivial_components() names
    # its own members, and components every state, when first read
    from zerocontrol import graph as graph_module

    calls = []
    named = graph_module.state_name
    monkeypatch.setattr(graph_module, "state_name", lambda i: calls.append(i) or named(i))
    g = build_graph(random_pattern(np.random.default_rng(seed), 40, 40, 0.04))
    scc = scc_decompose(g)
    assert not calls and "components" not in scc.__dict__
    grouped = {}
    for v in range(1, g.n_states + 1):
        grouped.setdefault(scc._comp_of[v], set()).add(f"x{v}")
    expected = tuple(frozenset(grouped[k]) for k in range(len(grouped)))
    nontrivial = scc.nontrivial_components()
    assert nontrivial == tuple(c for c, nt in zip(expected, scc.nontrivial) if nt)
    assert 0 < len(calls) == sum(map(len, nontrivial)) < g.n_states
    assert "components" not in scc.__dict__
    assert scc.components == expected and scc.components is scc.components
    assert len(calls) == sum(map(len, nontrivial)) + g.n_states


def test_obstruction_decomposes_and_names_only_the_survivors(monkeypatch):
    # the peel's k survivors are decomposed as a k-state graph, and at most
    # those k states are named; the certificate is the one found on the
    # states' own ids: the reference witness and the induced subgraph's
    # nontrivial components
    from zerocontrol import graph as graph_module

    condense, named = graph_module.scc_decompose, graph_module.state_name
    decomposed, calls = [], []
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        g = build_graph(random_pattern(rng, n, n, float(rng.uniform(0.02, 0.15))))
        excluded = bytes([1]) + bytes((rng.random(n) < 0.3).tolist())
        within = {f"x{v}" for v in range(1, n + 1) if not excluded[v]}
        induced = PatternMatrix(n, n, frozenset(
            (d, s) for s, d in g.state_edges if not excluded[s] and not excluded[d]))
        expected = (oracle_find_cycle(g, within), scc_decompose(build_graph(induced)).nontrivial_components())
        k = int(graph_module._peel(g, excluded)[0].sum())
        decomposed.clear()
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(graph_module, "scc_decompose", lambda h: decomposed.append(h.n_states) or condense(h))
            patch.setattr(graph_module, "state_name", lambda i: calls.append(i) or named(i))
            assert graph_module._obstruction(g, excluded) == expected
        assert decomposed == ([k] if k else []) and len(calls) <= k


def test_sort_vertices_orders_by_kind_then_index():
    rng = np.random.default_rng(5)
    boundaries = [f"{kind}{i}" for kind in "xu" for i in (1, 9, 10, 11, 99, 100, 101, 999, 1000)]
    for _ in range(300):
        pool = [f"{kind}{i}" for kind in rng.choice(["x", "u", "xu"]) for i in rng.integers(1, 2000, size=40)]
        names = list(set(pool + [str(v) for v in rng.choice(boundaries, size=int(rng.integers(0, 10)))]))
        rng.shuffle(names)
        assert sort_vertices(names) == sorted(names, key=lambda v: (v[0], int(v[1:])))
    assert sort_vertices(boundaries) == [f"{kind}{i}" for kind in "ux" for i in (1, 9, 10, 11, 99, 100, 101, 999, 1000)]


@st.composite
def graphs_and_sources(draw):
    n = draw(st.integers(1, 7))
    entries = draw(
        st.frozensets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n)
    )
    g = build_graph(PatternMatrix(n, n, entries))
    vertices = st.sampled_from([f"x{i}" for i in range(1, n + 1)])
    s1 = draw(st.frozensets(vertices, max_size=n))
    s2 = draw(st.frozensets(vertices, max_size=n))
    return g, s1, s2


@given(graphs_and_sources())
def test_reachability_is_additive_over_sources(data):
    g, s1, s2 = data
    union = reachable_from(g, s1 | s2)
    assert union == reachable_from(g, s1) | reachable_from(g, s2)
    assert reachable_from(g, s1) <= union  # monotone


def _split_corpus(seed=26, count=120):
    """Seeded pairs with n <= 60, 0.5n to 2n entries and 0-2 inputs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 61))
        m = int(rng.integers(0, 3))
        a = sparse_pattern(rng, n, n, max(1, int(rng.uniform(0.5, 2.0) * n)))
        yield a, sparse_pattern(rng, n, m, int(rng.integers(1, 4))) if m else None


def test_the_reachable_split_is_kalmans_form():
    """In the split's order every pattern of a seeded corpus has A21 = 0, B2 =
    0 and a strictly lower triangular peeled block, the reached states and the
    survivors each ascending; the survivors are empty exactly on a ZC verdict,
    and a state is unreached exactly when the controllability test fails on
    irreducibility.  A dilation (x1 feeds x2 and x3, the input x1) is fully
    reached and fails on term rank."""
    dilation = PatternMatrix(3, 3, frozenset({(2, 1), (3, 1)})), PatternMatrix(3, 1, frozenset({(1, 1)}))
    seen, failed_conditions = set(), set()
    for a, b in [*_split_corpus(), dilation]:
        n = a.n_rows
        order, positions, n1, k = _reachable_split(build_graph(a, b))
        assert sorted(order.tolist()) == list(range(1, n + 1))
        assert list(order[:n1]) == sorted(order[:n1]) and list(order[n - k:]) == sorted(order[n - k:])
        at = {v: p for p, v in enumerate(order.tolist())}
        assert positions[1:].tolist() == [at[v] for v in range(1, n + 1)]
        for i, j in a.nonzeros:  # state j feeds state i
            if at[i] >= n1:
                assert at[j] >= n1  # A21 = 0
            if n1 <= at[i] < n - k:
                assert at[j] < at[i]  # strictly lower triangular
        assert all(at[i] < n1 for i, _ in (b.nonzeros if b is not None else ()))  # B2 = 0
        verdict = is_generically_zero_controllable(a, b).verdict
        assert verdict == (k == 0)
        seen.add((verdict, 0 < n1 < n))
        failed = is_generically_controllable(a, b).failed_condition
        assert (n1 < n) == (failed == "irreducibility")
        failed_conditions.add(failed)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert failed_conditions == {None, "generic-rank", "irreducibility"}


def test_a_split_that_breaks_kalmans_form_is_an_error(monkeypatch):
    """The split checks its block facts on the edges: a reach that stops at the
    fed x1 leaves x1 -> x2 in A21, one that misses x1 leaves B2 nonzero, and
    the peel's order run backwards puts x3 -> x4 above the diagonal.  Each
    raises, whichever way Python runs."""
    from zerocontrol import graph as graph_module

    graph = build_graph(PatternMatrix(4, 4, frozenset({(2, 1), (4, 3)})), PatternMatrix(4, 1, frozenset({(1, 1)})))
    order, at, n1, k = _reachable_split(graph)
    assert (order.tolist(), at.tolist(), n1, k) == ([1, 2, 3, 4], [-1, 0, 1, 2, 3], 2, 0)
    peel = graph_module._peel
    for name, fake in (("_input_reach", lambda g: bytearray([0, 1, 0, 0, 0])),
                       ("_input_reach", lambda g: bytearray(5)),
                       ("_peel", lambda g, excluded: (peel(g, excluded)[0], peel(g, excluded)[1][::-1]))):
        with monkeypatch.context() as patch:
            patch.setattr(graph_module, name, fake)
            with pytest.raises(RuntimeError, match="Kalman's form"):
                _reachable_split(graph)


# --- strongly connected components -------------------------------------------

def test_scc_example1(example1_a, example1_b):
    scc = scc_decompose(build_graph(example1_a, example1_b))
    assert scc.components == (
        frozenset({"x1", "x2"}),
        frozenset({"x3"}),
        frozenset({"x4"}),
        frozenset({"x5"}),
    )
    assert scc.nontrivial == (True, False, False, True)
    # exactly five order relations: C4<C2, C3<C2, C2<C1, C4<C1, C3<C1
    assert scc.order == frozenset({(3, 1), (2, 1), (1, 0), (3, 0), (2, 0)})
    assert scc.covering_order == frozenset({(3, 1), (2, 1), (1, 0)})
    assert scc.precedes(frozenset({"x5"}), frozenset({"x1", "x2"}))
    assert not scc.precedes(frozenset({"x1", "x2"}), frozenset({"x5"}))


def test_scc_single_isolated_vertex():
    scc = scc_decompose(build_graph(PatternMatrix.zeros(1, 1)))
    assert scc.components == (frozenset({"x1"}),)
    assert scc.nontrivial == (False,)
    assert not scc.order


def test_scc_example2(example2_a):
    scc = scc_decompose(build_graph(example2_a))
    nontrivial = {c for c, nt in zip(scc.components, scc.nontrivial) if nt}
    trivial = {c for c, nt in zip(scc.components, scc.nontrivial) if not nt}
    assert nontrivial == {
        frozenset({"x1", "x2", "x3"}),
        frozenset({"x4"}),
        frozenset({"x5"}),
        frozenset({"x6", "x7"}),
    }
    assert trivial == {
        frozenset({"x8"}),
        frozenset({"x9"}),
        frozenset({"x10"}),
        frozenset({"x11"}),
    }


def test_self_loop_makes_component_nontrivial():
    scc = scc_decompose(build_graph(PatternMatrix(1, 1, frozenset({(1, 1)}))))
    assert scc.nontrivial == (True,)


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_scc_partition_and_order_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    p = random_pattern(rng, n, n, float(rng.uniform(0.1, 0.5)))
    g = build_graph(p)
    scc = scc_decompose(g)

    # exact partition of the states
    all_vertices = [v for comp in scc.components for v in comp]
    assert sorted(all_vertices) == sorted(g.state_vertices)
    assert len(all_vertices) == len(set(all_vertices))

    # strict partial order: irreflexive and transitive
    for a, b in scc.order:
        assert a != b
        for c, d in scc.order:
            if b == c:
                assert (a, d) in scc.order

    # condensation is acyclic: a topological sort must consume every node
    p_comp = len(scc.components)
    indeg = [0] * p_comp
    for a, b in scc.covering_order:
        indeg[b] += 1
    ready = [k for k in range(p_comp) if indeg[k] == 0]
    seen = 0
    while ready:
        k = ready.pop()
        seen += 1
        for a, b in scc.covering_order:
            if a == k:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    assert seen == p_comp

    # covering order regenerates the full order by transitive closure
    closure = set(scc.covering_order)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    assert frozenset(closure) == scc.order


# --- cycles -------------------------------------------------------------------

def test_has_cycle_example1(example1_a, example1_b):
    assert has_cycle(build_graph(example1_a, example1_b))


def test_has_cycle_empty_edges():
    assert not has_cycle(build_graph(PatternMatrix.zeros(3, 3)))


def test_has_cycle_strictly_lower_triangular():
    for n in (2, 4, 6):
        entries = frozenset((i, j) for i in range(1, n + 1) for j in range(1, i))
        assert not has_cycle(build_graph(PatternMatrix(n, n, entries)))


def test_has_cycle_matches_nontrivial_components_and_numeric_trace():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        p = random_pattern(rng, n, n, float(rng.uniform(0.1, 0.5)))
        g = build_graph(p)
        cyclic = has_cycle(g)
        assert cyclic == any(scc_decompose(g).nontrivial)
        # generic check: diagonal mass of the powers is positive iff cyclic
        r = sample_realization(p, None, seed=int(rng.integers(0, 2**31)))
        power = np.eye(n)
        diag_mass = 0.0
        for _ in range(n):
            power = power @ r.a
            diag_mass += float(np.sum(np.abs(np.diag(power))))
        assert cyclic == (diag_mass > 1e-12)


def test_find_cycle_prefers_smallest_self_loop(example1_a):
    g = build_graph(example1_a)
    assert find_cycle(g) == (("x1", "x1"),)
    assert find_cycle(g, within={"x2", "x3", "x4", "x5"}) == (("x5", "x5"),)


def test_find_cycle_reports_two_cycle():
    p = PatternMatrix.from_rows([[0, 1], [1, 0]])
    cycle = find_cycle(build_graph(p))
    assert cycle == (("x1", "x2"), ("x2", "x1"))


def test_find_cycle_none_on_acyclic():
    p = PatternMatrix.from_rows([[0, 0], [1, 0]])
    assert find_cycle(build_graph(p)) is None


def test_find_cycle_matches_multi_start_reference():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        p = random_pattern(rng, n, n, float(rng.uniform(0.02, 0.2)))
        g = build_graph(p)
        assert find_cycle(g) == oracle_find_cycle(g)
        for _ in range(3):
            keep = float(rng.uniform(0.2, 1.0))
            within = {f"x{v}" for v in range(1, n + 1) if rng.random() < keep}
            assert find_cycle(g, within=within) == oracle_find_cycle(g, within)


# --- walk monomials -----------------------------------------------------------

def test_entry_paths_example1_golden(example1_a):
    monomials = entry_paths(example1_a, 1, 5, 3)
    expected = {
        PathMonomial((EdgeSymbol("a", 1, 1), EdgeSymbol("a", 1, 3), EdgeSymbol("a", 3, 5))),
        PathMonomial((EdgeSymbol("a", 1, 3), EdgeSymbol("a", 3, 5), EdgeSymbol("a", 5, 5))),
    }
    assert monomials == expected
    assert sorted(str(m) for m in monomials) == ["a11*a13*a35", "a13*a35*a55"]


def test_entry_paths_length_one(example1_a):
    assert entry_paths(example1_a, 1, 2, 1) == {
        PathMonomial((EdgeSymbol("a", 1, 2),))
    }
    assert entry_paths(example1_a, 2, 2, 1) == frozenset()


def test_entry_paths_numeric_agreement(example1_a):
    r = sample_realization(example1_a, None, seed=99)
    power4 = np.linalg.matrix_power(r.a, 4)
    total = sum(m.evaluate(r.a) for m in entry_paths(example1_a, 2, 4, 4))
    assert total == pytest.approx(power4[1, 3], rel=1e-9)


def test_entry_paths_random_against_matrix_powers():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        p = random_pattern(rng, n, n, float(rng.uniform(0.2, 0.6)))
        i = int(rng.integers(1, n + 1))
        j = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, n + 1))
        r = sample_realization(p, None, seed=int(rng.integers(0, 2**31)))
        expected = np.linalg.matrix_power(r.a, k)[i - 1, j - 1]
        total = sum(m.evaluate(r.a) for m in entry_paths(p, i, j, k))
        assert total == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_entry_paths_validates_arguments(example1_a):
    with pytest.raises(ValueError, match="length must be >= 1"):
        entry_paths(example1_a, 1, 1, 0)
    with pytest.raises(ValueError, match="i=9 out of range"):
        entry_paths(example1_a, 9, 1, 2)


def test_entry_paths_overflow_guard():
    full = PatternMatrix(
        4, 4, frozenset((i, j) for i in range(1, 5) for j in range(1, 5))
    )
    with pytest.raises(WalkCountError, match="exceed the cap"):
        entry_paths(full, 1, 1, 12)
    # a tight custom cap triggers too
    with pytest.raises(WalkCountError):
        entry_paths(full, 1, 1, 3, max_monomials=5)
    # the cap is inclusive: 4^2 = 16 closed walks of 3 steps at x1
    assert len(entry_paths(full, 1, 1, 3, max_monomials=16)) == 16
    with pytest.raises(WalkCountError, match=r"^16 walks of length 3 from x1 to x1 exceed the cap of 15$"):
        entry_paths(full, 1, 1, 3, max_monomials=15)
    # x1 -> x1, x2 -> x1, x3 -> x2, x1 -> x3: 2 walks of 4 steps from x1 to x3,
    # 1 from x3 to x1, so a cap of 1 tells the count's direction
    skew = PatternMatrix(3, 3, frozenset({(1, 1), (1, 2), (2, 3), (3, 1)}))
    with pytest.raises(WalkCountError, match=r"^2 walks of length 4 from x1 to x3 exceed the cap of 1$"):
        entry_paths(skew, 3, 1, 4, max_monomials=1)
    assert [str(m) for m in entry_paths(skew, 1, 3, 4, max_monomials=1)] == ["a11*a11*a12*a23"]


def test_symbols_outside_the_state_matrix_are_refused():
    with pytest.raises(ValueError, match="^matrix tag must be 'a' or 'b', got 'c'$"):
        EdgeSymbol("c", 1, 1)
    mixed = PathMonomial((EdgeSymbol("a", 1, 2), EdgeSymbol("b", 2, 1)))
    with pytest.raises(ValueError, match="^only state-matrix monomials can be evaluated here$"):
        mixed.evaluate(np.ones((2, 2)))


def test_monomial_factors_must_chain():
    with pytest.raises(ValueError, match="do not chain"):
        PathMonomial((EdgeSymbol("a", 1, 2), EdgeSymbol("a", 3, 4)))
    with pytest.raises(ValueError, match="at least one factor"):
        PathMonomial(())


def test_edge_symbol_rendering():
    assert str(EdgeSymbol("a", 1, 3)) == "a13"
    assert str(EdgeSymbol("b", 12, 3)) == "b(12,3)"
