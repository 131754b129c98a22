import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerocontrol import (
    EdgeSymbol,
    PathMonomial,
    PatternMatrix,
    WalkCountError,
    build_b_pattern,
    build_graph,
    entry_paths,
    find_cycle,
    has_cycle,
    reachable_from,
    sample_realization,
    scc_decompose,
    validate_driver_set,
)
from zerocontrol.graph import sort_vertices
from conftest import random_pattern
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
    with pytest.raises(KeyError):
        g.condensation.component_of("x3\n")
    with pytest.raises(ValueError, match="must be states"):
        validate_driver_set(example2_a, ["x1\n"])
    with pytest.raises(ValueError, match="must be states"):
        build_b_pattern(5, ["x1\n"], "shared")


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


def test_monomial_factors_must_chain():
    with pytest.raises(ValueError, match="do not chain"):
        PathMonomial((EdgeSymbol("a", 1, 2), EdgeSymbol("a", 3, 4)))
    with pytest.raises(ValueError, match="at least one factor"):
        PathMonomial(())


def test_edge_symbol_rendering():
    assert str(EdgeSymbol("a", 1, 3)) == "a13"
    assert str(EdgeSymbol("b", 12, 3)) == "b(12,3)"
