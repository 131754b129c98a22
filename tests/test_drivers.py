import pytest

from zerocontrol import (
    PatternMatrix,
    build_b_pattern,
    build_graph,
    enumerate_minimal_driver_sets,
    greedy_driver_set,
    is_generically_zero_controllable,
    minimal_driver_set,
    scc_decompose,
    validate_driver_set,
)
from zerocontrol.drivers import ExactSearchSkipped
from conftest import random_square_patterns
from oracles import oracle_minimum_driver_sets


def drivers_as_indices(ds):
    return frozenset(int(v[1:]) for v in ds.drivers)


# --- validation ----------------------------------------------------------------

def test_validate_rejects_x1_x5(example2_a):
    ds = validate_driver_set(example2_a, {"x1", "x5"})
    assert not ds.valid
    assert set(ds.nontrivial_unreachable_components) == {
        frozenset({"x4"}),
        frozenset({"x6", "x7"}),
    }
    assert ds.uncovered_witness in (
        (("x4", "x4"),),
        (("x6", "x7"), ("x7", "x6")),
    )


def test_validate_rejects_x1_x5_x7(example2_a):
    ds = validate_driver_set(example2_a, {"x1", "x5", "x7"})
    assert not ds.valid
    assert ds.uncovered_witness == (("x4", "x4"),)
    assert ds.nontrivial_unreachable_components == (frozenset({"x4"}),)


def test_validate_accepts_x4_x5_x6(example2_a):
    ds = validate_driver_set(example2_a, {"x4", "x5", "x6"})
    assert ds.valid
    assert ds.uncovered_witness is None
    assert not ds.minimal  # validation alone never claims minimality


def test_validate_rejects_unknown_vertices(example2_a):
    with pytest.raises(ValueError, match="unknown vertex 'x12'"):
        validate_driver_set(example2_a, {"x12"})
    with pytest.raises(ValueError, match="must be states"):
        validate_driver_set(example2_a, {"u1"})


# --- minimal driver sets ----------------------------------------------------------

def test_minimal_on_acyclic_pattern_is_empty():
    p = PatternMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    ds = minimal_driver_set(p)
    assert ds.drivers == frozenset()
    assert ds.valid and ds.minimal and ds.size == 0


def test_minimal_example2(example2_a):
    ds = minimal_driver_set(example2_a)
    assert ds.size == 2
    assert "x4" in ds.drivers
    assert ds.drivers == frozenset({"x4", "x8"})  # lexicographically smallest optimum
    assert ds.valid and ds.minimal


def test_minimal_example1(example1_a):
    # x5 reaches x3, x1 and x2, so it alone covers every cycle
    ds = minimal_driver_set(example1_a)
    assert ds.drivers == frozenset({"x5"})
    assert ds.valid and ds.minimal


def test_minimal_two_disjoint_self_loops():
    p = PatternMatrix(2, 2, frozenset({(1, 1), (2, 2)}))
    ds = minimal_driver_set(p)
    assert ds.drivers == frozenset({"x1", "x2"})


# --- enumeration ----------------------------------------------------------------

def test_enumerate_example2(example2_a):
    sets = enumerate_minimal_driver_sets(example2_a)
    listed = [ds.sorted_drivers() for ds in sets]
    assert listed == [
        ["x4", "x8"],
        ["x4", "x9"],
        ["x4", "x10"],
        ["x4", "x11"],
    ]
    assert all(ds.valid and ds.minimal and ds.size == 2 for ds in sets)


def test_enumerate_acyclic_yields_empty_set():
    p = PatternMatrix.zeros(3, 3)
    sets = enumerate_minimal_driver_sets(p)
    assert len(sets) == 1 and sets[0].drivers == frozenset()


def test_enumerate_single_self_loop():
    p = PatternMatrix(1, 1, frozenset({(1, 1)}))
    sets = enumerate_minimal_driver_sets(p)
    assert [ds.drivers for ds in sets] == [frozenset({"x1"})]


def test_enumerate_respects_limit(example2_a):
    sets = enumerate_minimal_driver_sets(example2_a, limit=2)
    assert [ds.sorted_drivers() for ds in sets] == [["x4", "x8"], ["x4", "x9"]]
    with pytest.raises(ValueError, match="limit must be >= 1"):
        enumerate_minimal_driver_sets(example2_a, limit=0)


def test_enumerate_expands_components():
    # one 2-cycle: either of its vertices is a minimum driver set
    p = PatternMatrix.from_rows([[0, 1], [1, 0]])
    sets = enumerate_minimal_driver_sets(p)
    assert [ds.drivers for ds in sets] == [frozenset({"x1"}), frozenset({"x2"})]


# --- greedy ----------------------------------------------------------------------

def test_greedy_example2(example2_a):
    ds = greedy_driver_set(example2_a)
    assert ds.valid and not ds.minimal
    assert ds.size == 2
    assert "x4" in ds.drivers
    (other,) = ds.drivers - {"x4"}
    assert other in {"x8", "x9", "x10", "x11"}


def test_greedy_acyclic_and_disjoint_loops():
    assert greedy_driver_set(PatternMatrix.zeros(2, 2)).drivers == frozenset()
    two_loops = PatternMatrix(2, 2, frozenset({(1, 1), (2, 2)}))
    assert greedy_driver_set(two_loops).size == 2


# --- exact-search size guard --------------------------------------------------------

def _many_self_loops(count):
    return PatternMatrix(count, count, frozenset((i, i) for i in range(1, count + 1)))


def test_exact_cap_falls_back_to_greedy():
    p = _many_self_loops(30)
    with pytest.warns(ExactSearchSkipped):
        ds = minimal_driver_set(p)
    assert ds.valid and not ds.minimal
    assert ds.size == 30  # greedy is still exact here, flag stays conservative
    with pytest.warns(ExactSearchSkipped):
        sets = enumerate_minimal_driver_sets(p)
    assert len(sets) == 1 and not sets[0].minimal


def test_exact_cap_fallback_builds_the_cover_problem_once(monkeypatch):
    from zerocontrol import drivers

    calls = []
    build = drivers._cover_problem
    monkeypatch.setattr(drivers, "_cover_problem", lambda a: calls.append(a) or build(a))
    p = _many_self_loops(30)
    for search in (minimal_driver_set, enumerate_minimal_driver_sets):
        calls.clear()
        with pytest.warns(ExactSearchSkipped):
            search(p)
        assert len(calls) == 1


def test_exact_cap_can_be_raised():
    p = _many_self_loops(30)
    ds = minimal_driver_set(p, exact_cap=40)
    assert ds.minimal and ds.size == 30


# --- cross-module and oracle properties ----------------------------------------------

def test_minimal_matches_exhaustive_oracle_smoke():
    for p in random_square_patterns(seed=404, count=25, max_n=7):
        size, all_sets = oracle_minimum_driver_sets(p)
        ds = minimal_driver_set(p)
        assert ds.size == size
        assert drivers_as_indices(ds) in all_sets


def test_minimality_by_removal(example1_a, example2_a):
    patterns = [example1_a, example2_a] + random_square_patterns(seed=11, count=20, max_n=7)
    for p in patterns:
        ds = minimal_driver_set(p)
        assert ds.valid
        for member in ds.drivers:
            weakened = validate_driver_set(p, ds.drivers - {member})
            assert not weakened.valid


def test_greedy_never_beats_exact_and_is_always_valid():
    for p in random_square_patterns(seed=3030, count=40, max_n=8):
        greedy = greedy_driver_set(p)
        exact = minimal_driver_set(p)
        assert greedy.valid
        assert greedy.size >= exact.size


def test_driver_soundness_via_zero_controllability(example1_a, example2_a):
    patterns = [example1_a, example2_a] + random_square_patterns(seed=77, count=20, max_n=7)
    for p in patterns:
        ds = minimal_driver_set(p)
        if not ds.drivers:
            assert is_generically_zero_controllable(p).verdict
            continue
        b = build_b_pattern(p.n_rows, ds.drivers, "shared").pattern
        assert is_generically_zero_controllable(p, b).verdict


def test_scc_interchangeability(example1_a, example2_a):
    for p in (example1_a, example2_a):
        scc = scc_decompose(build_graph(p))
        for ds in enumerate_minimal_driver_sets(p):
            for member in sorted(ds.drivers):
                comp = scc.components[scc.component_of(member)]
                for replacement in sorted(comp):
                    swapped = (ds.drivers - {member}) | {replacement}
                    assert validate_driver_set(p, swapped).valid


# --- induced input patterns -----------------------------------------------------------

def test_b_pattern_per_driver(example2_a):
    bp = build_b_pattern(11, {"x4", "x8"}, "per_driver")
    assert bp.pattern.shape == (11, 2)
    assert bp.pattern.nonzeros == frozenset({(4, 1), (8, 2)})


def test_b_pattern_shared():
    bp = build_b_pattern(11, {"x4", "x8"}, "shared")
    assert bp.pattern.shape == (11, 1)
    assert bp.pattern.nonzeros == frozenset({(4, 1), (8, 1)})


def test_b_pattern_single_driver():
    bp = build_b_pattern(3, {"x2"}, "shared")
    assert bp.pattern.shape == (3, 1)
    assert bp.pattern.nonzeros == frozenset({(2, 1)})


def test_b_pattern_empty_drivers():
    bp = build_b_pattern(4, set(), "per_driver")
    assert bp.pattern.shape == (4, 0)


def test_b_pattern_column_order_follows_state_index():
    bp = build_b_pattern(12, {"x11", "x2"}, "per_driver")
    assert bp.pattern.nonzeros == frozenset({(2, 1), (11, 2)})


def test_b_pattern_rejects_bad_input():
    with pytest.raises(ValueError, match="out of range"):
        build_b_pattern(3, {"x9"}, "shared")
    with pytest.raises(ValueError, match="must be states"):
        build_b_pattern(3, {"u1"}, "shared")
    with pytest.raises(ValueError, match="mode must be"):
        build_b_pattern(3, {"x1"}, "weird")
