import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerocontrol
from zerocontrol import (
    ControllabilityReport,
    DriverSet,
    NumericCheck,
    PatternMatrix,
    ZcReport,
    build_graph,
    compute_nu,
    entry_paths,
    enumerate_minimal_driver_sets,
    generic_rank,
    greedy_driver_set,
    has_cycle,
    is_generically_controllable,
    is_generically_zero_controllable,
    is_irreducible,
    is_structurally_nilpotent,
    minimal_driver_set,
    monte_carlo_verify,
    reducible_decomposition,
    sample_realization,
    scc_decompose,
    serialize_pattern_file,
    validate_driver_set,
)
from conftest import random_pattern, random_square_patterns, sparse_pattern
from oracles import oracle_acyclic, oracle_gf_rank, oracle_nu, oracle_reducible_decomposition, oracle_term_rank


# --- structural nilpotency and nu --------------------------------------------

def test_nilpotency_golden(example1_a, example2_a):
    assert not is_structurally_nilpotent(example1_a)
    assert is_structurally_nilpotent(PatternMatrix.zeros(4, 4))
    assert not is_structurally_nilpotent(example2_a)


def test_nu_golden(example1_a, example2_a):
    assert compute_nu(example1_a) == 3
    assert compute_nu(PatternMatrix.zeros(3, 3)) == 0
    assert compute_nu(PatternMatrix.zeros(7, 7)) == 0
    assert compute_nu(example2_a) == 7


def test_nu_requires_square():
    with pytest.raises(ValueError):
        compute_nu(PatternMatrix(2, 3))


# Every public entry point that takes a state pattern, called on (A, B); one that takes no input
# pattern ignores B.  Each refuses a bad pair in _pair's words.
NON_SQUARE = {
    "build_graph": build_graph,
    "compute_nu": lambda a, b: compute_nu(a),
    "entry_paths": lambda a, b: entry_paths(a, 1, 1, 1),
    "enumerate_minimal_driver_sets": lambda a, b: enumerate_minimal_driver_sets(a),
    "greedy_driver_set": lambda a, b: greedy_driver_set(a),
    "is_generically_controllable": is_generically_controllable,
    "is_generically_zero_controllable": is_generically_zero_controllable,
    "is_irreducible": is_irreducible,
    "is_structurally_nilpotent": lambda a, b: is_structurally_nilpotent(a),
    "minimal_driver_set": lambda a, b: minimal_driver_set(a),
    "monte_carlo_verify": monte_carlo_verify,
    "reducible_decomposition": reducible_decomposition,
    "sample_realization": sample_realization,
    "serialize_pattern_file": serialize_pattern_file,
    "validate_driver_set": lambda a, b: validate_driver_set(a, {"x1"}),
}


def _public_functions_with(parameter):
    return {name for name in zerocontrol.__all__ if inspect.isfunction(getattr(zerocontrol, name))
            and parameter in inspect.signature(getattr(zerocontrol, name)).parameters}


#: The public API: ``zerocontrol.__all__`` and the signature of each public function.  A change here breaks
#: callers, and ``perfbench/trace_pass.py`` passes the single checks' ``tol`` by position.
PUBLIC_NAMES = [
    "BPattern", "ControllabilityReport", "DEFAULT_BASE_SEED", "Decomposition", "DriverSet", "EdgeSymbol",
    "MonteCarloStats", "NumericCheck", "PathMonomial", "PatternFormatError", "PatternMatrix", "Realization",
    "SccDecomposition", "SteeringResult", "SystemGraph", "ValueSpec", "WalkCountError", "ZcReport",
    "build_b_pattern", "build_graph", "compute_nu", "count_nonzero_eigenvalues",
    "deadbeat_steer", "entry_paths", "enumerate_minimal_driver_sets", "export_dot", "find_cycle", "generic_rank",
    "greedy_driver_set", "has_cycle", "is_controllable_numeric", "is_generically_controllable",
    "is_generically_zero_controllable", "is_irreducible", "is_structurally_nilpotent",
    "is_zero_controllable_numeric", "minimal_driver_set", "monte_carlo_verify", "parse_pattern_file",
    "reachable_from", "reducible_decomposition", "sample_realization", "scc_decompose", "serialize_pattern_file",
    "steering_residual", "validate_driver_set",
]
PUBLIC_SIGNATURES = {
    "build_b_pattern": "(n: 'int', drivers: 'Iterable[str]', mode: \"Literal['shared', 'per_driver']\") -> 'BPattern'",
    "build_graph": "(pattern_a: 'PatternMatrix', pattern_b: 'PatternMatrix | None' = None) -> 'SystemGraph'",
    "compute_nu": "(pattern_a: 'PatternMatrix') -> 'int'",
    "count_nonzero_eigenvalues": "(realization: 'Realization', tol: 'float' = 1e-08) -> 'int'",
    "deadbeat_steer": "(realization: 'Realization', x0: 'np.ndarray', horizon: 'int') -> 'SteeringResult'",
    "entry_paths": "(pattern_a: 'PatternMatrix', i: 'int', j: 'int', k: 'int', *, "
                   "max_monomials: 'int' = 1000000) -> 'frozenset[PathMonomial]'",
    "enumerate_minimal_driver_sets": "(pattern_a: 'PatternMatrix', limit: 'int' = 100, *, "
                                     "exact_cap: 'int' = 25) -> 'list[DriverSet]'",
    "export_dot": "(graph: 'SystemGraph', scc: 'SccDecomposition', "
                  "report: 'ZcReport | DriverSet | None' = None) -> 'str'",
    "find_cycle": "(graph: 'SystemGraph', within: 'Iterable[str] | None' = None) "
                  "-> 'tuple[tuple[str, str], ...] | None'",
    "generic_rank": "(pattern: 'PatternMatrix') -> 'int'",
    "greedy_driver_set": "(pattern_a: 'PatternMatrix') -> 'DriverSet'",
    "has_cycle": "(graph: 'SystemGraph') -> 'bool'",
    "is_controllable_numeric": "(realization: 'Realization', tol: 'float' = 1e-08) -> 'NumericCheck'",
    "is_generically_controllable": "(pattern_a: 'PatternMatrix', "
                                   "pattern_b: 'PatternMatrix | None') -> 'ControllabilityReport'",
    "is_generically_zero_controllable": "(pattern_a: 'PatternMatrix', "
                                        "pattern_b: 'PatternMatrix | None' = None) -> 'ZcReport'",
    "is_irreducible": "(pattern_a: 'PatternMatrix', pattern_b: 'PatternMatrix') -> 'bool'",
    "is_structurally_nilpotent": "(pattern_a: 'PatternMatrix') -> 'bool'",
    "is_zero_controllable_numeric": "(realization: 'Realization', tol: 'float' = 1e-08) -> 'NumericCheck'",
    "minimal_driver_set": "(pattern_a: 'PatternMatrix', *, exact_cap: 'int' = 25) -> 'DriverSet'",
    "monte_carlo_verify": "(pattern_a: 'PatternMatrix', pattern_b: 'PatternMatrix | None' = None, "
                          "trials: 'int' = 100, base_seed: 'int' = 20240001, "
                          "check_controllability: 'bool' = False) -> 'MonteCarloStats'",
    "parse_pattern_file": "(text: 'str') -> 'tuple[PatternMatrix, PatternMatrix | None]'",
    "reachable_from": "(graph: 'SystemGraph', sources: 'Iterable[str]') -> 'frozenset[str]'",
    "reducible_decomposition": "(pattern_a: 'PatternMatrix', "
                               "pattern_b: 'PatternMatrix | None' = None) -> 'Decomposition'",
    "sample_realization": "(pattern_a: 'PatternMatrix', pattern_b: 'PatternMatrix | None' = None, "
                          "seed: 'int' = 20240001, value_spec: 'ValueSpec' = ValueSpec(low=0.1, high=2.0)) "
                          "-> 'Realization'",
    "scc_decompose": "(graph: 'SystemGraph') -> 'SccDecomposition'",
    "serialize_pattern_file": "(pattern_a: 'PatternMatrix', pattern_b: 'PatternMatrix | None' = None, *, "
                              "header_comment: 'str | None' = None) -> 'str'",
    "steering_residual": "(realization: 'Realization', result: 'SteeringResult') -> 'float'",
    "validate_driver_set": "(pattern_a: 'PatternMatrix', drivers: 'Iterable[str]') -> 'DriverSet'",
}


def test_the_public_api_is_unchanged():
    assert zerocontrol.__all__ == PUBLIC_NAMES
    functions = {name: getattr(zerocontrol, name) for name in PUBLIC_NAMES}
    signatures = {name: str(inspect.signature(f)) for name, f in functions.items() if inspect.isfunction(f)}
    assert signatures == PUBLIC_SIGNATURES


def test_the_pair_table_holds_every_entry_point_that_takes_a_state_pattern():
    assert set(NON_SQUARE) == _public_functions_with("pattern_a")
    assert _public_functions_with("pattern_b") < set(NON_SQUARE)


@pytest.mark.parametrize("call", NON_SQUARE.values(), ids=NON_SQUARE)
def test_non_square_state_patterns_are_refused(call):
    with pytest.raises(ValueError, match="^state pattern must be square, got 2x3$"):
        call(PatternMatrix(2, 3, frozenset({(1, 1), (2, 3)})), None)


@pytest.mark.parametrize("name", sorted(_public_functions_with("pattern_b")))
def test_input_patterns_without_one_row_per_state_are_refused(name):
    with pytest.raises(ValueError, match="^input pattern has 3 rows, expected 2 to match the 2x2 state pattern$"):
        NON_SQUARE[name](PatternMatrix(2, 2, frozenset({(1, 2)})), PatternMatrix(3, 1, frozenset({(3, 1)})))


VERDICTS = {
    "ZcReport": lambda verdict: ZcReport(verdict, frozenset(), frozenset(), None, ()),
    "ControllabilityReport": lambda verdict: ControllabilityReport(verdict, None, frozenset(), 0, 0),
    "DriverSet": lambda valid: DriverSet(frozenset(), valid, False, None, ()),
    "NumericCheck": lambda verdict: NumericCheck(verdict, True),
}


@pytest.mark.parametrize("make", VERDICTS.values(), ids=VERDICTS)
def test_reports_are_true_exactly_on_a_positive_verdict(make):
    assert bool(make(True)) is True
    assert bool(make(False)) is False


def test_three_cycle_tests_agree_on_random_patterns():
    # three independent code paths: Kahn toposort (has_cycle, behind the
    # nilpotency test), Tarjan components (the condensation), matching
    for p in random_square_patterns(seed=2024, count=200, max_n=8):
        nilpotent = is_structurally_nilpotent(p)
        assert nilpotent == (compute_nu(p) == 0)
        assert nilpotent == (not any(build_graph(p).condensation.nontrivial))
        assert nilpotent == oracle_acyclic(p)


def test_cycle_questions_build_no_condensation(monkeypatch):
    # has_cycle and nilpotency are Kahn's peel, not Tarjan's condensation
    def no_condensation(graph):
        raise AssertionError("a condensation was built")

    monkeypatch.setattr("zerocontrol.graph.scc_decompose", no_condensation)
    cyclic = PatternMatrix(3, 3, frozenset({(2, 1), (3, 2), (1, 3)}))
    acyclic = PatternMatrix(3, 3, frozenset({(2, 1), (3, 2), (3, 1)}))
    assert has_cycle(build_graph(cyclic)) and not is_structurally_nilpotent(cyclic)
    assert not has_cycle(build_graph(acyclic)) and is_structurally_nilpotent(acyclic)


def test_positive_verdicts_decompose_nothing(monkeypatch):
    # the peel clears an acyclic unreached part, so a positive verdict and a
    # valid driver set need no components; a cyclic one decomposes only
    # what the peel leaves: here the cycle x1 -> x2 -> x3 -> x1 and x5 after
    # it, but not x4 before it, renumbered in order to the states 1..4
    decomposed = []
    condense = scc_decompose

    def recorded(graph):
        decomposed.append((graph.n_states, sorted(graph.state_edges)))
        return condense(graph)

    monkeypatch.setattr("zerocontrol.graph.scc_decompose", recorded)
    a = PatternMatrix(5, 5, frozenset({(2, 1), (3, 2), (1, 3), (1, 4), (5, 1), (5, 4)}))
    assert is_generically_zero_controllable(a, PatternMatrix(5, 1, frozenset({(1, 1)})))
    assert validate_driver_set(a, {"x2"}) and not decomposed
    report = is_generically_zero_controllable(a, PatternMatrix(5, 1, frozenset({(4, 1)})))
    assert report.verdict and not decomposed  # x4 feeds x1's cycle
    report = is_generically_zero_controllable(a)
    assert report.cycle_witness == (("x1", "x2"), ("x2", "x3"), ("x3", "x1"))
    assert report.nontrivial_unreachable_components == (frozenset({"x1", "x2", "x3"}),)
    assert decomposed == [(4, [(1, 2), (1, 4), (2, 3), (3, 1)])]


def _dense_nu(pattern):
    """The dense max-weight assignment compute_nu used to solve: weight 1 on a
    real entry, a weight-0 stay slot on each diagonal position, every other
    position forbidden."""
    from scipy.optimize import linear_sum_assignment

    n = pattern.n_rows
    cost = np.full((n, n), 2.0 * n + 1.0)
    for i, j in pattern.nonzeros:
        cost[i - 1, j - 1] = -1.0
    np.fill_diagonal(cost, np.minimum(np.diag(cost), 0.0))
    rows, cols = linear_sum_assignment(cost)
    return int(round(-cost[rows, cols].sum()))


def test_sparse_nu_matches_dense_assignment():
    rng = np.random.default_rng(1312)
    for _ in range(240):
        n = int(rng.integers(1, 301))
        p = sparse_pattern(rng, n, n, int(rng.uniform(0.0, 3.0) * n))
        assert compute_nu(p) == _dense_nu(p)


def test_nu_memory_is_sparse():
    import tracemalloc

    n = 5000
    p = sparse_pattern(np.random.default_rng(5), n, n, 3 * n // 2)
    compute_nu(PatternMatrix.identity(3))  # imports outside the traced region
    tracemalloc.start()
    try:
        nu = compute_nu(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < nu <= n and peak < 20 * 2**20  # the dense cost matrix alone is 200 MB


def test_nu_matches_exhaustive_oracle_smoke():
    for p in random_square_patterns(seed=7, count=30, max_n=7):
        assert compute_nu(p) == oracle_nu(p)


def test_nonzero_eigenvalue_count_matches_nu(example1_a, example2_a):
    from zerocontrol import count_nonzero_eigenvalues

    for pattern, nu in ((example1_a, 3), (example2_a, 7)):
        hits = 0
        for i in range(100):
            r = sample_realization(pattern, None, seed=31_000 + i)
            if count_nonzero_eigenvalues(r) == nu:
                hits += 1
        assert hits >= 95


# --- generic rank --------------------------------------------------------------

def test_generic_rank_golden(example1_a, example1_b):
    assert generic_rank(example1_a.hstack(example1_b)) == 5
    assert generic_rank(PatternMatrix.zeros(3, 4)) == 0
    assert generic_rank(PatternMatrix.identity(6)) == 6


def test_generic_rank_survives_long_augmenting_path():
    # bidiagonal plus a corner entry: the last row augments through every row
    n = 3000
    entries = {(i, i) for i in range(1, n + 1)} | {(i, i + 1) for i in range(1, n)}
    assert generic_rank(PatternMatrix(n, n, frozenset(entries | {(n, 1)}))) == n


@pytest.mark.parametrize("extra_input", [False, True], ids=["alone", "with one B column"])
def test_generic_rank_has_no_quadratic_cliff(extra_input):
    # bidiagonal plus a corner entry, without (1, 1): each row's augmenting
    # search walks back down the whole chain unless visited columns persist
    n = 10**5
    entries = {(i, i) for i in range(2, n + 1)} | {(i, i + 1) for i in range(1, n)} | {(n, 1)}
    p = PatternMatrix(n, n, frozenset(entries))
    if extra_input:
        p = p.hstack(PatternMatrix(n, 1, frozenset({(1, 1)})))
    assert generic_rank(p) == n


def test_generic_rank_matches_scipy_matching():
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    rng = np.random.default_rng(2024)
    for _ in range(1000):
        rows, cols = (int(10 ** (4 * rng.random() ** 3)) for _ in range(2))  # 1 .. 10^4, mostly small
        nnz = int(rng.uniform(0.3, 2.5) * max(rows, cols))
        keys = np.unique(rng.integers(0, cols, nnz) * rows + rng.integers(0, rows, nnz))
        r, c = keys % rows, keys // rows  # distinct, by column and then row
        p = PatternMatrix._trusted(rows, cols, r + 1, c + 1)
        graph = csr_array((np.ones(len(r)), (r, c)), shape=(rows, cols))
        assert generic_rank(p) == int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())


def test_generic_rank_matches_oracle_and_exact_rank():
    """The term rank equals the matching oracle's, and the rank mod p = 2^31 - 1 of a realization whose nonzeros
    are drawn from [1, p), on all 100 patterns."""
    rng = np.random.default_rng(55)
    for t in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        p = random_pattern(rng, rows, cols, float(rng.uniform(0.1, 0.7)))
        grank = generic_rank(p)
        assert grank == oracle_term_rank(p)
        assert grank <= min(rows, cols)
        values = [[0] * cols for _ in range(rows)]
        for i, j in sorted(p.nonzeros):
            values[i - 1][j - 1] = int(rng.integers(1, 2**31 - 1))
        assert oracle_gf_rank(values, 2**31 - 1) == grank, (t, p)


@given(st.integers(0, 10_000))
@settings(max_examples=50)
def test_generic_rank_bounded_by_shape(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 8))
    cols = int(rng.integers(1, 8))
    p = random_pattern(rng, rows, cols, 0.4)
    assert 0 <= generic_rank(p) <= min(rows, cols)


# --- irreducibility and controllability -----------------------------------------

def test_irreducible_golden(example1_a, example1_b):
    assert not is_irreducible(example1_a, example1_b)
    full_column = PatternMatrix(5, 1, frozenset((i, 1) for i in range(1, 6)))
    assert is_irreducible(example1_a, full_column)
    assert is_irreducible(example1_a, example1_b.with_entry(5, 1))


def test_irreducible_needs_inputs(example1_a):
    with pytest.raises(ValueError, match="at least one input column"):
        is_irreducible(example1_a, PatternMatrix.zeros(5, 0))
    # a missing input pattern is n-by-0, as everywhere else; the pair's shape is checked first
    with pytest.raises(ValueError, match="^irreducibility needs at least one input column$"):
        is_irreducible(example1_a, None)
    with pytest.raises(ValueError, match="^state pattern must be square, got 2x3$"):
        is_irreducible(PatternMatrix(2, 3), PatternMatrix.zeros(2, 0))


def test_generically_controllable_example1(example1_a, example1_b):
    report = is_generically_controllable(example1_a, example1_b)
    assert not report.verdict
    assert report.failed_condition == "irreducibility"
    assert report.unreachable_states == frozenset({"x5"})


def test_generically_controllable_scalar():
    a = PatternMatrix(1, 1, frozenset({(1, 1)}))
    b = PatternMatrix(1, 1, frozenset({(1, 1)}))
    report = is_generically_controllable(a, b)
    assert report.verdict and report.failed_condition is None


def test_generically_controllable_after_adding_b51(example1_a, example1_b):
    report = is_generically_controllable(example1_a, example1_b.with_entry(5, 1))
    assert report.verdict
    assert report.generic_rank == 5


def test_rank_condition_failure_is_reported():
    # dilation: x2 and x3 are both fed only by x1, so everything is reachable
    # (u1 -> x1 -> {x2, x3}) yet rows 2 and 3 of [A B] share their one column
    a = PatternMatrix(3, 3, frozenset({(2, 1), (3, 1)}))
    b = PatternMatrix(3, 1, frozenset({(1, 1)}))
    assert is_irreducible(a, b)
    report = is_generically_controllable(a, b)
    assert not report.verdict
    assert report.failed_condition == "generic-rank"
    assert report.generic_rank == 2
    assert report.unreachable_states == frozenset()


# --- zero controllability ---------------------------------------------------------

def test_zero_controllable_example1(example1_a, example1_b):
    report = is_generically_zero_controllable(example1_a, example1_b)
    assert not report.verdict
    assert report.unreachable_states == frozenset({"x5"})
    assert report.reachable_states == frozenset({"x1", "x2", "x3", "x4"})
    assert report.cycle_witness == (("x5", "x5"),)
    assert report.nontrivial_unreachable_components == (frozenset({"x5"}),)


def test_zero_controllable_after_removing_a55(example1_a, example1_b):
    report = is_generically_zero_controllable(example1_a.without_entry(5, 5), example1_b)
    assert report.verdict
    assert report.cycle_witness is None


def test_zero_controllable_acyclic_without_inputs():
    p = PatternMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    report = is_generically_zero_controllable(p)
    assert report.verdict
    assert report.reachable_states == frozenset()
    assert report.unreachable_states == frozenset({"x1", "x2", "x3"})


def test_zero_controllable_consistency_with_components():
    for p in random_square_patterns(seed=99, count=60, max_n=7):
        rng = np.random.default_rng(hash(p.nonzeros) % 2**32)
        m = int(rng.integers(0, 3))
        b = random_pattern(rng, p.n_rows, m, 0.5) if m else None
        report = is_generically_zero_controllable(p, b)
        scc = scc_decompose(build_graph(p, b))
        blocked = [
            c
            for c, nt in zip(scc.components, scc.nontrivial)
            if nt and c <= report.unreachable_states
        ]
        assert report.verdict == (not blocked)
        assert report.reachable_states | report.unreachable_states == set(
            f"x{i}" for i in range(1, p.n_rows + 1)
        )
        assert not report.reachable_states & report.unreachable_states
        if not report.verdict:
            # the witness must be a genuine cycle inside the unreachable part
            witness = report.cycle_witness
            assert witness is not None
            assert witness[0][0] == witness[-1][1]
            for src, dst in witness:
                assert src in report.unreachable_states
                assert dst in report.unreachable_states
                assert (int(src[1:]), int(dst[1:])) in build_graph(p).state_edges


# --- reducible decomposition --------------------------------------------------------

def test_decomposition_example1(example1_a, example1_b):
    decomp = reducible_decomposition(example1_a, example1_b)
    assert decomp.permutation == (1, 2, 3, 4, 5)
    assert (decomp.n_reachable, decomp.n_unreachable) == (4, 1)
    assert decomp.a22 == PatternMatrix(1, 1, frozenset({(1, 1)}))
    assert decomp.b1.shape == (4, 1)
    assert decomp.b1.nonzeros == frozenset({(4, 1)})


def test_decomposition_irreducible_pair(example1_a, example1_b):
    decomp = reducible_decomposition(example1_a, example1_b.with_entry(5, 1))
    assert decomp.n_unreachable == 0
    assert decomp.a22.shape == (0, 0)


def test_decomposition_example2_with_drivers(example2_a):
    from zerocontrol import build_b_pattern

    b = build_b_pattern(11, {"x4", "x8"}, "per_driver").pattern
    decomp = reducible_decomposition(example2_a, b)
    # x9..x11 have no incoming edges, so they stay unreachable; their block
    # carries no entries, which is exactly why the verdict is still positive
    assert decomp.n_unreachable == 3
    assert decomp.permutation[-3:] == (9, 10, 11)
    assert decomp.a22 == PatternMatrix.zeros(3, 3)
    assert is_generically_zero_controllable(example2_a, b).verdict


def test_decomposition_round_trip_random():
    for p in random_square_patterns(seed=17, count=50, max_n=7):
        rng = np.random.default_rng(len(p.nonzeros) * 1000 + p.n_rows)
        m = int(rng.integers(0, 3))
        b = random_pattern(rng, p.n_rows, m, 0.4) if m else None
        decomp = reducible_decomposition(p, b)
        n1, n2 = decomp.n_reachable, decomp.n_unreachable
        assert n1 + n2 == p.n_rows
        assert sorted(decomp.permutation) == list(range(1, p.n_rows + 1))

        perm = list(decomp.permutation)
        permuted_a = p.reindex(perm, perm)
        permuted_b = (b or PatternMatrix.zeros(p.n_rows, 0)).reindex(perm)
        expect_a, expect_b = decomp.permuted_pair()
        assert permuted_a == expect_a
        assert permuted_b == expect_b
        # the lower-left state block and the lower input block are exactly zero
        for i, j in permuted_a.nonzeros:
            assert not (i > n1 and j <= n1)
        for i, _ in permuted_b.nonzeros:
            assert i <= n1
        # the leading pair is irreducible whenever it has inputs
        if n1 and permuted_b.n_cols:
            assert is_irreducible(decomp.a11, decomp.b1)


def test_decomposition_equals_the_submatrix_reference():
    """The adapter over the graph's reachable split gives the permutation and
    blocks that cutting with ``submatrix`` gives, on 200 seeded pairs."""
    rng = np.random.default_rng(26)
    shapes = set()
    for _ in range(200):
        n = int(rng.integers(0, 30))
        m = int(rng.integers(0, 3))
        a = sparse_pattern(rng, n, n, int(rng.uniform(0.5, 2.0) * n))
        b = sparse_pattern(rng, n, m, int(rng.integers(1, 4))) if m else None
        decomp = reducible_decomposition(a, b)
        assert decomp == oracle_reducible_decomposition(a, b)
        shapes.add((decomp.n_reachable > 0, decomp.n_unreachable > 0))
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}
