import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerocontrol import (
    PatternMatrix,
    build_graph,
    compute_nu,
    generic_rank,
    has_cycle,
    is_generically_controllable,
    is_generically_zero_controllable,
    is_irreducible,
    is_structurally_nilpotent,
    numeric_rank,
    reducible_decomposition,
    sample_realization,
    scc_decompose,
)
from conftest import random_pattern, random_square_patterns
from oracles import oracle_acyclic, oracle_nu, oracle_term_rank


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


def test_three_cycle_tests_agree_on_random_patterns():
    # three independent code paths: Kahn toposort, Tarjan components, matching
    for p in random_square_patterns(seed=2024, count=200, max_n=8):
        nilpotent = is_structurally_nilpotent(p)
        assert nilpotent == (compute_nu(p) == 0)
        assert nilpotent == (not has_cycle(build_graph(p)))
        assert nilpotent == oracle_acyclic(p)


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


def test_generic_rank_matches_oracle_and_numeric_rank():
    rng = np.random.default_rng(55)
    numeric_hits = 0
    trials = 100
    for t in range(trials):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        p = random_pattern(rng, rows, cols, float(rng.uniform(0.1, 0.7)))
        grank = generic_rank(p)
        assert grank == oracle_term_rank(p)
        assert grank <= min(rows, cols)
        # numeric rank of a realization agrees generically
        values = np.zeros((rows, cols))
        for i, j in p.nonzeros:
            values[i - 1, j - 1] = rng.uniform(0.1, 2.0) * (1 if rng.random() < 0.5 else -1)
        if numeric_rank(values) == grank:
            numeric_hits += 1
    assert numeric_hits >= 95


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
