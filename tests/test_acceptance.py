"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from zerocontrol import (
    DEFAULT_BASE_SEED,
    EdgeSymbol,
    PathMonomial,
    build_graph,
    compute_nu,
    count_nonzero_eigenvalues,
    deadbeat_steer,
    entry_paths,
    enumerate_minimal_driver_sets,
    greedy_driver_set,
    is_controllable_numeric,
    is_generically_zero_controllable,
    is_zero_controllable_numeric,
    minimal_driver_set,
    monte_carlo_verify,
    sample_realization,
    scc_decompose,
    steering_residual,
    validate_driver_set,
)
from zerocontrol.cli import run_cli
from zerocontrol.fileio import parse_pattern_file, serialize_pattern_file
from conftest import (
    EXAMPLE1_A,
    EXAMPLE1_B,
    EXAMPLE2_A,
    EXAMPLE2_B_PER_DRIVER,
    FIXTURE_DIR,
    random_pattern,
    random_square_patterns,
)
from oracles import oracle_minimum_driver_sets, oracle_nu


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_seconds is not None and elapsed >= budget_seconds:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {number} {status} [{elapsed:6.2f}s] {description}")


def test_criterion_1_five_node_analysis(tmp_path):
    with criterion(1, "5-node fixture: negative verdict, witness, and the a55 flip", 1.0):
        a, b = parse_pattern_file((FIXTURE_DIR / "example1.pat").read_text())
        report = is_generically_zero_controllable(a, b)
        assert not report.verdict
        assert report.unreachable_states == frozenset({"x5"})
        assert report.cycle_witness == (("x5", "x5"),)

        flipped = is_generically_zero_controllable(a.without_entry(5, 5), b)
        assert flipped.verdict

        assert run_cli(["analyze", str(FIXTURE_DIR / "example1.pat")]) == 1
        fixed = tmp_path / "example1_fixed.pat"
        fixed.write_text(serialize_pattern_file(a.without_entry(5, 5), b))
        assert run_cli(["analyze", str(fixed)]) == 0


def test_criterion_2_eleven_node_driver_selection():
    with criterion(2, "11-node fixture: minimum drivers, enumeration, validations", 1.0):
        a, b = parse_pattern_file((FIXTURE_DIR / "example2.pat").read_text())
        assert b is None

        sets = enumerate_minimal_driver_sets(a)
        assert all(ds.size == 2 for ds in sets)
        assert all("x4" in ds.drivers for ds in sets)
        listed = {tuple(ds.sorted_drivers()) for ds in sets}
        for expected in (("x4", "x8"), ("x4", "x9"), ("x4", "x10"), ("x4", "x11")):
            assert expected in listed
        assert minimal_driver_set(a).size == 2

        bad = validate_driver_set(a, {"x1", "x5"})
        assert not bad.valid
        assert set(bad.nontrivial_unreachable_components) == {
            frozenset({"x4"}),
            frozenset({"x6", "x7"}),
        }
        still_bad = validate_driver_set(a, {"x1", "x5", "x7"})
        assert not still_bad.valid
        assert still_bad.nontrivial_unreachable_components == (frozenset({"x4"}),)
        assert still_bad.uncovered_witness == (("x4", "x4"),)
        assert validate_driver_set(a, {"x4", "x5", "x6"}).valid

        assert run_cli(["select", str(FIXTURE_DIR / "example2.pat"), "--enumerate"]) == 0


def test_criterion_3_component_decomposition():
    with criterion(3, "5-node fixture: components, triviality, and the five order pairs"):
        scc = scc_decompose(build_graph(EXAMPLE1_A, EXAMPLE1_B))
        assert scc.components == (
            frozenset({"x1", "x2"}),
            frozenset({"x3"}),
            frozenset({"x4"}),
            frozenset({"x5"}),
        )
        assert scc.nontrivial == (True, False, False, True)
        expected_pairs = {
            (frozenset({"x5"}), frozenset({"x3"})),
            (frozenset({"x4"}), frozenset({"x3"})),
            (frozenset({"x3"}), frozenset({"x1", "x2"})),
            (frozenset({"x5"}), frozenset({"x1", "x2"})),
            (frozenset({"x4"}), frozenset({"x1", "x2"})),
        }
        actual_pairs = {
            (scc.components[a], scc.components[b]) for a, b in scc.order
        }
        assert actual_pairs == expected_pairs


def test_criterion_4_walk_monomials():
    with criterion(4, "entry (1,5) of the cubed 5-node pattern: exact monomials + numerics"):
        monomials = entry_paths(EXAMPLE1_A, 1, 5, 3)
        assert monomials == {
            PathMonomial((EdgeSymbol("a", 1, 1), EdgeSymbol("a", 1, 3), EdgeSymbol("a", 3, 5))),
            PathMonomial((EdgeSymbol("a", 1, 3), EdgeSymbol("a", 3, 5), EdgeSymbol("a", 5, 5))),
        }
        for i in range(20):
            r = sample_realization(EXAMPLE1_A, None, seed=DEFAULT_BASE_SEED + i)
            expected = np.linalg.matrix_power(r.a, 3)[0, 4]
            total = sum(m.evaluate(r.a) for m in monomials)
            assert total == pytest.approx(expected, rel=1e-9)


def test_criterion_5_nu_suite():
    with criterion(5, "nu: 100 random patterns vs oracle; fixtures; eigenvalue counts", 30.0):
        for p in random_square_patterns(seed=515, count=100, max_n=8):
            assert compute_nu(p) == oracle_nu(p)
        assert compute_nu(EXAMPLE1_A) == 3
        assert compute_nu(EXAMPLE2_A) == 7
        for pattern, nu in ((EXAMPLE1_A, 3), (EXAMPLE2_A, 7)):
            hits = sum(
                count_nonzero_eigenvalues(
                    sample_realization(pattern, None, seed=DEFAULT_BASE_SEED + i)
                )
                == nu
                for i in range(100)
            )
            assert hits >= 95


def test_criterion_6_driver_minimality_suite():
    with criterion(6, "drivers: 100 random patterns vs subset oracle; removal; greedy", 60.0):
        for p in random_square_patterns(seed=616, count=100, max_n=9):
            size, all_min_sets = oracle_minimum_driver_sets(p)
            exact = minimal_driver_set(p)
            assert exact.size == size
            assert exact.valid and exact.minimal
            assert frozenset(int(v[1:]) for v in exact.drivers) in all_min_sets
            for member in exact.drivers:
                assert not validate_driver_set(p, exact.drivers - {member}).valid
            greedy = greedy_driver_set(p)
            assert greedy.valid
            assert greedy.size >= exact.size


def test_criterion_7_monte_carlo_agreement():
    with criterion(7, "Monte Carlo: 100 seeded trials agree on all three fixtures", 30.0):
        cases = [
            (EXAMPLE1_A, EXAMPLE1_B, False),
            (EXAMPLE1_A.without_entry(5, 5), EXAMPLE1_B, True),
            (EXAMPLE2_A, EXAMPLE2_B_PER_DRIVER, True),
        ]
        for pattern_a, pattern_b, expected in cases:
            stats = monte_carlo_verify(pattern_a, pattern_b, trials=100)
            assert stats.zc_structural == expected
            assert stats.zc_agreements >= 95
            again = monte_carlo_verify(pattern_a, pattern_b, trials=100)
            assert again == stats  # deterministic under the seed contract


def test_criterion_8_deadbeat_steering():
    with criterion(8, "deadbeat: 100 seeded runs reach zero at horizon 11; identity 1e-9"):
        hits = 0
        for i in range(100):
            r = sample_realization(EXAMPLE2_A, EXAMPLE2_B_PER_DRIVER, seed=DEFAULT_BASE_SEED + i)
            rng = np.random.default_rng(DEFAULT_BASE_SEED + 10_000 + i)
            x0 = rng.standard_normal(11)
            x0 /= np.linalg.norm(x0)
            result = deadbeat_steer(r, x0, horizon=11)
            assert steering_residual(r, result) <= 1e-9
            if result.final_norm <= 1e-6:
                hits += 1
        assert hits >= 95


def test_criterion_9_test_family_consistency():
    with criterion(9, "each of the 400 single checks on 200 random systems is proven, or flagged and counted as "
                      "'no', with at most 1% flagged"):
        rng = np.random.default_rng(919)
        inconsistent = 0
        flagged = 0
        for t in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, 3))
            pattern_a = random_pattern(rng, n, n, float(rng.uniform(0.15, 0.6)))
            pattern_b = random_pattern(rng, n, m, 0.5) if m else None
            r = sample_realization(pattern_a, pattern_b, seed=DEFAULT_BASE_SEED + t)
            ctrl = is_controllable_numeric(r)
            zc = is_zero_controllable_numeric(r)
            for check in (ctrl, zc):
                if not check.consistent:
                    inconsistent += 1
                    flagged += 1
                    assert not check.verdict  # disagreement is resolved conservatively
        assert inconsistent <= 0.01 * 400
        assert flagged == inconsistent  # every disagreement is flagged, none hidden


def test_readme_library_block_does_what_its_comments_say():
    readme = (FIXTURE_DIR.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.S | re.M).group(1)
    names = {}
    exec(compile(block, "README.md (## Library)", "exec"), names)
    report, selection, stats = names["report"], names["selection"], names["stats"]
    assert not report.verdict and not report.reachable_states
    assert report.unreachable_states == {f"x{i}" for i in range(1, 6)}
    assert selection.drivers == frozenset({"x5"}) and selection.minimal and selection.valid
    assert (stats.trials, stats.zc_agreements, stats.zc_structural) == (100, 100, True)
