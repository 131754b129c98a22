import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import numpy as np

from zerocontrol.cli import run_cli
from zerocontrol.fileio import serialize_pattern_file
from zerocontrol.patterns import PatternMatrix
from conftest import EXAMPLE1_A, EXAMPLE1_B, EXAMPLE2_A
from oracles import oracle_render_steering, oracle_steering_to_dict


@pytest.fixture
def example1_path(fixture_dir):
    return str(fixture_dir / "example1.pat")


@pytest.fixture
def example2_path(fixture_dir):
    return str(fixture_dir / "example2.pat")


@pytest.fixture
def example1_fixed_path(tmp_path):
    """Example 1 with the self-loop at x5 removed: verdict flips to yes."""
    path = tmp_path / "example1_fixed.pat"
    path.write_text(serialize_pattern_file(EXAMPLE1_A.without_entry(5, 5), EXAMPLE1_B))
    return str(path)


# --- analyze -------------------------------------------------------------------

def test_analyze_negative_verdict_exits_1(example1_path, capsys):
    code = run_cli(["analyze", example1_path])
    out = capsys.readouterr().out
    assert code == 1
    assert "generically zero controllable: no" in out
    assert "x5" in out
    assert "cycle witness: x5 -> x5" in out


def test_analyze_positive_verdict_exits_0(example1_fixed_path, capsys):
    code = run_cli(["analyze", example1_fixed_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "generically zero controllable: yes" in out


def test_analyze_acyclic_without_inputs(tmp_path, capsys):
    path = tmp_path / "acyclic.pat"
    path.write_text("n 3\na 2 1\na 3 2\n")
    code = run_cli(["analyze", str(path)])
    assert code == 0
    assert "generically zero controllable: yes" in capsys.readouterr().out


def test_analyze_json_prints_the_library_report(example1_path, capsys):
    from zerocontrol import is_generically_zero_controllable
    from zerocontrol.reports import zc_report_to_dict

    code = run_cli(["analyze", example1_path, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["command"] == "analyze"
    assert doc["report"] == zc_report_to_dict(is_generically_zero_controllable(EXAMPLE1_A, EXAMPLE1_B))


# --- select --------------------------------------------------------------------

def test_select_enumerates_minimum_sets(example2_path, capsys):
    code = run_cli(["select", example2_path, "--enumerate"])
    out = capsys.readouterr().out
    assert code == 0
    assert "drivers (2): x4 x8" in out
    for expected in ("{x4 x8}", "{x4 x9}", "{x4 x10}", "{x4 x11}"):
        assert expected in out
    assert "cardinality: minimum (exact search)" in out


def test_select_b_modes(example2_path, capsys):
    run_cli(["select", example2_path, "--b-mode", "per-driver"])
    per_driver = capsys.readouterr().out
    assert "b 4 1" in per_driver and "b 8 2" in per_driver
    run_cli(["select", example2_path, "--b-mode", "shared"])
    shared = capsys.readouterr().out
    assert "b 4 1" in shared and "b 8 1" in shared


def test_select_greedy(example2_path, capsys):
    code = run_cli(["select", example2_path, "--greedy"])
    out = capsys.readouterr().out
    assert code == 0
    assert "drivers (2):" in out
    assert "cardinality: minimum" not in out


def test_select_json(example2_path, capsys):
    code = run_cli(["select", example2_path, "--enumerate", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["driver_set"]["drivers"] == ["x4", "x8"]
    assert [d["drivers"] for d in doc["enumeration"]] == [
        ["x4", "x8"],
        ["x4", "x9"],
        ["x4", "x10"],
        ["x4", "x11"],
    ]
    assert doc["b_pattern"]["entries"] == [[4, 1], [8, 2]]


def test_select_json_prints_the_library_driver_sets(example2_path, capsys):
    from zerocontrol import build_b_pattern, enumerate_minimal_driver_sets
    from zerocontrol.reports import b_pattern_to_dict, driver_set_to_dict

    code = run_cli(["select", example2_path, "--format", "json", "--enumerate"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["command"] == "select"
    enumeration = enumerate_minimal_driver_sets(EXAMPLE2_A)
    assert doc["enumeration"] == [driver_set_to_dict(ds) for ds in enumeration]
    assert doc["driver_set"] == driver_set_to_dict(enumeration[0])
    bp = build_b_pattern(EXAMPLE2_A.n_rows, enumeration[0].drivers, "per_driver")
    assert doc["b_pattern"] == b_pattern_to_dict(bp)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_select_limit_past_sys_maxsize_lists_every_set(fmt, example2_path, capsys):
    """A limit above sys.maxsize means every set, as any limit above their
    number does: the same bytes as the default limit of 100."""
    outputs = []
    for limit in ("100", "99999999999999999999"):
        code = run_cli(["select", example2_path, "--enumerate", "--limit", limit, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


# --- verify --------------------------------------------------------------------

def test_verify_agreement_exits_0(example1_path, capsys):
    code = run_cli(["verify", example1_path, "--trials", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "structural verdict (zero controllable): no" in out
    assert "numeric agreement: 20/20" in out


def test_verify_with_drivers(example2_path, capsys):
    code = run_cli(["verify", example2_path, "--drivers", "x4,x8", "--trials", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "structural verdict (zero controllable): yes" in out


def test_verify_rejects_conflicting_inputs(example1_path, capsys):
    code = run_cli(["verify", example1_path, "--drivers", "x5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # no partial primary output
    assert "already declares an input pattern" in captured.err


def test_verify_json_prints_the_library_stats_with_controllability(example1_path, capsys):
    from zerocontrol import monte_carlo_verify
    from zerocontrol.reports import stats_to_dict

    argv = ["verify", example1_path, "--format", "json", "--check-controllability",
            "--trials", "12", "--seed", "31"]
    code = run_cli(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["command"] == "verify"
    stats = monte_carlo_verify(EXAMPLE1_A, EXAMPLE1_B, trials=12, base_seed=31, check_controllability=True)
    assert doc["stats"] == stats_to_dict(stats)
    assert doc["stats"]["ctrl_structural"] is not None and doc["stats"]["ctrl_agreements"] is not None


def test_verify_deterministic_output(example1_path, capsys):
    run_cli(["verify", example1_path, "--trials", "15", "--seed", "99"])
    first = capsys.readouterr().out
    run_cli(["verify", example1_path, "--trials", "15", "--seed", "99"])
    second = capsys.readouterr().out
    assert first == second


# --- simulate ------------------------------------------------------------------

def test_simulate_steers_to_zero(example2_path, capsys):
    code = run_cli(
        ["simulate", example2_path, "--drivers", "x4,x8", "--horizon", "11"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "final state norm:" in out
    final = float(out.splitlines()[1].split(":")[1])
    assert final <= 1e-6


def test_simulate_explicit_x0(example1_path, capsys):
    code = run_cli(["simulate", example1_path, "--x0", "1,0,0,0,0", "--horizon", "5"])
    assert code == 0
    assert "k=5" in capsys.readouterr().out


def test_simulate_rejects_wrong_x0_length(example1_path, capsys):
    code = run_cli(["simulate", example1_path, "--x0", "1,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "needs 5 comma-separated values" in captured.err


def _simulate_pattern(n: int, seed: int) -> str:
    """Up to 1.5n uniform state entries and three inputs, each at one random row."""
    rng = np.random.default_rng(seed)
    a = {(int(i), int(j)) for i, j in rng.integers(1, n + 1, size=(round(1.5 * n), 2))}
    b = {(int(rng.integers(1, n + 1)), j) for j in range(1, 4)}
    return serialize_pattern_file(PatternMatrix(n, n, frozenset(a)), PatternMatrix(n, 3, frozenset(b)))


def test_simulate_json_matches_the_per_float_document(tmp_path, monkeypatch, capsys):
    # the CLI hands the emitter the arrays, which it writes a row at a time;
    # the per-float lists of the same result print the same bytes
    from zerocontrol import cli

    n = 150
    path = tmp_path / "sim.pat"
    path.write_text(_simulate_pattern(n, 150))
    argv = ["simulate", str(path), "--format", "json"]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(cli, "steering_to_arrays", oracle_steering_to_dict)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == out
    assert len(json.loads(out)["steering"]["trajectory"]) == n + 1


SIMULATE_SHAPES = {  # pattern file, extra arguments, (controls, trajectory) shapes
    "no states": ("n 0\n", [], ((1, 0), (2, 0))),
    "no inputs": ("n 4\na 2 1\na 3 2\na 1 3\n", [], ((4, 0), (5, 4))),
    "horizon 1": (serialize_pattern_file(EXAMPLE1_A, EXAMPLE1_B), ["--horizon", "1"], ((1, 1), (2, 5))),
    "150 states, 3 inputs": (_simulate_pattern(150, 151), [], ((150, 3), (151, 150))),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("shape", list(SIMULATE_SHAPES))
def test_streamed_simulate_prints_the_reference_documents(shape, fmt, tmp_path, monkeypatch, capsys):
    """The streamed document is the reference encoder's output for the
    per-float document, and the text the per-scalar oracle's, on the shapes
    whose rows are empty and on a one-step horizon."""
    from zerocontrol import cli

    text, extra, shapes = SIMULATE_SHAPES[shape]
    path = tmp_path / "sim.pat"
    path.write_text(text)
    steered = []
    monkeypatch.setattr(cli, "deadbeat_steer",
                        lambda *args, steer=cli.deadbeat_steer: steered.append(steer(*args)) or steered[-1])
    assert run_cli(["simulate", str(path), "--format", fmt, *extra]) == 0
    [result] = steered
    assert (result.controls.shape, result.trajectory.shape) == shapes
    doc = {"command": "simulate", "seed": cli.DEFAULT_BASE_SEED, "steering": oracle_steering_to_dict(result)}
    expected = json.dumps(doc, indent=2, sort_keys=True) if fmt == "json" else oracle_render_steering(result)
    assert capsys.readouterr() == (expected + "\n", "")


def _traced_run(argv):
    """``run_cli(argv)``'s exit code and its traced peak memory."""
    tracemalloc.start()
    try:
        code = run_cli(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_json_holds_no_copy_of_the_document(tmp_path):
    """simulate --format json on 300 states with three inputs, as verify-mc's
    larger simulate job: its Gram is 300 x 900 floats (2.06 MB) and its
    document 2.0 MB of text.  The Gram is built in place and the document
    written a row at a time, so neither the whole document's floats nor its
    text is held: the peak read 4.9 MiB, where a three-copy Gram and the
    whole-document emitter read 8.1 MiB.  (Least squares copies the Gram with
    an allocator that tracemalloc does not see.)"""
    path, out = tmp_path / "sim.pat", tmp_path / "out.json"
    path.write_text(_simulate_pattern(300, 300))
    with open(out, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        code, peak = _traced_run(["simulate", str(path), "--format", "json"])
    assert code == 0
    assert out.stat().st_size > 2 * 10**6
    assert len(json.loads(out.read_text(encoding="utf-8"))["steering"]["trajectory"]) == 301
    assert peak < 6 * 2**20


def test_simulate_solves_on_the_reached_rows_with_no_matrix_power(example1_path, monkeypatch, capsys):
    # example1's input reaches x1..x4 and not x5, so least squares sees 4 rows; no n-by-n power is taken
    solved = []
    monkeypatch.setattr(np.linalg, "lstsq", lambda g, *args, solve=np.linalg.lstsq, **kw:
                        solved.append(g.shape) or solve(g, *args, **kw))
    monkeypatch.setattr(np.linalg, "matrix_power", lambda *args: pytest.fail("a matrix power was taken"))
    assert run_cli(["simulate", example1_path, "--horizon", "7"]) == 0
    assert "k=7" in capsys.readouterr().out
    assert solved == [(4, 7)]


SIMULATE_DIGEST = "72bf9c1330653d75bad51115ce3bef7a834c2cb779fd0e266ae48153ed1c60da"


def test_simulate_keeps_its_digest(fixture_dir, tmp_path, capsys):
    """The bytes of seeded simulate runs: the fixtures, and verify-mc-style shapes of 150 and 300 states with
    three inputs, whose inputs reach 89, 167 and 47 of their states.  They are the same under one and two BLAS
    threads (the CI runs this test under both); solving on the whole state printed other bytes under two
    threads for the first two."""
    shapes = {"sim150.pat": (150, 151), "sim300.pat": (300, 300), "sim300-few.pat": (300, 303)}
    for name, (n, seed) in shapes.items():
        (tmp_path / name).write_text(_simulate_pattern(n, seed))
    runs = [["example1.pat"], ["example1.pat", "--format", "json"], ["example1.pat", "--x0", "1,0,-2.5,0,1e-3"],
            ["example2.pat", "--drivers", "x4,x8", "--horizon", "11", "--format", "json"],
            *([str(tmp_path / name), "--format", "json"] for name in shapes)]
    digest = hashlib.sha256()
    for file, *rest in runs:
        assert run_cli(["simulate", str(fixture_dir / file), *rest]) == 0
        digest.update(hashlib.sha256(capsys.readouterr().out.encode()).digest())
    assert digest.hexdigest() == SIMULATE_DIGEST


def test_steering_text_sums_python_floats_as_numpy_scalars():
    from zerocontrol.numeric import SteeringResult
    from zerocontrol.reports import render_steering

    rng = np.random.default_rng(7)
    for case in range(40):
        horizon, n = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        scale = 10.0 ** rng.uniform(-20, 20, size=(horizon + 1, 1 if case % 2 else n))
        trajectory = rng.standard_normal((horizon + 1, n)) * scale
        special = rng.integers(0, horizon + 1, size=3)
        trajectory[special[0]] = np.inf
        trajectory[special[1], int(rng.integers(n))] = np.nan
        trajectory[special[2], int(rng.integers(n))] = -np.inf
        result = SteeringResult(np.zeros((horizon, 1)), trajectory, float(rng.random()), horizon)
        assert render_steering(result) == oracle_render_steering(result)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_simulate_refuses_a_steer_that_overflows(fmt, example1_path, capsys):
    assert run_cli(["simulate", example1_path, "--horizon", "2000", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: steering overflowed within horizon 2000 (controls or trajectory not finite)"
    ]


def _dense_pattern(path, n, fed=True):
    """Every a-entry of an n-state pattern, fed at x1 alone (or not at all)."""
    lines = [f"n {n}", "m 1"] + [f"a {i} {j}" for i in range(1, n + 1) for j in range(1, n + 1)] + ["b 1 1"] * fed
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_verify_decides_a_pair_whose_krylov_blocks_overflow_float64(tmp_path, capsys):
    # A^300 and the Krylov blocks overflow float64, which the float checks refused; exact trials decide it
    assert run_cli(["verify", _dense_pattern(tmp_path / "dense.pat", 300), "--trials", "1"]) == 0
    captured = capsys.readouterr()
    assert "structural verdict (zero controllable): yes" in captured.out
    assert "numeric agreement: 1/1" in captured.out
    assert captured.err == ""


def test_verify_counts_an_overflowed_survivor_power_as_nonzero(tmp_path, capsys):
    # nothing is reached, so S = A, whose S^300 overflows float64; S^k v' != 0 mod p settles a "no", with no warning
    assert run_cli(["verify", _dense_pattern(tmp_path / "dense.pat", 300, fed=False), "--trials", "1"]) == 0
    captured = capsys.readouterr()
    assert "numeric agreement: 1/1" in captured.out
    assert captured.err == ""


def test_simulate_refuses_an_overflowed_steering_system_in_one_line(tmp_path):
    # the stacked matrix overflows to inf; LAPACK would refuse it, and some builds print to fd 2 first
    path, src = _dense_pattern(tmp_path / "dense.pat", 30), str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "zerocontrol.cli", "simulate", path, "--horizon", "400"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines() == [
        "error: steering overflowed within horizon 400 (controls or trajectory not finite)"
    ]


def test_simulate_refuses_a_final_norm_that_overflows(tmp_path, capsys):
    # the trajectory is finite, but the norm of its last state is not: JSON has no token for it
    assert run_cli(["simulate", _dense_pattern(tmp_path / "dense.pat", 200), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the final state norm overflows float64 within horizon 200"
    ]


TOO_DENSE = [
    (["simulate", "example1.pat", "--horizon", "1000000000000"],
     "n=5, m=1 over 1000000000000 steps needs 10000000000000 dense matrix entries, above the limit of 33554432"),
    (["simulate", "empty"],
     "n=100000, m=0 over 100000 steps needs 10000000000 dense matrix entries, above the limit of 33554432"),
]


@pytest.mark.parametrize("argv, error", TOO_DENSE, ids=[" ".join(argv) for argv, _ in TOO_DENSE])
def test_dense_work_past_the_limit_exits_2_before_allocating(argv, error, fixture_dir, tmp_path, capsys):
    """simulate over a horizon of 10^12 steps, and on an empty 10^5-state file."""
    empty = tmp_path / "empty"
    empty.write_text("n 100000\n")
    path = tmp_path / argv[1] if argv[1] == "empty" else fixture_dir / argv[1]
    code, peak = _traced_run([argv[0], str(path), *argv[2:]])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert peak < 16 * 2**20  # the pattern, its parse and its graph's reach; no realization or matrix power


@pytest.mark.parametrize("flags", [[], ["--check-controllability", "--format", "json"]], ids=["text", "json"])
def test_verify_refuses_nothing_for_one_input(flags, tmp_path, capsys):
    """A 10^5-state file whose one input feeds 200 states: the exact trials
    make nothing dense for one input, so all 100 trials run and agree."""
    fed = tmp_path / "fed"
    fed.write_text("n 100000\nm 1\n" + "".join(f"b {i} 1\n" for i in range(1, 201)))
    code, peak = _traced_run(["verify", str(fed), *flags])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    if flags:
        stats = json.loads(captured.out)["stats"]
        assert (stats["zc_structural"], stats["zc_agreements"], stats["ctrl_structural"], stats["ctrl_agreements"],
                stats["inconsistent_trials"]) == (True, 100, False, 100, 0)
    else:
        assert "numeric agreement: 100/100 (100.0%)" in captured.out
    assert peak < 16 * 2**20


def test_verify_refuses_nothing_for_two_inputs(tmp_path, capsys):
    """A 4000-state pair whose two inputs feed every state between them, which
    verify once refused for the elimination of its 4000 reached rows: a trial
    now decides it through feedback, K x and K^T y of two rows, and agrees,
    though no n1 x n1 matrix is made (one is 122 MiB)."""
    wide = tmp_path / "wide"
    wide.write_text("n 4000\nm 2\n" + "".join(f"b {i} {1 + (i > 2000)}\n" for i in range(1, 4001)))
    code, peak = _traced_run(["verify", str(wide), "--trials", "1", "--check-controllability", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    stats = json.loads(captured.out)["stats"]
    assert (stats["zc_structural"], stats["zc_agreements"], stats["ctrl_structural"], stats["ctrl_agreements"],
            stats["inconsistent_trials"]) == (True, 1, False, 1, 0)
    assert peak < 16 * 2**20


def test_verify_makes_only_the_reached_block_dense(tmp_path, capsys):
    """A 6000-state pair whose input reaches a chain of 8 states, followed by
    an unreached acyclic tail of 5992: verify makes no 6000 x 6000 matrix,
    and the tail settles both verdicts exactly."""
    n = 6000
    path = tmp_path / "tail.pat"
    path.write_text(f"n {n}\nm 1\nb 1 1\n" + "".join(f"a {i + 1} {i}\n" for i in range(1, n) if i != 8))
    code, peak = _traced_run(["verify", str(path), "--trials", "5", "--check-controllability", "--format", "json"])
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert code == 0
    assert (stats["zc_structural"], stats["zc_agreements"], stats["ctrl_structural"], stats["ctrl_agreements"]) == (
        True, 5, False, 5)
    assert stats["inconsistent_trials"] == 0
    assert peak < 64 * 2**20  # one 6000 x 6000 matrix alone takes 275 MiB


def test_verify_memory_stays_flat_when_the_draws_outweigh_the_dense_blocks(tmp_path, capsys):
    """A 10^5-state chain of 2^15 entries with no inputs makes nothing dense,
    but each trial draws two values per entry: 200 trials run in chunks that
    keep the draws near 2^18 entries, not in one chunk of 200 x 2^16 draws
    (100 MiB, several times over in the sampler's temporaries)."""
    path = tmp_path / "chain.pat"
    path.write_text("n 100000\n" + "".join(f"a {i + 1} {i}\n" for i in range(1, 2**15 + 1)))
    code, peak = _traced_run(["verify", str(path), "--trials", "200", "--format", "json"])
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert code == 0
    assert (stats["zc_structural"], stats["zc_agreements"], stats["inconsistent_trials"]) == (True, 200, 0)
    assert peak < 32 * 2**20


def test_simulate_default_horizon_is_at_least_one(tmp_path, capsys):
    path = tmp_path / "empty.pat"
    path.write_text("n 0\n")
    assert run_cli(["simulate", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("horizon: 1\n") and captured.err == ""
    assert run_cli(["simulate", str(path), "--horizon", "0"]) == 2
    assert capsys.readouterr().err == "error: horizon must be >= 1, got 0\n"
    # the horizon is refused before the size check, which prints the horizon it was given
    path.write_text("n 100000\n")
    assert run_cli(["simulate", str(path), "--horizon", "0"]) == 2
    assert capsys.readouterr() == ("", "error: horizon must be >= 1, got 0\n")
    assert run_cli(["simulate", str(path), "--horizon", "7"]) == 2
    assert capsys.readouterr() == ("", "error: n=100000, m=0 over 7 steps needs 10000000000 dense matrix entries, "
                                       "above the limit of 33554432\n")


# --- export-dot ----------------------------------------------------------------

def test_export_dot_example1(example1_path, capsys):
    code = run_cli(["export-dot", example1_path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph system {")
    assert "x5 -> x5;" in out
    assert "fillcolor=lightpink" in out  # x5 unreachable


def test_export_dot_with_drivers(example2_path, capsys):
    code = run_cli(["export-dot", example2_path, "--drivers", "x4,x8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "x4 [shape=doublecircle" in out
    # x9..x11 only feed into the system, so the drivers cannot reach them;
    # every cycle-bearing state is reached
    assert "x9 [style=filled, fillcolor=lightpink];" in out
    assert "x7 [style=filled, fillcolor=palegreen];" in out


def test_export_dot_notes_that_drivers_replace_the_file_inputs(example1_path, capsys):
    code = run_cli(["export-dot", example1_path, "--drivers", "x5"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == "note: --drivers colors reachability from the drivers; input entries ignored\n"
    assert "x5 [shape=doublecircle" in out and "u1" not in out


def test_export_dot_draws_from_state_ids(tmp_path, monkeypatch, capsys):
    # no report is built on the way: the condensation keeps state ids, the
    # states are named once, in the DOT lines, and each typed driver is
    # parsed once
    from zerocontrol import build_graph, export_dot, is_generically_zero_controllable, validate_driver_set
    from zerocontrol import cli, dotexport, drivers, graph as graph_module, structural
    from conftest import sparse_pattern

    pattern = sparse_pattern(np.random.default_rng(5), 60, 60, 90)
    inputs = PatternMatrix(60, 2, frozenset({(4, 1), (31, 2)}))
    path = tmp_path / "sixty.pat"
    path.write_text(serialize_pattern_file(pattern, inputs))
    graphs = build_graph(pattern, inputs), build_graph(pattern)
    reports = is_generically_zero_controllable(pattern, inputs), validate_driver_set(pattern, {"x2", "x17", "x44"})
    cases = [([], 0), (["--drivers", "x2,x17,x44"], 3)]
    expected = [export_dot(graph, graph.condensation, report) for graph, report in zip(graphs, reports)]

    names, parsed = [], []
    named, parse = graph_module.state_name, graph_module._parse_vertex

    def forbidden(*args):
        raise AssertionError("export-dot ran the obstruction")

    for module in (graph_module, structural, drivers, dotexport, cli):
        for attr, spy in (("state_name", lambda i: names.append(i) or named(i)),
                          ("_parse_vertex", lambda v: parsed.append(v) or parse(v)),
                          ("_obstruction", forbidden)):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, spy)
    for (extra, typed), dot in zip(cases, expected):
        names.clear()
        parsed.clear()
        assert run_cli(["export-dot", str(path), *extra]) == 0
        assert capsys.readouterr().out == dot
        assert len(names) <= 60
        assert len(parsed) <= typed


# --- errors and exit codes --------------------------------------------------------

def test_missing_file_exits_2(capsys):
    code = run_cli(["analyze", "/nonexistent/nowhere.pat"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error:" in captured.err


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.pat"
    path.write_text("n 5\na 6 1\n")
    code = run_cli(["analyze", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "row 6 exceeds n=5" in captured.err


@pytest.mark.parametrize("command", ["analyze", "select", "export-dot"])
def test_out_of_memory_exits_2_with_one_line(command, example2_path, monkeypatch, capsys):
    def exhausted(*args, detail=""):
        raise MemoryError(detail)

    monkeypatch.setattr("zerocontrol.graph._csr_of", lambda *args: exhausted(detail="Unable to allocate"))
    assert run_cli([command, example2_path]) == 2
    assert capsys.readouterr() == ("", "error: out of memory (Unable to allocate)\n")
    monkeypatch.setattr("zerocontrol.cli._cmd_analyze", exhausted)
    assert run_cli(["analyze", example2_path]) == 2
    assert capsys.readouterr() == ("", "error: out of memory (allocation failed)\n")


def test_a_size_past_the_address_space_exits_2(tmp_path):
    """n = 10^11 states need an 800 GB CSR; under a 4 GB address-space limit
    the allocation fails at once, without touching memory."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "huge.pat"
    path.write_text("n 100000000000\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "zerocontrol.cli", "analyze", str(path)], env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (4 * 10**9, 4 * 10**9)),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory (") and proc.stderr.count("\n") == 1


def test_usage_error_exits_2():
    assert run_cli(["frobnicate"]) == 2
    assert run_cli([]) == 2
    assert run_cli(["analyze"]) == 2


def test_help_exits_0():
    assert run_cli(["--help"]) == 0


def test_one_parser_serves_every_call(example1_path, example2_path, monkeypatch, capsys):
    """Calls in one process, a usage error among them, build the parser at
    most once and print what the same calls print one process each."""
    argvs = [
        ["select", example2_path, "--greedy", "--format", "json"],
        ["analyze", example1_path, "--format", "xml"],
        ["select", example2_path],
        ["analyze", example1_path],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    separate = [
        subprocess.run([sys.executable, "-m", "zerocontrol.cli", *argv], env=env,
                       capture_output=True, text=True, timeout=120)
        for argv in argvs
    ]
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    printed, builds = [], []
    for argv in argvs:
        printed.append((run_cli(argv), *capsys.readouterr()))
        builds.append(len(built))
    assert printed == [(p.returncode, p.stdout, p.stderr) for p in separate]
    assert printed[1][0] == 2 and "invalid choice: 'xml'" in printed[1][2]
    # the first call may build the parser and its five subparsers; no later one builds any
    assert builds[0] in (0, 6) and builds == builds[:1] * len(argvs)


# --- indented JSON -------------------------------------------------------------------

_FLOATS = [-0.0, 0.0, 5e-324, 1e308, -1e308, float("nan"), float("inf"), float("-inf"), 0.1, 1e16]
_INTS = [0, -1, 7, 2**63, -(2**63) - 1, 10**30]
_PIECES = ["", ", ", ",\n  ", ": ", "[", "]", "{", "}", '"', "\\", "\x00\x1f\t\n", "é", "中文", "\U0001f600", "\u2028", "x12"]


def _random_document(rng: random.Random, depth: int):
    """The document forms: scalars at the edges of what JSON prints, inside
    lists and str-keyed dicts, and now and then a 2-D float array."""
    if depth == 0 or rng.random() < 0.45:
        kind = rng.randrange(7)
        if kind == 5 and rng.random() < 0.1:  # each dimension may be 0
            shape = rng.randrange(4), rng.randrange(4)
            return np.array([rng.choice(_FLOATS) for _ in range(shape[0] * shape[1])]).reshape(shape)
        if kind == 0:
            return rng.choice(_FLOATS) if rng.random() < 0.5 else rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300)
        if kind == 1:
            return rng.choice(_INTS) if rng.random() < 0.5 else rng.randint(-10**6, 10**6)
        if kind == 2:
            return rng.random() < 0.5
        if kind == 3:
            return None
        return "".join(rng.choice(_PIECES) for _ in range(rng.randrange(4)))
    values = [_random_document(rng, depth - 1) for _ in range(rng.randrange(5))]
    if rng.random() < 0.5:
        return values
    return {"".join(rng.choice(_PIECES) for _ in range(3)) + str(i): value for i, value in enumerate(values)}


def test_indented_emitter_prints_what_the_reference_encoder_prints(monkeypatch):
    from zerocontrol import cli

    arrays, dumps = Counter(), cli._dumps

    def counted(doc, *pad):
        if type(doc) is np.ndarray:
            arrays[min(doc.shape)] += 1
        return dumps(doc, *pad)

    monkeypatch.setattr(cli, "_dumps", counted)
    args = argparse.Namespace(format="json")
    rng = random.Random(2024)
    for _ in range(10_000):
        doc = {"doc": _random_document(rng, 5)} if rng.random() < 0.5 else _random_document(rng, 5)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(args, None, lambda: doc)
        assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"
    assert arrays[0] > 100 and sum(arrays.values()) > 300, arrays  # arrays with no rows or empty rows, and filled ones
    # any other form is a bug in the caller, not a document: there is no second encoder to hand it to
    for doc in (np.float64(0.5), {"a": [1, np.float64(0.5)]}, (1, 2), {1: "a"}, np.zeros(3)):
        with pytest.raises(TypeError, match="^no indented emitter for "):
            cli._emit(args, None, lambda: doc)


JSON_COMMANDS = [
    ["analyze"], ["select"], ["select", "--enumerate"], ["select", "--greedy", "--b-mode", "shared"],
    ["verify", "--trials", "5", "--check-controllability"], ["simulate"], ["simulate", "--horizon", "3"],
    ["select", "--enumerate", "--exact-cap", "0"],
]

#: edge cases of the document forms: no states at all, and no inputs, where simulate prints H-by-0 controls
_EDGE_FILES = {"n0.pat": "n 0\n", "input-free.pat": "n 3\na 1 1\na 2 1\na 3 2\n"}


@pytest.mark.parametrize("fixture", ["example1.pat", "example2.pat", *_EDGE_FILES])
@pytest.mark.parametrize("command", JSON_COMMANDS, ids=" ".join)
def test_json_output_matches_the_reference_encoder(command, fixture, fixture_dir, tmp_path, monkeypatch, capsys):
    from zerocontrol import cli

    path = fixture_dir / fixture
    if fixture in _EDGE_FILES:
        (path := tmp_path / fixture).write_text(_EDGE_FILES[fixture])
    argv = [command[0], str(path), *command[1:], "--format", "json"]
    printed = (run_cli(argv), *capsys.readouterr())
    monkeypatch.setattr(cli, "_dumps", lambda doc: [json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist)])
    assert (run_cli(argv), *capsys.readouterr()) == printed
    assert printed[1].startswith("{\n")


# --- imports -----------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "example1.pat"],
        ["select", "example2.pat", "--enumerate"],
        ["verify", "example1.pat", "--trials", "3", "--check-controllability"],
        ["simulate", "example2.pat", "--drivers", "x4,x8"],
        ["export-dot", "example2.pat", "--drivers", "x4,x8"],
    ],
    ids=lambda argv: argv[0],
)
def test_subcommands_do_not_import_scipy(argv, fixture_dir):
    """scipy is only needed by compute_nu, which no subcommand calls."""
    argv = [argv[0], str(fixture_dir / argv[1]), *argv[2:]]
    script = (
        "import contextlib, io, sys\n"
        "from zerocontrol.cli import run_cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run_cli({argv!r})\n"
        "assert code in (0, 1), code\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["analyze", "example1.pat"], ["select", "example2.pat", "--enumerate"],
     ["export-dot", "example2.pat", "--drivers", "x4,x8"],
     ["verify", "example1.pat", "--trials", "3", "--check-controllability"],
     ["verify", "example2.pat", "--drivers", "x4,x8"],
     ["simulate", "example1.pat"], ["simulate", "example1.pat", "--x0", "1,0,-2.5,0,1e-3"],
     ["simulate", "example2.pat", "--drivers", "x4,x8", "--horizon", "11"]],
    ids=["analyze", "select", "export-dot", "verify-example1", "verify-example2", "simulate-example1",
         "simulate-example1-x0", "simulate-example2"],
)
def test_no_subcommand_loads_a_numpy_submodule(argv, fixture_dir):
    """No subcommand needs anything that importing the CLI did not load
    (np.unique without its index outputs, for one, would load numpy.ma).
    ``verify`` and ``simulate`` compute numpy's SeedSequence/PCG64 words, and
    ``simulate`` its uniform and normal draws from them, so they load neither
    numpy.random nor the secrets and hashlib modules that numpy.random
    imports.  On numpy < 2, importing numpy loads all three already.
    Importing the CLI does not load the ziggurat tables of the normal draws."""
    argv = [argv[0], str(fixture_dir / argv[1]), *argv[2:]]
    script = (
        "import contextlib, io, sys\n"
        "from zerocontrol.cli import run_cli\n"
        "before = set(sys.modules)\n"
        "assert 'zerocontrol._ziggurat' not in before\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run_cli({argv!r})\n"
        "assert code in (0, 1), code\n"
        "loaded = [m for m in set(sys.modules) - before if m.startswith(('numpy', 'scipy', 'hashlib', 'secrets'))]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# --- one-line diagnostics ------------------------------------------------------------

def test_exact_cap_warning_is_one_line(example2_path, capsys):
    assert run_cli(["select", example2_path, "--greedy"]) == 0
    greedy = capsys.readouterr().out
    assert run_cli(["select", example2_path, "--exact-cap", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == greedy
    assert captured.err == (
        "warning: 3 coverage classes in one independent block exceed the exact-search cap of 1; "
        "returning a greedy (possibly non-minimal) driver set\n"
    )


def test_duplicate_entry_warning_is_one_line(tmp_path, capsys):
    clean, dup, bad = tmp_path / "clean.pat", tmp_path / "dup.pat", tmp_path / "bad.pat"
    clean.write_text("n 2\na 1 1\na 2 1\n")
    dup.write_text("n 2\na 1 1\na 1 1\na 2 1\n")
    bad.write_text("n 2\na 1 1\na 1 1\na 3 3\n")
    assert run_cli(["analyze", str(clean)]) == 1
    expected = capsys.readouterr().out
    assert run_cli(["analyze", str(dup)]) == 1
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == "warning: line 3: duplicate entry 'a 1 1' collapsed\n"
    assert run_cli(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: line 3: duplicate entry 'a 1 1' collapsed",
        "error: line 4: row 3 exceeds n=2 in entry 'a 3 3'",
    ]


@pytest.mark.parametrize("limit", [[], ["--limit", "1"]], ids=["no limit", "limit 1"])
def test_enumerate_past_the_exact_cap_lists_the_greedy_set_only(limit, example2_path, capsys):
    """Past the cap, ``--enumerate`` lists the greedy set, which is neither all sets nor proven minimum: its text
    header says so, under any limit, and its JSON is unchanged, ``minimal: false`` already saying so."""
    argv = ["select", example2_path, "--enumerate", "--exact-cap", "0", *limit]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "\n\ngreedy driver set only, not an enumeration:\n  {x4 x8}\n\n" in out
    assert "all minimum" not in out and "minimum (exact search)" not in out
    assert run_cli([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["enumeration"] == [doc["driver_set"]] and doc["driver_set"]["minimal"] is False
    assert run_cli(["select", example2_path, "--enumerate", *limit]) == 0
    assert "\n\nall minimum driver sets" + (" (limit 1)" if limit else "") + ":\n  {x4 x8}\n" in capsys.readouterr().out


def test_negative_exact_cap_exits_2(example2_path, capsys):
    assert run_cli(["select", example2_path, "--exact-cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exact_cap must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "args, error",
    [
        (["--greedy", "--exact-cap", "-1"], "exact_cap must be >= 0, got -1"),
        (["--limit", "0"], "limit must be >= 1, got 0"),
        (["--greedy", "--limit", "0"], "limit must be >= 1, got 0"),
    ],
    ids=["greedy negative cap", "limit 0", "greedy limit 0"],
)
def test_select_checks_its_options_in_every_mode(args, error, example2_path, capsys):
    assert run_cli(["select", example2_path, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


BAD_INPUTS = [
    (["verify", "example1.pat", "--min-agreement", "2"], "min_agreement must be in [0, 1], got 2.0"),
    (["verify", "example1.pat", "--min-agreement", "-1"], "min_agreement must be in [0, 1], got -1.0"),
    (["verify", "example1.pat", "--min-agreement", "nan"], "min_agreement must be in [0, 1], got nan"),
    (["verify", "example1.pat", "--tol", "nan"], "tol must lie in (0, 1), got nan"),
    (["verify", "example1.pat", "--tol", "inf"], "tol must lie in (0, 1), got inf"),
    (["verify", "example1.pat", "--tol", "inf", "--check-controllability"], "tol must lie in (0, 1), got inf"),
    # no eigenvalue exceeds 1 * (1 + spectral radius), so every Hautus test would pass vacuously
    (["verify", "example1.pat", "--tol", "1"], "tol must lie in (0, 1), got 1.0"),
    (["simulate", "example1.pat", "--x0", "1,2,nan,0,0", "--format", "json"],
     "--x0 values must be finite, got 1,2,nan,0,0"),
    (["simulate", "example1.pat", "--x0", "0,0,0,0,-inf"], "--x0 values must be finite, got 0,0,0,0,-inf"),
    (["verify", "example2.pat", "--drivers", "u1"], "driver vertices must be states, got 'u1'"),
    (["simulate", "example2.pat", "--drivers", "x4,u1"], "driver vertices must be states, got 'u1'"),
    (["export-dot", "example2.pat", "--drivers", "u1"], "driver vertices must be states, got 'u1'"),
    (["verify", "example2.pat", "--drivers", "\u0664"], "unknown vertex '\u0664' (pattern has 11 states)"),
    (["verify", "example2.pat", "--drivers="], "empty driver list"),
    (["simulate", "example2.pat", "--drivers="], "empty driver list"),
    (["export-dot", "example2.pat", "--drivers="], "empty driver list"),
    (["verify", "example2.pat", "--drivers", "x4,x12"], "unknown vertex 'x12' (pattern has 11 states)"),
    (["simulate", "example2.pat", "--drivers", "x12"], "unknown vertex 'x12' (pattern has 11 states)"),
    (["export-dot", "example2.pat", "--drivers", "x12"], "unknown vertex 'x12' (pattern has 11 states)"),
    # a bad driver list on a file with inputs is refused before the note that the inputs are ignored
    (["export-dot", "example1.pat", "--drivers", "u1"], "driver vertices must be states, got 'u1'"),
    (["export-dot", "example1.pat", "--drivers="], "empty driver list"),
    (["export-dot", "example1.pat", "--drivers", "x9"], "unknown vertex 'x9' (pattern has 5 states)"),
    # float() alone would read these as 1..5 and 10,1,1,1,1, or word the error without the option
    (["simulate", "example1.pat", "--x0", "\u0661,\u0662,\u0663,\u0664,\u0665"],
     "--x0 values must be numbers, got \u0661,\u0662,\u0663,\u0664,\u0665"),
    (["simulate", "example1.pat", "--x0", "1_0,1,1,1,1"], "--x0 values must be numbers, got 1_0,1,1,1,1"),
    (["simulate", "example1.pat", "--x0", "a,1,1,1,1"], "--x0 values must be numbers, got a,1,1,1,1"),
    (["simulate", "example1.pat", "--x0", "1,,1,1,1"], "--x0 values must be numbers, got 1,,1,1,1"),
    (["verify", "example1.pat", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["simulate", "example1.pat", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["select", "example2.pat", "--greedy", "--enumerate"],
     "--greedy and --enumerate cannot be combined: the greedy set is not enumerated"),
]


@pytest.mark.parametrize("argv, error", BAD_INPUTS, ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
def test_bad_numeric_and_driver_inputs_exit_2(argv, error, fixture_dir, capsys):
    assert run_cli([argv[0], str(fixture_dir / argv[1]), *argv[2:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("command", ["verify", "simulate", "export-dot"])
def test_bare_driver_indices_name_states(command, example2_path, capsys):
    outputs = []
    for drivers in ("x4,x8", "4,8", "04,08"):
        assert run_cli([command, example2_path, "--drivers", drivers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] and outputs[0]


def test_analyze_reads_a_byte_order_mark_as_absent(example1_path, tmp_path, capsys):
    bom = tmp_path / "bom.pat"
    bom.write_text("\ufeff" + Path(example1_path).read_text(encoding="utf-8"), encoding="utf-8")
    outputs = []
    for path in (example1_path, str(bom)):
        code = run_cli(["analyze", path])
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0] == outputs[1] and outputs[0][1]


# --- only the printed document is built ----------------------------------------------

RENDERERS = {
    "analyze": (["render_zc_report"], ["zc_report_to_dict"]),
    "select": (["render_driver_set", "render_b_pattern"], ["driver_set_to_dict", "b_pattern_to_dict"]),
    "verify": (["render_stats"], ["stats_to_dict"]),
    "simulate": (["render_steering"], ["steering_to_arrays"]),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", sorted(RENDERERS))
def test_only_the_printed_document_is_built(command, fmt, example2_path, monkeypatch, capsys):
    from zerocontrol import cli

    argv = [command, example2_path, "--format", fmt]
    argv += {"select": ["--enumerate"], "verify": ["--trials", "3", "--drivers", "x4,x8"],
             "simulate": ["--drivers", "x4,x8"]}.get(command, [])
    expected = (run_cli(argv), capsys.readouterr())

    def unused(*args, **kwargs):
        raise AssertionError("the document that is not printed was built")

    text_renderers, json_renderers = RENDERERS[command]
    for name in json_renderers if fmt == "text" else text_renderers:
        monkeypatch.setattr(cli, name, unused)
    assert (run_cli(argv), capsys.readouterr()) == expected


# --- one graph and one condensation per structural command ---------------------------

def _count_graph_builds(monkeypatch, names=("build_graph", "scc_decompose")):
    """Wrap the named graph functions wherever zerocontrol modules bound them;
    the originals are taken once, so nested calls are not counted twice."""
    from zerocontrol import graph

    calls = Counter()
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "zerocontrol"]
    for name in names:
        original = getattr(graph, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "example1.pat"],
        ["analyze", "example2.pat"],
        ["select", "example2.pat"],
        ["select", "example2.pat", "--greedy"],
        ["select", "example2.pat", "--enumerate", "--limit", "7"],
        ["export-dot", "example2.pat"],
        ["export-dot", "example1.pat"],
        ["export-dot", "example2.pat", "--drivers", "x4,x8"],
    ],
    ids=" ".join,
)
def test_structural_commands_build_one_graph_and_one_condensation(argv, fixture_dir, monkeypatch, capsys):
    calls = _count_graph_builds(monkeypatch)
    assert run_cli([argv[0], str(fixture_dir / argv[1]), *argv[2:]]) in (0, 1)
    assert capsys.readouterr().out
    assert calls == {"build_graph": 1, "scc_decompose": 1}


def test_zero_controllable_analyze_builds_no_condensation(tmp_path, monkeypatch, capsys):
    # the unreached states x3 -> x4 hold no cycle, so the peel clears them
    # and nothing is decomposed; the reached cycle x1 <-> x2 is not looked at
    path = tmp_path / "zc.pat"
    path.write_text("n 4\nm 1\na 1 2\na 2 1\na 4 3\na 1 4\nb 1 1\n")
    calls = _count_graph_builds(monkeypatch)
    assert run_cli(["analyze", str(path)]) == 0
    assert "unreachable (2): x3 x4" in capsys.readouterr().out
    assert calls == {"build_graph": 1}


def test_cycle_witness_needs_no_second_condensation(tmp_path, monkeypatch, capsys):
    path = tmp_path / "two_cycle.pat"
    path.write_text("n 3\na 1 2\na 2 1\na 3 2\n")
    calls = _count_graph_builds(monkeypatch)
    assert run_cli(["analyze", str(path)]) == 1
    assert "cycle witness: x1 -> x2 -> x1" in capsys.readouterr().out
    assert calls == {"build_graph": 1, "scc_decompose": 1}


# Graph work per command, as (build_graph, _reach_states, _peel, scc_decompose, state_name) calls.
# verify reads both structural verdicts off its one reachable split: one build, one reach, one peel,
# no Tarjan and no state name; the term rank of a pair whose inputs reach every state (full.pat) is a
# matching on [A B], with no graph.  simulate builds its realization's graph once and reaches from its inputs
# once, for the rows it solves on.  The other rows pin what those commands do, so added graph work shows here.
PASS_COUNTS = {
    "analyze example1.pat": (1, 1, 1, 1, 6),
    "analyze example2.pat": (1, 1, 1, 1, 18),
    "select example2.pat": (1, 1, 1, 1, 2),
    "select example2.pat --enumerate --limit 7": (1, 1, 1, 1, 8),
    "export-dot example1.pat": (1, 1, 0, 1, 5),
    "export-dot example2.pat --drivers x4,x8": (1, 1, 0, 1, 11),
    "simulate example1.pat": (1, 1, 0, 0, 0),
    "verify example1.pat --trials 3": (1, 1, 1, 0, 0),
    "verify example1.pat --trials 3 --check-controllability": (1, 1, 1, 0, 0),
    "verify example2.pat --trials 3 --drivers x4,x8": (1, 1, 1, 0, 0),
    "verify full.pat --trials 3": (1, 1, 1, 0, 0),
    "verify full.pat --trials 3 --check-controllability": (1, 1, 1, 0, 0),
}


def test_each_command_makes_the_structural_passes_it_needs(fixture_dir, tmp_path, monkeypatch, capsys):
    names = ("build_graph", "_reach_states", "_peel", "scc_decompose", "state_name")
    (tmp_path / "full.pat").write_text("n 3\nm 1\na 2 1\na 3 2\na 1 3\nb 1 1\n")  # x1 fed, x1 -> x2 -> x3 -> x1
    calls = _count_graph_builds(monkeypatch, names)
    got = {}
    for command in PASS_COUNTS:
        name, file, *rest = command.split()
        calls.clear()
        folder = tmp_path if file == "full.pat" else fixture_dir
        assert run_cli([name, str(folder / file), *rest]) in (0, 1), command
        assert capsys.readouterr().out, command
        got[command] = tuple(calls[n] for n in names)
    assert got == PASS_COUNTS
