import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zerocontrol.cli import run_cli
from zerocontrol.fileio import serialize_pattern_file
from conftest import EXAMPLE1_A, EXAMPLE1_B


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


def test_analyze_json_round_trips(example1_path, capsys):
    from zerocontrol import is_generically_zero_controllable
    from zerocontrol.reports import zc_report_from_dict

    code = run_cli(["analyze", example1_path, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["command"] == "analyze"
    report = zc_report_from_dict(doc["report"])
    assert report == is_generically_zero_controllable(EXAMPLE1_A, EXAMPLE1_B)


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


def test_usage_error_exits_2():
    assert run_cli(["frobnicate"]) == 2
    assert run_cli([]) == 2
    assert run_cli(["analyze"]) == 2


def test_help_exits_0():
    assert run_cli(["--help"]) == 0


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
