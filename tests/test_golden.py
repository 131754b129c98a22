"""Golden guard for the structural commands.

Runs analyze, select and export-dot through ``run_cli`` on both fixtures and
on a seeded corpus of random patterns, and hashes every stdout together with
its exit code.  The digest was taken before the structural core was
reorganised; any change to the printed results of these commands changes it.
Numeric commands are left out because their floats depend on the BLAS build.
"""

import hashlib

import numpy as np

from zerocontrol.cli import run_cli
from zerocontrol.fileio import serialize_pattern_file
from zerocontrol.patterns import PatternMatrix

GOLDEN_DIGEST = "b3fcf8d74269133443ac185ad90f6aa70816f23071445d98b032ee7ef3552f03"

STRUCTURAL_COMMANDS = (
    ["analyze"],
    ["analyze", "--format", "json"],
    ["select"],
    ["select", "--format", "json"],
    ["select", "--greedy"],
    ["select", "--enumerate", "--limit", "7"],
    ["export-dot"],
)


def _corpus(seed: int = 2024, count: int = 120):
    """Sparse random pairs with n <= 60 and 0-2 inputs; every fourth one is a
    chain x1 -> ... -> xn with a few extra back edges."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(1, 61))
        if k % 4 == 3:
            entries = {(i + 1, i) for i in range(1, n)}
            for _ in range(int(rng.integers(1, 4))):
                src, dst = sorted(int(v) for v in rng.integers(1, n + 1, size=2))
                entries.add((src, dst))  # x_dst -> x_src runs against the chain
        else:
            nnz = int(rng.integers(0, 2 * n + 1))
            entries = {
                (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))) for _ in range(nnz)
            }
        a = PatternMatrix(n, n, frozenset(entries))
        m = int(rng.integers(0, 3))
        b = None
        if m:
            b_entries = {(int(rng.integers(1, n + 1)), j) for j in range(1, m + 1) for _ in range(2)}
            b = PatternMatrix(n, m, frozenset(b_entries))
        drivers = sorted({int(v) for v in rng.integers(1, n + 1, size=int(rng.integers(1, 4)))})
        out.append((serialize_pattern_file(a, b), ",".join(f"x{d}" for d in drivers)))
    return out


def test_structural_commands_print_the_golden_output(fixture_dir, tmp_path, capsys):
    cases = [
        ((fixture_dir / name).read_text(encoding="utf-8"), "x1,x4")
        for name in ("example1.pat", "example2.pat")
    ] + _corpus()
    digest = hashlib.sha256()
    for k, (text, drivers) in enumerate(cases):
        path = tmp_path / f"p{k}.pat"
        path.write_text(text, encoding="utf-8")
        for argv in STRUCTURAL_COMMANDS + (["export-dot", "--drivers", drivers],):
            code = run_cli([argv[0], str(path), *argv[1:]])
            out = capsys.readouterr().out
            digest.update(f"{k} {' '.join(argv)} -> {code}\n{out}".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
