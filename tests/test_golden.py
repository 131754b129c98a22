"""Golden guard for the structural commands.

Runs analyze, select and export-dot through ``run_cli`` on both fixtures and
on a seeded corpus of random patterns, and hashes every stdout together with
its exit code.  The digest was taken before the structural core was
reorganised; any change to the printed results of these commands changes it.
Numeric commands are left out because their floats depend on the BLAS build;
``NUMERIC_DIGEST`` below pins the counts that ``verify`` prints instead.
"""

import hashlib
import warnings

import numpy as np

from oracles import oracle_driver_set_valid
from zerocontrol import enumerate_minimal_driver_sets, parse_pattern_file
from zerocontrol.cli import run_cli
from zerocontrol.fileio import serialize_pattern_file
from zerocontrol.patterns import PatternMatrix

# moved once on purpose, when the exact-search cap came to count the classes
# of one independent block: corpus patterns 73 and 107 (27 and 33 candidate
# components, 1 minimum driver) used to fall back to greedy and now print
# the same drivers as an exact, minimal set
GOLDEN_DIGEST = "ed988c13ab84b145d740f1745d921f9c7336fa3e6e3b247dfe48e45d030e6ffd"

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


def test_golden_driver_sets_are_exact_and_irreducible():
    """Every corpus pattern now selects exactly, the two that used to exceed
    the cap among them, and every listed set passes the oracle: it is valid,
    and no single driver can be removed."""
    for text, _ in _corpus():
        a, _ = parse_pattern_file(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            listed = enumerate_minimal_driver_sets(a, limit=7)
        for ds in listed:
            drivers = {int(v[1:]) for v in ds.drivers}
            assert ds.minimal and oracle_driver_set_valid(a, drivers)
            assert not any(oracle_driver_set_valid(a, drivers - {d}) for d in drivers)


TIE_DIGEST = "933625f13a9bee4d736e5f07e1d785376fab0a1a537632f9418b2af69e18072d"

TIE_COMMANDS = (
    ["select"],
    ["select", "--format", "json"],
    ["select", "--enumerate", "--limit", "100"],
    ["select", "--greedy"],
)


def _tie_corpus(seed: int = 7, count: int = 40):
    """Cover-style patterns rich in ties: 2-8 disjoint cycles of length 1-3
    fed by 1-6 feeder states, each wired into 1-3 of them, with the states
    renamed by a random permutation so that the expansions of different
    component covers interleave in lex order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n_cycles = int(rng.integers(2, 9))
        cycles, entries, n = [], set(), 0
        for _ in range(n_cycles):
            nodes = list(range(n + 1, n + int(rng.integers(1, 4)) + 1))
            n += len(nodes)
            entries |= {(dst, src) for src, dst in zip(nodes, nodes[1:] + nodes[:1])}
            cycles.append(nodes)
        for _ in range(int(rng.integers(1, 7))):
            n += 1
            fed = rng.choice(n_cycles, size=int(rng.integers(1, min(3, n_cycles) + 1)), replace=False)
            entries |= {(int(rng.choice(cycles[t])), n) for t in fed}
        perm = [0] + [int(v) + 1 for v in rng.permutation(n)]
        a = PatternMatrix(n, n, frozenset((perm[i], perm[j]) for i, j in entries))
        out.append(serialize_pattern_file(a, None))
    return out


def test_select_prints_the_golden_output_on_tied_components(tmp_path, capsys):
    """The corpus above has few tied components; this digest covers the
    tie-breaking of every select mode and the order of enumeration.  It was
    taken before the cover search moved to bitmasks."""
    digest = hashlib.sha256()
    for k, text in enumerate(_tie_corpus()):
        path = tmp_path / f"t{k}.pat"
        path.write_text(text, encoding="utf-8")
        for argv in TIE_COMMANDS:
            code = run_cli([argv[0], str(path), *argv[1:]])
            out = capsys.readouterr().out
            digest.update(f"{k} {' '.join(argv)} -> {code}\n{out}".encode())
    assert digest.hexdigest() == TIE_DIGEST


NUMERIC_DIGEST = "929811dbbc134734ad0bcf9079c9e89c6f97fd5457745ab9ba9eebc9da947806"

NUMERIC_COMMANDS = (
    ["verify", "--trials", "30", "--format", "json"],
    ["verify", "--trials", "30", "--format", "json", "--check-controllability"],
)


def _numeric_corpus(seed: int = 11, count: int = 40):
    """Random pairs with n <= 24, about 2n entries in A and 0-2 input columns
    of 1 to n entries each; every fifth A is strictly lower triangular, so all
    its eigenvalues are zero."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(1, 25))
        entries = {
            (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
            for _ in range(int(rng.integers(n, 3 * n + 1)))
        }
        if k % 5 == 4:
            entries = {(i, j) for i, j in entries if i > j}
        m = k % 3
        b = None
        if m:
            b_entries = {
                (int(rng.integers(1, n + 1)), j)
                for j in range(1, m + 1)
                for _ in range(int(rng.integers(1, n + 1)))
            }
            b = PatternMatrix(n, m, frozenset(b_entries))
        out.append(serialize_pattern_file(PatternMatrix(n, n, frozenset(entries)), b))
    return out


def test_verify_prints_the_golden_counts(fixture_dir, tmp_path, capsys):
    """The verify document holds counts only (agreements, flagged trials,
    disagreeing seeds), so it hashes the rank decisions of 30 seeded
    realizations per case.  Like any rank decision they may move with the
    LAPACK build; the digest was taken with numpy 2.4 and its OpenBLAS.  It
    was taken before the Monte Carlo trials were stacked, and stacking left
    it unchanged.  It moved once since: ``inconsistent_trials`` counts a
    trial once when both of its checks are inconsistent, which takes case
    33 under --check-controllability from 19 flagged trials to 17.  It moved
    again when each trial came to be decided on the reachable split: a pair
    with an unreached state is then decided on its reached block and its
    survivor block, so its counts may differ from the whole pair's.  It
    moved again when the trials came to be decided exactly over GF(p), on
    values drawn mod p from streams of their own: the counts no longer
    depend on rank decisions or on the LAPACK build, and no trial is
    flagged."""
    cases = [((fixture_dir / "example1.pat").read_text(encoding="utf-8"), [])]
    cases.append(((fixture_dir / "example2.pat").read_text(encoding="utf-8"), ["--drivers", "x4,x8"]))
    cases += [(text, []) for text in _numeric_corpus()]
    digest = hashlib.sha256()
    for k, (text, extra) in enumerate(cases):
        path = tmp_path / f"v{k}.pat"
        path.write_text(text, encoding="utf-8")
        for argv in NUMERIC_COMMANDS:
            code = run_cli([argv[0], str(path), *argv[1:], *extra])
            out = capsys.readouterr().out
            digest.update(f"{k} {' '.join(argv + extra)} -> {code}\n{out}".encode())
    assert digest.hexdigest() == NUMERIC_DIGEST
