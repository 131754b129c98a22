"""The fixture walkthrough, the agreement experiment and the job-digest
tool, each run once."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from zerocontrol import build_graph, export_dot, is_generically_zero_controllable, parse_pattern_file

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
FIXTURES = SCRIPTS.parent / "fixtures"
sys.path.insert(0, str(SCRIPTS))
import analyze_bundled_examples  # noqa: E402
import job_digests  # noqa: E402
import random_agreement_experiment  # noqa: E402


def test_walkthrough_writes_each_fixture_dot(tmp_path, monkeypatch, capsys):
    argv = ["analyze_bundled_examples.py", "--out", str(tmp_path), "--trials", "5"]
    monkeypatch.setattr(sys, "argv", argv)
    analyze_bundled_examples.main()
    out = capsys.readouterr().out
    paths = sorted(FIXTURES.glob("*.pat"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{p.stem}.dot" for p in paths]
    for path in paths:
        assert f"\n{path.name}\n{'-' * len(path.name)}\n" in out
        pattern_a, pattern_b = parse_pattern_file(path.read_text())
        graph = build_graph(pattern_a, pattern_b)
        report = is_generically_zero_controllable(pattern_a, pattern_b)
        expected = export_dot(graph, graph.condensation, report)
        assert (tmp_path / f"{path.stem}.dot").read_text() == expected


def test_agreement_experiment_at_smoke_size(monkeypatch, capsys):
    argv = ["random_agreement_experiment.py", "--instances", "4", "--max-n", "5", "--trials", "4"]
    monkeypatch.setattr(sys, "argv", argv)
    random_agreement_experiment.main()
    lines = capsys.readouterr().out.splitlines()
    counts = re.fullmatch(r"instances: 4 \((\d+) positive, (\d+) negative verdicts\)", lines[0])
    assert counts and int(counts[1]) + int(counts[2]) == 4
    assert re.fullmatch(r"worst instance agreement: \d+\.\d%", lines[-2])
    assert lines[-1].startswith("elapsed: ")


def test_job_digests_at_smoke_size(monkeypatch, capsys):
    monkeypatch.setattr(job_digests, "SMOKE", True)
    monkeypatch.setattr(sys, "path", sys.path[:])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    job_digests.main()
    *jobs, total = capsys.readouterr().out.splitlines()
    digests = {}
    for line in jobs:
        digest, argv = line.split("  ", 1)
        assert re.fullmatch("[0-9a-f]{64}", digest)
        digests[argv] = digest
    assert len(digests) == len(jobs) == 2 * (13 + 4 + 3)  # per seed: ladder, cover, mc
    expected = hashlib.sha256("".join(line[:64] for line in jobs).encode()).hexdigest()
    assert total == f"{expected}  total of {len(jobs)} jobs"
    # the seed relabels the random instances' states, never the fixtures'
    for k in range(1, 14):
        seed1, seed2 = (digests[argv] for argv in digests
                        if re.search(rf"struct-ladder-s[12]/job{k:04d}\.pat", argv))
        assert (seed1 == seed2) == (k > 3)


def test_job_digests_runs_the_tree_that_src_names(tmp_path):
    """``--src`` swaps the package the jobs run through: with a stub
    ``run_cli`` that echoes its argv, each job's digest is that echo's."""
    stub = tmp_path / "zerocontrol"
    stub.mkdir()
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text("def run_cli(argv):\n    print(' '.join(argv))\n    return 0\n")
    script = [sys.executable, str(SCRIPTS / "job_digests.py"), "--src", str(tmp_path)]
    out = subprocess.run(script, capture_output=True, text=True, check=True).stdout
    *jobs, total = out.splitlines()
    assert len(jobs) == 112 and total.endswith("  total of 112 jobs")
    for line in jobs:
        digest, argv = line.split("  ", 1)
        expected = hashlib.sha256(b"0\n")
        for stream in (f"{argv}\n", ""):
            expected.update(hashlib.sha256(stream.encode()).digest())
        assert digest == expected.hexdigest()


JOB_DIGEST = "5d592313b7ec4d71a9d44d022c026997b30501f341214a5dd943668245b96e27"


def test_job_digests_at_full_size():
    """Every benchmark job prints the same bytes: the total of
    ``scripts/job_digests.py`` at full size (exit code, stdout and stderr of
    all 112 jobs at run seeds 1 and 2, one BLAS thread) is ``JOB_DIGEST``.
    A change to the benchmark that alters its workloads moves it, and records
    the new total and its reason; so does a change to what ``verify`` counts
    (the reachable split moved the Monte Carlo jobs 2, 3, 5 and 6; exact
    trials over GF(p) moved jobs 1, 3 and 5 of seed 2 and 3 and 5 of seed 1,
    whose agreement rose to 100 of 100) or to
    which selects run exact (counting the exact-search cap per independent
    block moved struct-ladder's selects at n = 300 and 700 and on the chain
    from greedy to the same drivers, flagged minimal)."""
    # a fresh interpreter: numpy is imported here already, so the script's
    # one-BLAS-thread setting would not take effect in this process
    script = [sys.executable, str(SCRIPTS / "job_digests.py")]
    out = subprocess.run(script, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == f"{JOB_DIGEST}  total of 112 jobs"
