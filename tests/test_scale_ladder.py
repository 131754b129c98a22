"""The scale ladder script: its seeded generator and one tiny run."""

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from zerocontrol import (
    build_b_pattern,
    build_graph,
    greedy_driver_set,
    is_generically_zero_controllable,
    monte_carlo_verify,
    parse_pattern_file,
)
from zerocontrol.graph import _input_reach, _peel, _reachable_split
from conftest import sparse_pattern

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scale_ladder.py"
sys.path.insert(0, str(SCRIPT.parent))
import scale_ladder  # noqa: E402


def test_generator_is_seeded_and_sparse():
    text = scale_ladder.pattern_text(200, 1)
    assert text == scale_ladder.pattern_text(200, 1) != scale_ladder.pattern_text(200, 2)
    a, b = parse_pattern_file(text)
    assert a.shape == (200, 200) and len(a.nonzeros) == 300
    assert b is not None and b.shape == (200, 1) and len(b.nonzeros) == 1


def test_giant_scc_shape_is_seeded_and_unreached():
    text = scale_ladder.giant_scc_text(200, 1)
    assert text == scale_ladder.giant_scc_text(200, 1) != scale_ladder.giant_scc_text(200, 2)
    a, b = parse_pattern_file(text)
    assert a.shape == (200, 200) and len(a.nonzeros) == 120 + 40 + 79
    assert b is not None and b.shape == (200, 1) and len(b.nonzeros) == 1
    report = is_generically_zero_controllable(a, b)
    assert len(report.reachable_states) == 80  # the chain
    assert [len(c) for c in report.nontrivial_unreachable_components] == [120]


def test_nilpotent_shape_is_seeded_and_strictly_lower_triangular():
    text = scale_ladder.nilpotent_text(200, 1)
    assert text == scale_ladder.nilpotent_text(200, 1) != scale_ladder.nilpotent_text(200, 2)
    a, b = parse_pattern_file(text)
    assert a.shape == (200, 200) and len(a.nonzeros) == 300 and all(i > j for i, j in a.nonzeros)
    assert b is not None and b.shape == (200, 3) and sorted(j for _, j in b.nonzeros) == [1, 2, 3]
    assert parse_pattern_file(scale_ladder.nilpotent_text(3, 1))[0].nonzeros == {(2, 1), (3, 1), (3, 2)}


def test_ladder_writes_one_record_per_job(tmp_path, monkeypatch):
    monkeypatch.setattr(scale_ladder, "SIZES", (40,))
    monkeypatch.setattr(scale_ladder, "SEEDS", (3,))
    monkeypatch.setattr(scale_ladder, "REPEAT", 1)
    monkeypatch.setattr(scale_ladder, "OUT_DIR", tmp_path)
    monkeypatch.setattr(sys, "argv", ["scale_ladder.py", "--label", "t"])
    scale_ladder.main()
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [job["name"] for job in doc["jobs"]] == [
        "analyze example1.pat", "analyze n40-seed3.pat", "select n40-seed3.pat",
        "export-dot n40-seed3.pat", "analyze n40-giant-scc.pat", "select n40-giant-scc.pat",
        "export-dot n40-giant-scc.pat", "simulate n40-nilpotent.pat",
    ]
    assert doc["jobs"][0]["exit_code"] == 1  # example1 is not zero controllable
    assert all(job["exit_code"] in (0, 1) and len(job["sha256"]) == 64 for job in doc["jobs"])
    # CPU time, user plus system, of each job's child
    assert all(0 < job["best_cpu_s"] == min(job["cpu_s"]) and len(job["cpu_s"]) == 1
               for job in doc["jobs"])


# the giant shape has no entry in BENCH_pr12.json; these digests were taken
# from the tree before its obstruction was sized to the survivors
GIANT_SCC_DIGESTS = {
    "analyze n10000-giant-scc.pat": "704c35759ed3b99fab28be0d8fbcee3dde7b2f63bc478e1a1e2c4103fcc2db80",
    "select n10000-giant-scc.pat": "0a25e9b1f299c6db75157643af527e44f1f9a6b0587b302f783ef93d11470c11",
    "export-dot n10000-giant-scc.pat": "d9cfc397aff54dd625421c3952ce6d1b24a22001e24485e04c44ace529ebcafa",
}


# these selects fell back to greedy in BENCH_pr12.json, with 245-2445
# candidate components over the cap of 25; they have 1-2 root targets, which
# leave forced classes and at most one block of 3 classes, so they now print
# the same drivers as an exact, minimal set and no warning
EXACT_SELECT_DIGESTS = {
    "select n1000-seed1.pat": "54a7d467da81ed74f0cd89e866f5a89d3c5efdfd3778df648cb834ce86e858d8",
    "select n1000-seed2.pat": "0d67722d5e2c286e8906ae723650391a0a89c46de74c4dd82733bc2e356d6f18",
    "select n10000-seed1.pat": "61001fd3ccb275a9891f62db4dd0b803efde81374a4d32b915526dee42ece802",
    "select n10000-seed2.pat": "a9f6416098d9da60fdeed5f5631c1e5c68877755d8832792614db5e73c402380",
}


def test_ladder_outputs_match_the_committed_digests(tmp_path, monkeypatch):
    # the ladder's jobs at n = 10^3 and 10^4, run in process: each output
    # digest is the one committed in BENCH_pr12.json (or pinned above)
    from job_digests import job_digest
    from zerocontrol.cli import run_cli

    bench = json.loads((SCRIPT.parent.parent / "BENCH_pr12.json").read_text())
    expected = {job["name"]: job["sha256"] for job in bench["jobs"]} | GIANT_SCC_DIGESTS | EXACT_SELECT_DIGESTS
    patterns = {f"n{n}-seed{seed}.pat": scale_ladder.pattern_text(n, seed)
                for n in (10**3, 10**4) for seed in (1, 2)}
    patterns["n10000-giant-scc.pat"] = scale_ladder.giant_scc_text(10**4, scale_ladder.GIANT_SCC_SEED)
    monkeypatch.chdir(tmp_path)  # the jobs name their files relative to the working directory
    digests = {}
    for name, text in patterns.items():
        (tmp_path / name).write_text(text)
        for command in scale_ladder.COMMANDS:
            digests[f"{command} {name}"] = job_digest(run_cli, [command, name])
    assert digests == {job: expected[job] for job in digests}


def test_structural_commands_name_no_edge_set(tmp_path, monkeypatch):
    # a parsed pattern keeps its entries as arrays and a built graph its CSR:
    # analyze, select, export-dot and verify never build the nonzeros or
    # state_edges view, while reading a parsed pattern's entries by name does,
    # so the spy is live
    from zerocontrol import PatternMatrix, SystemGraph
    from zerocontrol.cli import run_cli

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run_cli(argv) in (0, 1), argv

    builds = []
    for view in (PatternMatrix.__dict__["nonzeros"], SystemGraph.__dict__["state_edges"]):
        monkeypatch.setattr(view, "func", lambda self, build=view.func: builds.append(self) or build(self))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed1.pat").write_text(scale_ladder.pattern_text(10**3, 1))
    (tmp_path / "giant.pat").write_text(scale_ladder.giant_scc_text(10**3, scale_ladder.GIANT_SCC_SEED))
    for name in ("seed1.pat", "giant.pat"):
        for argv in (["analyze", name], ["analyze", name, "--format", "json"], ["select", name],
                     ["select", name, "--format", "json"], ["select", name, "--enumerate", "--limit", "3"],
                     ["export-dot", name], ["export-dot", name, "--drivers", "x1,x2"]):
            run(argv)
            assert not builds, argv
    run(["verify", str(scale_ladder.FIXTURE), "--trials", "2"])
    assert not builds
    assert parse_pattern_file((tmp_path / "seed1.pat").read_text())[0].nonzeros and builds


def test_the_split_costs_the_reach_and_the_peel():
    """At n = 10^5 (seed 1, and the giant unreached component) the reachable
    split takes no longer than the reach and the peel it is made of: the
    median over 25 rounds of the split's time over the parts' time in the same
    round, which of the two runs first alternating by round, with 25 % for
    timing noise.  A busy machine slows both runs of a round alike, and an
    outlier round moves a median little: beside two CPU-bound loops on 2
    cores the median read at most 1.12, while the best of each read 1.26."""
    for text in (scale_ladder.pattern_text(10**5, 1), scale_ladder.giant_scc_text(10**5, 1)):
        graph = build_graph(*parse_pattern_file(text))
        runs = [("parts", lambda: _peel(graph, _input_reach(graph))), ("split", lambda: _reachable_split(graph))]
        times = {"split": [], "parts": []}
        for k in range(25):
            for name, run in runs[::1 if k % 2 else -1]:
                start = time.process_time()
                run()
                times[name].append(time.process_time() - start)
        ratio = statistics.median(split / parts for split, parts in zip(times["split"], times["parts"]))
        assert ratio <= 1.25, times


def test_exact_trials_agree_on_the_zero_controllable_ladder_shape():
    """The ladder's pattern of seed 1 at n = 1000, driven by one shared input
    at ``greedy_driver_set``'s drivers, is structurally zero controllable with
    549 states reached.  The float checks backed none of its trials, and
    overflowed from n = 2000 on; the exact ones agree on every trial, with
    none flagged."""
    a, _ = parse_pattern_file(scale_ladder.pattern_text(1000, 1))
    b = build_b_pattern(1000, greedy_driver_set(a).drivers, "shared").pattern
    assert _reachable_split(build_graph(a, b))[2:] == (549, 0)
    stats = monte_carlo_verify(a, b, trials=5, base_seed=7)
    assert (stats.zc_structural, stats.zc_agreements, stats.inconsistent_trials) == (True, 5, 0)


def test_exact_trials_agree_on_both_verdict_sides_at_n_1000():
    """At n = 1000, 20 trials on each structural verdict agree with it, every
    one proven: the zero controllable ladder shape above at a fresh base seed,
    and four seeded patterns of 2n entries and one input entry that are not
    zero controllable, 5 trials each, with the controllability check."""
    a, _ = parse_pattern_file(scale_ladder.pattern_text(1000, 1))
    b = build_b_pattern(1000, greedy_driver_set(a).drivers, "shared").pattern
    stats = monte_carlo_verify(a, b, trials=20, base_seed=1000)
    assert (stats.zc_structural, stats.zc_agreements, stats.inconsistent_trials) == (True, 20, 0)
    rng, checked = np.random.default_rng(73), 0
    while checked < 4:
        a, b = sparse_pattern(rng, 1000, 1000, 2000), sparse_pattern(rng, 1000, 1, 1)
        if is_generically_zero_controllable(a, b).verdict:
            continue
        stats = monte_carlo_verify(a, b, trials=5, base_seed=2000 + checked, check_controllability=True)
        assert (stats.zc_structural, stats.zc_agreements, stats.inconsistent_trials) == (False, 5, 0)
        assert (stats.ctrl_structural, stats.ctrl_agreements) == (False, 5)
        checked += 1
