"""The scale ladder script: its seeded generator and one tiny run."""

import json
import sys
from pathlib import Path

from zerocontrol import is_generically_zero_controllable, parse_pattern_file

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
        "export-dot n40-giant-scc.pat",
    ]
    assert doc["jobs"][0]["exit_code"] == 1  # example1 is not zero controllable
    assert all(job["exit_code"] in (0, 1) and len(job["sha256"]) == 64 for job in doc["jobs"])
    # CPU time, user plus system, of each job's child
    assert all(0 < job["best_cpu_s"] == min(job["cpu_s"]) and len(job["cpu_s"]) == 1
               for job in doc["jobs"])
