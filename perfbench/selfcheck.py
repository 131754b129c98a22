"""Self-check of the benchmark.

Usage (from the repository root):  python3 perfbench/selfcheck.py

1. A corrupted oracle expectation must make a pass fail: error_rate > 0.
2. A smoke run (smallest rung, one pass) of every workload must print every
   metric BENCHMARK.json names, untraced and traced, and nothing else.
3. Outside a checkout (only BENCHMARK.json and perfbench/) the benchmark
   must exit non-zero without printing a result.
Exits 0 when all parts pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads

ROOT = Path.cwd()
RUN = [sys.executable, str(Path(run.__file__).resolve())]


def corrupted_expectation_fails() -> list[str]:
    work = ROOT / run.WORK_DIR / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.build("struct-ladder", 7, work, ROOT, 1, smoke=True)
        jobs = plan.sets[0]
        one_pass = [{"mode": "pass", "order": list(range(len(jobs)))}]
        runner = run.Runner(ROOT, work, deadline=run.now() + 120)
        runner.spawn(jobs, one_pass)
        if runner.failures:
            return [f"clean pass failed: {runner.failures}"]
        analyze = next(job for job in jobs if job.expect.kind == "analyze")
        analyze.expect.zc = dict(analyze.expect.zc, verdict=not analyze.expect.zc["verdict"])
        runner = run.Runner(ROOT, work, deadline=run.now() + 120)
        runner.spawn(jobs, one_pass)
        if len(runner.failures) != 1:
            return [f"corrupted verdict gave {len(runner.failures)} failures, expected 1"]
        return []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def smoke_prints_every_metric() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{workload} trace {trace}: metrics differ: "
                                f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed jobs")
            printed = {line.split(" = ")[0] for line in lines[:-1] if " = " in line}
            if not {f"{workload}/{name}" for name in wanted} <= printed:
                problems.append(f"{workload} trace {trace}: not every metric printed by name")
    return problems


def bare_directory_fails() -> list[str]:
    bare = ROOT / run.WORK_DIR / f"selfcheck-bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(Path(run.__file__).resolve().parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-mc", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"bare directory run exited {proc.returncode} with output {proc.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failed = False
    for part in (corrupted_expectation_fails, smoke_prints_every_metric, bare_directory_fails):
        start = time.monotonic()
        problems = part()
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {part.__name__} ({time.monotonic() - start:.1f} s)")
        for problem in problems:
            print("  " + problem)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
