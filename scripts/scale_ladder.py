#!/usr/bin/env python3
"""Scale ladder: the CLI end to end on seeded sparse patterns up to n = 10^5.

Each pattern comes from ``random.Random(seed)``: distinct uniform (i, j)
state entries until nnz = 1.5n, m = 1, and one input entry at a random row.
Beside them, each size has one pattern of the worst case for the obstruction
test: one giant strongly connected component that no input reaches (a
Hamiltonian cycle with chords over 60 % of the states, shuffled) and a chain
through the other states, which the input feeds.  ``analyze``, ``select`` and
``export-dot`` run on each of these, and ``analyze`` once more on a bundled
fixture.  A third, nilpotent shape (strictly lower-triangular state entries,
three inputs) runs one ``simulate --format json`` per size up to 10^3, where
its dense steering still fits.  Every job runs in a fresh child
Python with one BLAS thread; the ladder records its wall time, the child's
CPU time (user plus system) and peak RSS, and the sha256 of its exit code,
stdout and stderr, then writes ``BENCH_<label>.json`` at the repository
root.  Two files agree on output exactly when their digests do.

    python3 scripts/scale_ladder.py --label mine
    python3 scripts/scale_ladder.py --label parent --src ../parent/src
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from hostprobe import probe  # noqa: E402

COMMANDS = ("analyze", "select", "export-dot")
FIXTURE = ROOT / "fixtures" / "example1.pat"
SIZES = (10, 10**2, 10**3, 10**4, 10**5)
SEEDS = (1, 2)
GIANT_SCC_SEED = 1  # the worst-case shape is drawn once per size
NILPOTENT_SEED = 1
NILPOTENT_INPUTS = 3
SIMULATE_MAX_N = 10**3  # simulate's Gram is n x (n * inputs) floats: 24 MB at n = 10^3
REPEAT = 2  # runs of the whole ladder; each job reports its best
OUT_DIR = ROOT  # where BENCH_<label>.json goes


def pattern_text(n: int, seed: int) -> str:
    """The seeded pattern file: nnz = 1.5n distinct state entries, one input."""
    rng = random.Random(seed)
    entries: dict[tuple[int, int], None] = {}  # insertion-ordered set
    while len(entries) < 3 * n // 2:
        entries[rng.randint(1, n), rng.randint(1, n)] = None
    lines = [f"n {n}", "m 1", *(f"a {i} {j}" for i, j in entries), f"b {rng.randint(1, n)} 1"]
    return "\n".join(lines) + "\n"


def giant_scc_text(n: int, seed: int) -> str:
    """The seeded worst case: a cycle through 3n/5 shuffled states with n/5 chords,
    unreached, and a chain through the rest that the one input feeds."""
    rng = random.Random(seed)
    states = list(range(1, n + 1))
    rng.shuffle(states)
    ring, chain = states[:3 * n // 5], states[3 * n // 5:]
    edges = dict.fromkeys(zip(ring, ring[1:] + ring[:1]))  # (src, dst), insertion-ordered
    while len(edges) < len(ring) + n // 5:
        edges[rng.choice(ring), rng.choice(ring)] = None
    edges.update(dict.fromkeys(zip(chain, chain[1:])))
    lines = [f"n {n}", "m 1", *(f"a {d} {s}" for s, d in edges), f"b {chain[0]} 1"]
    return "\n".join(lines) + "\n"


def nilpotent_text(n: int, seed: int) -> str:
    """The seeded nilpotent shape: distinct uniform entries below the diagonal until
    nnz = 1.5n (or the whole triangle), and one entry in a random row per input."""
    rng = random.Random(seed)
    entries: dict[tuple[int, int], None] = {}
    while len(entries) < min(3 * n // 2, n * (n - 1) // 2):
        i, j = rng.randint(1, n), rng.randint(1, n)
        if i > j:
            entries[i, j] = None
    lines = [f"n {n}", f"m {NILPOTENT_INPUTS}", *(f"a {i} {j}" for i, j in entries),
             *(f"b {rng.randint(1, n)} {k}" for k in range(1, NILPOTENT_INPUTS + 1))]
    return "\n".join(lines) + "\n"


def run_job(argv: list[str], src: Path, cwd: Path) -> dict:
    """One CLI call in a fresh child: wall and CPU time, peak RSS and output digest."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "zerocontrol.cli", *argv],
                                 cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = code = os.waitstatus_to_exitcode(status)
        digest = hashlib.sha256(f"{code}\n".encode())
        for stream in (out, err):
            stream.seek(0)
            digest.update(hashlib.sha256(stream.read()).digest())
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024, "exit_code": code, "sha256": digest.hexdigest()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the zerocontrol package to time")
    args = parser.parse_args()

    jobs = [{"name": "analyze example1.pat", "argv": ["analyze", str(FIXTURE)]}]
    patterns = {f"n{n}-seed{seed}.pat": (pattern_text, n, seed) for n in SIZES for seed in SEEDS}
    patterns.update({f"n{n}-giant-scc.pat": (giant_scc_text, n, GIANT_SCC_SEED) for n in SIZES})
    for name in patterns:
        jobs += [{"name": f"{cmd} {name}", "argv": [cmd, name]} for cmd in COMMANDS]
    for n in (n for n in SIZES if n <= SIMULATE_MAX_N):
        name = f"n{n}-nilpotent.pat"
        patterns[name] = (nilpotent_text, n, NILPOTENT_SEED)
        jobs.append({"name": f"simulate {name}", "argv": ["simulate", name, "--format", "json"]})
    with tempfile.TemporaryDirectory() as work:
        # a child's peak RSS counts the pages of the process it was spawned
        # from, so the patterns are generated in a forked process of their own
        pid = os.fork()
        if pid == 0:
            for name, (make, n, seed) in patterns.items():
                (Path(work) / name).write_text(make(n, seed), encoding="utf-8")
            os._exit(0)
        if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
            sys.exit("pattern generation failed")
        probes = [probe() for _ in range(3)]
        runs = [[run_job(job["argv"], args.src.resolve(), Path(work)) for job in jobs]
                for _ in range(REPEAT)]
        probes += [probe() for _ in range(3)]

    records = []
    for k, job in enumerate(jobs):
        samples = [run[k] for run in runs]
        digests = {s["sha256"] for s in samples}
        if len(digests) != 1:
            sys.exit(f"{job['name']}: output differs between repeats")
        records.append({
            "name": job["name"],
            "exit_code": samples[0]["exit_code"],
            "sha256": digests.pop(),
            "best_wall_s": round(min(s["wall_s"] for s in samples), 4),
            "wall_s": [round(s["wall_s"], 4) for s in samples],
            "best_cpu_s": round(min(s["cpu_s"] for s in samples), 4),
            "cpu_s": [round(s["cpu_s"], 4) for s in samples],
            "peak_rss_mb": round(max(s["peak_rss_mb"] for s in samples), 1),
        })
        print(f"{job['name']:<36} {records[-1]['best_wall_s']:8.3f} s "
              f"{records[-1]['best_cpu_s']:8.3f} s cpu {records[-1]['peak_rss_mb']:8.1f} MB  "
              f"exit {records[-1]['exit_code']}")

    import numpy  # the child's version, as the parent sees it

    doc = {
        "label": args.label,
        "generator": "random.Random(seed): distinct uniform (i, j) until nnz = 1.5n; m = 1; "
                     "one b entry at a random row",
        "giant_scc": f"random.Random({GIANT_SCC_SEED}): an unreached cycle through 3n/5 shuffled states "
                     "with n/5 chords; a chain through the rest, fed by the one input",
        "nilpotent": f"random.Random({NILPOTENT_SEED}): distinct entries below the diagonal until nnz = 1.5n; "
                     f"m = {NILPOTENT_INPUTS}, one b entry per input at a random row; simulate only",
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "nproc": os.cpu_count(), "host_loop_ms": round(1e3 * statistics.median(probes), 2)},
        "repeat": REPEAT,
        "jobs": records,
    }
    path = OUT_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
