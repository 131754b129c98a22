#!/usr/bin/env python3
"""Output digests of the benchmark's jobs, run in process.

Builds the struct-ladder, cover-search and verify-mc jobs at run seeds 1 and
2 with ``perfbench/workloads.py``, in a temporary directory, and runs each
argv through ``run_cli`` with one BLAS thread, importing ``zerocontrol`` from
this checkout's ``src`` or from the directory that ``--src`` names.
Prints the sha256 of each job's exit code, stdout and stderr, then the sha256
of all of them.  Two trees give every job the same output exactly when their
totals agree, so to check that a change keeps the output, run the script once
as it is and once with ``--src`` naming the ``src`` of a checkout of the
parent, and compare the two totals.

    python3 scripts/job_digests.py
    python3 scripts/job_digests.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("struct-ladder", "cover-search", "verify-mc")
SEEDS = (1, 2)
SMOKE = False  # the workloads' smallest instances, one instance set each
RUN_SECONDS = 30  # sets only the pass count of a plan, which is not used here


def job_digest(run_cli, argv: list[str]) -> str:
    """sha256 of the exit code and of the two streams' own digests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    digest = hashlib.sha256(f"{code}\n".encode())
    for stream in (out, err):
        digest.update(hashlib.sha256(stream.getvalue().encode()).digest())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the zerocontrol package to run")
    args = parser.parse_args([] if argv is None else argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # takes effect when numpy is first imported, below
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import workloads
    from zerocontrol.cli import run_cli

    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)  # job paths are relative to it
        shutil.copytree(ROOT / "fixtures", root / "fixtures")
        cwd = os.getcwd()
        os.chdir(root)
        try:
            for workload in WORKLOADS:
                for seed in SEEDS:
                    work = root / f"{workload}-s{seed}"
                    work.mkdir()
                    plan = workloads.build(workload, seed, work, root, RUN_SECONDS, smoke=SMOKE)
                    for job in (job for jobs in plan.sets for job in jobs):
                        digest = job_digest(run_cli, job.argv)
                        total.update(digest.encode())
                        count += 1
                        print(f"{digest}  {' '.join(job.argv)}")
        finally:
            os.chdir(cwd)
    print(f"{total.hexdigest()}  total of {count} jobs")


if __name__ == "__main__":
    main(sys.argv[1:])
