"""One benchmark child process.

Usage: python3 perfbench/child.py SPEC.json

The spec names a mode.  ``setup`` only imports the CLI.  ``passes`` makes
the child a zygote: after the import it forks one worker per listed pass,
one at a time, and each worker runs its jobs in a process where the CLI is
imported and nothing else has run yet, as in a one-shot CLI process.  A
``pass`` worker sends every argv through ``zerocontrol.cli.run_cli`` with
stdout and stderr captured; with ``probe`` set it also times the host probe
before the first job and after each one.  A ``traced`` worker runs the
span-recording mirror of the same jobs (trace_pass.py).  Each worker writes one JSON result
file; after ``min_passes`` the zygote stops forking when the next pass
would end past its budget.  A pass marked ``inline`` runs in the zygote
itself, last, so its peak RSS is that of a one-shot CLI process.  The zygote
then writes its own result file.  The child times the host probe right
before and right after the CLI import, and nothing else runs before the
import, so the parent can time set-up as spawn-to-import minus the first
probe, relative to the host's speed at the time.
"""

import time

from hostprobe import probe

PROBE_BEFORE = probe()
T_IMPORT = time.clock_gettime(time.CLOCK_MONOTONIC)
import zerocontrol.cli  # noqa: E402

T_READY = time.clock_gettime(time.CLOCK_MONOTONIC)
PROBE_AFTER = probe()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_jobs(argvs: list[list[str]], probed: bool = False) -> list[dict]:
    """Runs each argv through the CLI.  When ``probed``, each job also gets
    ``probe_s``: the mean of the probes timed right before and after it."""
    jobs = []
    before = probe() if probed else None
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        start, cpu_start = now(), cpu_seconds()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc, error = zerocontrol.cli.run_cli(argv), None
        except Exception:  # a crash fails this job; the pass goes on
            rc, error = None, traceback.format_exc(limit=4)
        jobs.append({
            "rc": rc,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
            "error": error,
            "seconds": now() - start,
            "cpu_seconds": cpu_seconds() - cpu_start,
        })
        if probed:
            after = probe()
            jobs[-1]["probe_s"] = (before + after) / 2
            before = after
    return jobs


def worker(mode: str, argvs: list[list[str]], out: str, probed: bool = False) -> None:
    """One pass in a freshly forked process; writes its result file."""
    result = {"mode": mode}
    wall0, cpu0 = now(), cpu_seconds()
    if mode == "pass":
        result["jobs"] = run_jobs(argvs, probed)
    else:
        import trace_pass

        result["jobs"], result["spans"], result["counters"] = trace_pass.run(argvs)
    result["pass_s"] = now() - wall0
    result["pass_cpu_s"] = cpu_seconds() - cpu0
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(out).write_text(json.dumps(result), encoding="utf-8")


def zygote(spec: dict) -> list[tuple[int, str]]:
    """Forks the listed passes one at a time while they fit the budget, then
    runs the inline pass, if any; returns (pass index, result file) pairs."""
    if any(p["mode"] == "traced" for p in spec["passes"]):
        import trace_pass  # noqa: F401  (imported once, before any fork)
    # fork copies only the calling thread; BLAS pinned to one thread starts none
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1
    if threads != 1:
        sys.exit(f"the zygote runs {threads} threads; forking it is unsafe")
    passes = list(enumerate(spec["passes"]))
    forked = [(i, p) for i, p in passes if not p.get("inline")]
    start, longest, outs = now(), 0.0, []
    for k, (i, p) in enumerate(forked):
        if k >= spec["min_passes"] and now() - start + longest > spec["budget_s"]:
            break
        out = f"{spec['out']}.pass{i:03d}.json"
        argvs = [spec["argvs"][j] for j in p["order"]]
        t0 = now()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                worker(p["mode"], argvs, out, p.get("probe", False))
            except BaseException:  # the worker must never return into this loop
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            sys.exit(f"pass {i} worker failed with status {status}")
        longest = max(longest, now() - t0)
        outs.append((i, out))
    for i, p in passes:
        if p.get("inline"):
            out = f"{spec['out']}.pass{i:03d}.json"
            worker(p["mode"], [spec["argvs"][j] for j in p["order"]], out, p.get("probe", False))
            outs.append((i, out))
    return outs


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    module = Path(zerocontrol.cli.__file__).resolve()
    if src not in module.parents:
        sys.exit(f"zerocontrol imported from {module}, not from {src}")
    numpy, scipy = sys.modules.get("numpy"), sys.modules.get("scipy")
    result = {
        "t_ready": T_READY,
        "import_span": [T_IMPORT, T_READY],
        "import_probe_s": [PROBE_BEFORE, PROBE_AFTER],
        "env": {k: os.environ.get(k) for k in spec["env_keys"]},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": getattr(numpy, "__version__", None),
            "scipy": getattr(scipy, "__version__", None),
        },
        "pass_files": zygote(spec) if spec["mode"] == "passes" else [],
    }
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
