"""Benchmark of the zerocontrol CLI: one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload struct-ladder --seed 1 --seconds 30 --trace 0

Inputs and oracle expectations are generated from ``--seed`` before any
timing.  Single-threaded child Pythons import ``zerocontrol.cli``; some only
time that set-up, and zygotes among them fork one worker per pass, which
sends the workload's jobs through ``run_cli``.  With ``--trace 0`` the run
reports the end-to-end metrics, each job's time taken relative to the host
probe timed right around it (see measure_e2e); with ``--trace 1`` it forks
untraced and traced passes of the first instance set and reports per-layer
metrics from the spans.  Every line but the last
is for people; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads
from hostprobe import probe

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
ZYGOTES = 3  # pass-forking children per untraced run
SETUPS_BETWEEN = 1  # import-only children before, between and after them
PASS_SHARE = 0.7  # share of --seconds the zygotes' forked passes may take
TRACE_ROUNDS = 50  # most (untraced, traced) pass pairs in a traced run
PROBE_REF_S = 0.010  # reference host speed: the probe takes 10 ms
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

E2E = {
    "setup_s": "s",
    "pass_ref_s": "s",
    "pass_cpu_ref_s": "s",
    "peak_rss_mb": "MB",
    "numeric_agreement": "ratio",
}
# span name -> metric stem; each stem reports <stem>_s (total per pass),
# <stem>_s.calls, <stem>_s.p50 and <stem>_s.tail
SPAN_METRICS = (
    "cli.import", "fileio.parse", "graph.build", "graph.reach", "graph.scc", "graph.cycle",
    "structural.zc", "structural.generic_rank", "drivers.select", "drivers.enumerate",
    "drivers.validate", "numeric.sample", "numeric.zc_test", "numeric.ctrl_test",
    "numeric.steer", "reports.render", "dotexport.export",
)
COUNT_METRICS = {
    "fileio.bytes_in": "B",
    "graph.components": "count",
    "graph.order_pairs": "count",
    "drivers.candidates": "count",
    "drivers.targets": "count",
    "numeric.trials": "count",
    "reports.bytes_out": "B",
}
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_loop_ms(repeats: int = 7) -> float:
    """Median time of the host probe, in ms: a diagnostic of host speed."""
    return 1000 * statistics.median(probe() for _ in range(repeats))


class Runner:
    """Spawns children one at a time and checks their outputs."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ, **BLAS_ENV)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, self.env.get("PYTHONPATH")]))
        self.spawned = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.child_info: dict = {}

    def spawn(self, jobs: list[workloads.Job] = (), passes: list[dict] = (),
              budget_s: float = 0.0, min_passes: int = 1) -> dict:
        """One child: import-only without ``passes``, else a zygote that forks
        each pass ({"mode", "order"}) while the passes fit ``budget_s``, and
        at least ``min_passes`` of them.
        Every pass's outputs are checked; its timings are returned."""
        self.spawned += 1
        spec_path = self.work / f"child{self.spawned:03d}.json"
        out_path = self.work / f"child{self.spawned:03d}.out.json"
        spec = {
            "mode": "passes" if passes else "setup",
            "argvs": [job.argv for job in jobs],
            "passes": list(passes),
            "budget_s": budget_s,
            "min_passes": min_passes,
            "src": str(self.root / "src"),
            "out": str(out_path),
            "env_keys": sorted(BLAS_ENV),
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.deadline - now()
        if timeout <= 0:
            raise BenchError("out of time before a child could start")
        t_spawn = now()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec_path)],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0 or not out_path.exists():
            raise BenchError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-800:]}")
        result = json.loads(out_path.read_text(encoding="utf-8"))
        # the probe before the import is not set-up; the two probes give the
        # host's speed for setup_ref_s, as for the pass times
        before, after = result["import_probe_s"]
        result["setup_s"] = result["t_ready"] - t_spawn - before
        result["setup_ref_s"] = result["setup_s"] * PROBE_REF_S / ((before + after) / 2)
        self.child_info = {"env": result["env"], "versions": result["versions"]}
        result["passes"] = []
        for i, path in result.pop("pass_files"):
            res = json.loads(Path(path).read_text(encoding="utf-8"))
            Path(path).unlink()
            order = passes[i]["order"]
            res["order"], res["inline"] = order, passes[i].get("inline", False)
            res["agreement"] = self._check([jobs[j] for j in order], res["jobs"])
            res["job_s"] = [out.get("seconds") for out in res["jobs"]]
            res["job_cpu_s"] = [out.get("cpu_seconds") for out in res["jobs"]]
            res["job_probe_s"] = [out.get("probe_s") for out in res["jobs"]]
            del res["jobs"]
            result["passes"].append(res)
        return result

    def _check(self, jobs, outputs) -> tuple[int, int]:
        """Checks every job; returns (zc agreements, trials) over verify jobs."""
        agree = trials = 0
        for job, out in zip(jobs, outputs, strict=True):
            self.attempted += 1
            if out["error"] is not None:
                problems = ["exception: " + out["error"].strip().splitlines()[-1]]
            else:
                problems = oracle.check(job.expect, out["rc"], out["stdout"])
            if problems:
                self.failures.append(f"{' '.join(job.argv)}: {'; '.join(problems)}")
            elif job.expect.kind == "verify":
                stats = json.loads(out["stdout"])["stats"]
                agree += stats["zc_agreements"]
                trials += stats["trials"]
        return agree, trials


def _rank(level: float, count: int) -> int:
    """1-based nearest-rank position of a percentile."""
    return max(1, math.ceil(round(level * count / 100, 6)))


def tail(values: list[float]) -> tuple[float, float]:
    """(level, value) of the highest listed percentile with at least ten
    samples beyond it; with fewer than 20 samples, (100, max)."""
    ordered = sorted(values)
    for level in TAIL_LEVELS:
        if len(ordered) - _rank(level, len(ordered)) >= 10:
            return level, ordered[_rank(level, len(ordered)) - 1]
    return 100.0, ordered[-1] if ordered else 0.0


def measure_e2e(runner: Runner, plan: workloads.Plan, seconds: float) -> tuple[dict, dict]:
    """ZYGOTES zygotes fork ``plan.repeats`` passes between them, with
    import-only children before, between and after them.

    The host's speed drifts by a third and more over tens of seconds, and a
    whole 30-second run can fall in a slow phase, so raw job times of one
    commit disagree between runs by more than any bound.  Each pass therefore
    times the host probe (hostprobe.py: code the program never runs) before
    the first job and after each one.  A job's sample is its time divided by
    the mean of the probes around it; its figure is the median of its samples
    over the passes, and pass_ref_s is PROBE_REF_S times the sum of those
    figures: the pass time on a host where the probe takes PROBE_REF_S.  A
    change to the program moves the job times and not the probe.  Odd passes
    run the jobs in reverse, which spreads each job's samples across the run.
    Each zygote then runs one more pass itself; as a fresh process that
    imported the CLI and ran one pass, it gives peak_rss_mb.  Set-up is taken
    the same way, against the probes around each child's import, and setup_s
    is the median over every child but the warm-up, spread across the run.
    Forked
    passes stop early when the next one would not fit, so a slow program
    still yields figures.
    """
    jobs = [job for jobs in plan.sets for job in jobs]
    runner.spawn()  # warm the bytecode and file caches; not counted
    order = list(range(len(jobs)))
    passes = [{"mode": "pass", "order": order[::(-1) ** r], "probe": True}
              for r in range(plan.repeats)]
    setups, done = [], []
    for z in range(ZYGOTES):
        setups += [runner.spawn() for _ in range(SETUPS_BETWEEN)]
        mine = passes[z::ZYGOTES] + [{"mode": "pass", "order": order, "inline": True, "probe": True}]
        zygote = runner.spawn(jobs, mine, seconds * PASS_SHARE / ZYGOTES)
        setups.append(zygote)
        done += zygote["passes"]
    setups += [runner.spawn() for _ in range(SETUPS_BETWEEN)]
    wall = [[] for _ in jobs]
    cpu = [[] for _ in jobs]
    probes = []
    for res in done:
        for j, w, c, p in zip(res["order"], res["job_s"], res["job_cpu_s"], res["job_probe_s"]):
            wall[j].append((w, w / p))
            cpu[j].append(c / p)
            probes.append(p)
    agreements = [res["agreement"] for res in done]
    if any(a != agreements[0] for a in agreements):
        runner.failures.append(f"verify agreement changed between passes: {agreements}")
    rss = [res["maxrss_kb"] / 1024 for res in done if res["inline"]]
    agree, trials = agreements[0]
    metrics = {
        "setup_s": statistics.median(child["setup_ref_s"] for child in setups),
        "pass_ref_s": PROBE_REF_S * sum(statistics.median(r for _, r in w) for w in wall),
        "pass_cpu_ref_s": PROBE_REF_S * sum(statistics.median(c) for c in cpu),
        "peak_rss_mb": statistics.median(rss),
        "numeric_agreement": agree / trials if trials else 0.0,
    }
    samples = {"passes": len(done), "setup_s": [child["setup_s"] for child in setups],
               "setup_ref_s": [child["setup_ref_s"] for child in setups],
               "pass_s": sum(statistics.median(t for t, _ in w) for w in wall),
               "probe_ms": 1000 * statistics.median(probes),
               "pass_s_raw": [res["pass_s"] for res in done],
               "peak_rss_mb": rss, "agreement": [agree, trials]}
    return {k: (v, E2E[k]) for k, v in metrics.items()}, samples


def measure_traced(runner: Runner, plan: workloads.Plan, seconds: float) -> tuple[dict, dict]:
    """Alternating untraced and traced passes over the first instance set,
    forked from one zygote while the next pass fits ``seconds``; at least
    one of each, and only whole pairs count."""
    jobs = plan.sets[0]
    order = list(range(len(jobs)))
    runner.spawn()
    passes = [{"mode": mode, "order": order} for _ in range(TRACE_ROUNDS)
              for mode in ("pass", "traced")]
    zygote = runner.spawn(jobs, passes, seconds, min_passes=2)
    done = zygote["passes"][:len(zygote["passes"]) // 2 * 2]
    untraced = [res["pass_s"] for res in done if res["mode"] == "pass"]
    traced = [res for res in done if res["mode"] == "traced"]
    rounds = len(traced)
    spans = [("cli.import", *zygote["import_span"], -1, 0)]
    counters: dict[str, float] = {}
    for rnd, res in enumerate(traced, start=1):
        spans += [(*span, rnd) for span in res["spans"]]
        for name, value in res["counters"].items():
            counters[name] = counters.get(name, 0) + value
    durations: dict[str, list[float]] = {}
    for name, t0, t1, _job, _rnd in spans:
        durations.setdefault(name, []).append(t1 - t0)
    metrics = {}
    for stem in SPAN_METRICS:
        values = durations.get(stem, [])
        per_pass = 1 if stem == "cli.import" else rounds
        name = stem + "_s"
        metrics[name] = (sum(values) / per_pass, "s")
        metrics[name + ".calls"] = (len(values) / per_pass, "count")
        p50 = sorted(values)[_rank(50, len(values)) - 1] if values else 0.0
        metrics[name + ".p50"] = (p50, "s")
        metrics[name + ".tail"] = (tail(values)[1], "s")
    for name, unit in COUNT_METRICS.items():
        metrics[name] = (counters.get(name, 0) / rounds, unit)
    calls = counters.get("drivers.calls", 0)
    metrics["drivers.minimal_share"] = (counters.get("drivers.minimal", 0) / calls if calls else 0.0, "ratio")
    traced_s = [res["pass_s"] for res in traced]
    untraced_s = statistics.median(untraced)
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (statistics.median(traced_s), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - untraced_s, "s")
    samples = {"untraced_pass_s": untraced, "traced_pass_s": traced_s, "rounds": rounds,
               "tail_levels": {s: tail(durations.get(s, []))[0] for s in SPAN_METRICS}}
    return metrics, {"samples": samples, "spans": spans}


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "zerocontrol").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest instances and a single pass (self-check)")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = now()
    root = Path.cwd()
    missing = [p for p in ("src/zerocontrol/cli.py", "fixtures/example1.pat", "fixtures/example2.pat")
               if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    out_dir = root / OUT_DIR
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        plan = workloads.build(args.workload, args.seed, work, root, args.seconds, smoke=args.smoke)
        # a 30-second run ends within 170 s; longer ones get five times --seconds
        runner = Runner(root, work, deadline=started + max(170, 5 * args.seconds))
        host_before = host_loop_ms()
        if args.trace:
            metrics, extra = measure_traced(runner, plan, 0 if args.smoke else args.seconds)
        else:
            metrics, extra = measure_e2e(runner, plan, args.seconds)
        host_after = host_loop_ms()
        if args.trace:
            metrics["host.loop_ms"] = ((host_before + host_after) / 2, "ms")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    attempted = runner.attempted
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit(root),
        "src_sha256": source_digest(root),
        "python": runner.child_info["versions"]["python"],
        "numpy": runner.child_info["versions"]["numpy"],
        "scipy": runner.child_info["versions"]["scipy"],
        "child_env": runner.child_info["env"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "sets": len(plan.sets),
        "repeats": plan.repeats,
        "jobs_per_pass": [len(s) for s in plan.sets],
        "host_loop_ms": [round(host_before, 3), round(host_after, 3)],
        "error_rate": failed / attempted if attempted else 0.0,
        "wall_s": round(now() - started, 3),
    }
    record = {"meta": meta, "metrics": metrics, "failures": runner.failures}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["samples"] = extra["samples"]
        spans_path = out_dir / f"spans-{stem}.json"
        spans_path.write_text(json.dumps(
            [{"name": n, "start": a, "end": b, "job": j, "round": r} for n, a, b, j, r in extra["spans"]]
        ), encoding="utf-8")
        meta["spans_file"] = str(spans_path.relative_to(root))
    else:
        record["samples"] = extra
    (out_dir / f"run-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("meta " + json.dumps(meta, sort_keys=True))
    for failure in runner.failures[:20]:
        print("FAILED " + failure)
    print(f"{args.workload}/error_rate = {meta['error_rate']:.6g} ratio ({failed} of {attempted} jobs)")
    print(f"{args.workload}/host_loop_ms = {host_before:.3f} before, {host_after:.3f} after (diagnostic)")
    if not args.trace:
        print(f"{args.workload}/raw = setup {statistics.median(extra['setup_s']):.6g} s, pass "
              f"{extra['pass_s']:.6g} s, with the probe at {extra['probe_ms']:.4g} ms (diagnostic)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}/{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
