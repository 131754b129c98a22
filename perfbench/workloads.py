"""Seeded inputs, job lists and oracle expectations for the three workloads.

A run's pass is every job of its ``sets``; the run makes ``repeats`` passes,
each in a fresh child.  Every random job has its own structure, drawn once
from a constant per-workload seed, so each run asks for the same work.
``--seed`` relabels each structure's states with a random permutation, so
each seed gives other pattern files, verdict for verdict and cost for cost
the same.  (Drawing the structures from the seed made a run's time follow its
draw: at n = 700 one `select` took 0.56 to 1.14 s across ten draws.)  The
fixed inputs (fixtures, chain, disjoint cycles) join the first set only.
Every job gets its own pattern file, so no file is read twice in one process.
Generation and the oracle run before any timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from oracle import Expect, Instance, expect_for

WORKLOADS = ("struct-ladder", "cover-search", "verify-mc")

# struct-ladder: random sparse rungs, a chain ending in a 2-cycle, the fixtures
LADDER_RUNGS = (100, 300, 700)
LADDER_DENSITY = 1.5
CHAIN_N = 150

# cover-search: (targets T, feeders F, targets per feeder k) per instance
COVER_SHAPES = ((14, 30, 3), (20, 20, 3), (26, 16, 4), (32, 12, 4), (40, 10, 5))
COVER_CYCLE_LENGTHS = (1, 1, 2, 2, 3)
# enumeration builds every tie's full product; from T = 32 on that swings from
# kilobytes to 50 MB between draws, so only smaller T is enumerated
ENUMERATE_MAX_T = 26
DISJOINT_CYCLES = (3, 60)
EXACT_CAP = "80"

# verify-mc: Monte Carlo sizes, and the two simulate sizes
MC_SIZES = (12, 24, 40)
MC_PER_SIZE = 2  # one zero controllable, one not; one of them with --check-controllability
MC_DENSITY = 2.0
MC_TRIALS = 100
SIM_SIZES = (150, 300)
SIM_INPUTS = 3


@dataclass
class Job:
    argv: list[str]
    expect: Expect


@dataclass
class Plan:
    sets: list[list[Job]]
    repeats: int


# (instance sets per pass, forked passes) of a 30-second run.  A pass takes
# 1-3 s; with the zygotes' own passes each job is timed 9 to 15 times.
SHAPE = {"struct-ladder": (1, 9), "cover-search": (3, 12), "verify-mc": (1, 6)}


def random_pattern(rng: random.Random, n: int, density: float, m: int, label: str) -> Instance:
    """n-by-n pattern with round(density*n) distinct uniform entries; each of
    the m input columns gets one or two entries in random rows."""
    a: set[tuple[int, int]] = set()
    while len(a) < round(density * n):
        a.add((rng.randint(1, n), rng.randint(1, n)))
    b = {(rng.randint(1, n), c) for c in range(1, m + 1) for _ in range(rng.randint(1, 2))}
    return Instance(label, n, m, frozenset(a), frozenset(b))


def relabel(inst: Instance, rng: random.Random) -> Instance:
    """The same structure with its states renamed by a random permutation."""
    perm = list(range(1, inst.n + 1))
    rng.shuffle(perm)
    new = dict(zip(range(1, inst.n + 1), perm))
    return Instance(inst.label, inst.n, inst.m,
                    frozenset((new[i], new[j]) for i, j in inst.a),
                    frozenset((new[i], c) for i, c in inst.b))


def chain(n: int) -> Instance:
    """x1 -> x2 -> ... -> x(n-1) <-> xn, no inputs."""
    a = {(i + 1, i) for i in range(1, n)} | {(n - 1, n)}
    return Instance(f"chain-{n}", n, 0, frozenset(a))


def cover_instance(rng: random.Random, targets: int, feeders: int, k: int, label: str) -> Instance:
    """``targets`` disjoint cycles fed by ``feeders`` states, each wired into
    ``k`` distinct random cycles."""
    a: set[tuple[int, int]] = set()
    cycles: list[list[int]] = []
    n = 0
    for _ in range(targets):
        length = rng.choice(COVER_CYCLE_LENGTHS)
        nodes = list(range(n + 1, n + length + 1))
        n += length
        a |= {(dst, src) for src, dst in zip(nodes, nodes[1:] + nodes[:1])}
        cycles.append(nodes)
    for _ in range(feeders):
        n += 1
        a |= {(rng.choice(cycles[t]), n) for t in rng.sample(range(targets), k)}
    return Instance(label, n, 0, frozenset(a))


def disjoint_cycles(count: int, length: int) -> Instance:
    a = set()
    for c in range(count):
        nodes = [c * length + v for v in range(1, length + 1)]
        a |= {(dst, src) for src, dst in zip(nodes, nodes[1:] + nodes[:1])}
    return Instance(f"{count}x{length}-cycles", count * length, 0, frozenset(a))


def fixture(root: Path, name: str) -> Instance:
    """Fixture file read with a minimal parser (the program's own parser is
    what is being measured, so it is not used here)."""
    n = m = 0
    a, b = set(), set()
    for raw in (root / "fixtures" / name).read_text(encoding="utf-8").splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "n":
            n = int(tokens[1])
        elif tokens[0] == "m":
            m = int(tokens[1])
        else:
            (a if tokens[0] == "a" else b).add((int(tokens[1]), int(tokens[2])))
    return Instance(name, n, m, frozenset(a), frozenset(b))


def balanced_mc(rng: random.Random, n: int, want_zc: bool, label: str) -> Instance:
    """A random verify-mc pattern with the requested structural verdict."""
    for _ in range(10_000):
        inst = random_pattern(rng, n, MC_DENSITY, 1, label)
        if inst.zc_expectation(inst.b)["verdict"] is want_zc:
            return inst
    raise RuntimeError(f"no pattern with verdict {want_zc} at n={n}")


class _Writer:
    """Writes one pattern file per job under the work directory."""

    def __init__(self, work: Path, root: Path):
        self.work, self.root, self.count = work, root, 0

    def __call__(self, inst: Instance, kind: str, args: list[str], **expect) -> Job:
        self.count += 1
        path = self.work / f"job{self.count:04d}.pat"
        path.write_text(inst.text(f"job {self.count}, {kind}"), encoding="utf-8")
        command = "select" if kind == "enumerate" else kind
        argv = [command, str(path.relative_to(self.root))] + args
        return Job(argv, expect_for("select" if kind == "enumerate" else kind, inst, **expect))


def _fixture_jobs(job: _Writer, root: Path) -> list[Job]:
    """Both fixtures through all five subcommands, as in the README."""
    ex1, ex2 = fixture(root, "example1.pat"), fixture(root, "example2.pat")
    drivers = ["--drivers", "x4,x8"]
    return [
        job(ex1, "analyze", ["--format", "json"]),
        job(ex1, "select", ["--format", "json"]),
        job(ex1, "verify", ["--format", "json", "--check-controllability"], ctrl=True,
            trials=MC_TRIALS),
        job(ex1, "simulate", ["--format", "json"]),
        job(ex1, "export-dot", []),
        job(ex2, "analyze", ["--format", "json"]),
        job(ex2, "enumerate", ["--enumerate", "--format", "json"], limit=100, exact=True),
        job(ex2, "verify", ["--format", "json"] + drivers, drivers=[4, 8], trials=MC_TRIALS),
        job(ex2, "simulate", ["--format", "json", "--horizon", "11"] + drivers,
            drivers=[4, 8], horizon=11),
        job(ex2, "export-dot", drivers, drivers=[4, 8]),
    ]


def _ladder_set(draw: random.Random, label: random.Random, job: _Writer, root: Path,
                smoke: bool, first: bool) -> list[Job]:
    jobs = []
    for n in LADDER_RUNGS[:1] if smoke else LADDER_RUNGS:
        for kind, args in (("analyze", ["--format", "json"]), ("select", ["--format", "json"]),
                           ("export-dot", [])):
            inst = random_pattern(draw, n, LADDER_DENSITY, draw.randint(1, 2), f"ladder-{n}")
            jobs.append(job(relabel(inst, label), kind, args))
    if first and not smoke:
        inst = chain(CHAIN_N)
        jobs += [
            job(inst, "analyze", ["--format", "json"]),
            job(inst, "select", ["--format", "json"]),
            job(inst, "export-dot", []),
        ]
    return jobs + _fixture_jobs(job, root) if first else jobs


def _cover_set(draw: random.Random, label: random.Random, job: _Writer, root: Path,
               smoke: bool, first: bool) -> list[Job]:
    jobs = []
    cap = ["--exact-cap", EXACT_CAP, "--format", "json"]
    for t, f, k in COVER_SHAPES[:1] if smoke else COVER_SHAPES:
        kinds = [("select", cap)]
        if t <= ENUMERATE_MAX_T:
            kinds.append(("enumerate", ["--enumerate", "--limit", "20"] + cap))
        for kind, args in kinds:
            inst = relabel(cover_instance(draw, t, f, k, f"cover-T{t}-F{f}-k{k}"), label)
            jobs.append(job(inst, kind, args, limit=20 if kind == "enumerate" else None,
                            exact=True))
    if not first:
        return jobs
    count, length = (3, 5) if smoke else DISJOINT_CYCLES
    inst = disjoint_cycles(count, length)
    firsts = [c * length + 1 for c in range(count - 1)]
    lex_first = [firsts + [(count - 1) * length + v] for v in range(1, 6)]
    jobs.append(job(inst, "enumerate", ["--enumerate", "--limit", "5"] + cap, limit=5,
                    exact=True, exact_list=lex_first))
    # the README's select-then-verify step, so every workload reports agreement
    ex2 = fixture(root, "example2.pat")
    jobs.append(job(ex2, "verify", ["--format", "json", "--drivers", "x4,x8"], drivers=[4, 8],
                    trials=MC_TRIALS))
    return jobs


def _mc_set(draw: random.Random, label: random.Random, job: _Writer, root: Path,
            smoke: bool, first: bool) -> list[Job]:
    jobs = []
    for size, n in enumerate(MC_SIZES[:1] if smoke else MC_SIZES):
        for k in range(MC_PER_SIZE):
            inst = relabel(balanced_mc(draw, n, k == 0, f"mc-{n}"), label)
            ctrl = k == (size + 1) % 2  # alternates between the two verdicts
            args = ["--trials", str(MC_TRIALS), "--format", "json"]
            args += ["--check-controllability"] if ctrl else []
            jobs.append(job(inst, "verify", args, ctrl=ctrl, trials=MC_TRIALS))
    for n in SIM_SIZES[:1] if smoke else SIM_SIZES:
        inst = random_pattern(draw, n, LADDER_DENSITY, SIM_INPUTS, f"sim-{n}")
        jobs.append(job(relabel(inst, label), "simulate", ["--format", "json"]))
    return jobs


_BUILDERS = {"struct-ladder": _ladder_set, "cover-search": _cover_set, "verify-mc": _mc_set}


def build(workload: str, seed: int, work: Path, root: Path, seconds: float,
          smoke: bool = False) -> Plan:
    """Write every pattern file of the run and compute its expectations.  The
    set count is fixed per workload; repeats scale with ``seconds``."""
    draw = random.Random(f"{workload}:structures")
    label = random.Random(f"{workload}:{seed}")
    job = _Writer(work, root)
    count, repeats = (1, 1) if smoke else SHAPE[workload]
    sets = [_BUILDERS[workload](draw, label, job, root, smoke, k == 0) for k in range(count)]
    return Plan(sets, max(1, round(repeats * seconds / 30)))
