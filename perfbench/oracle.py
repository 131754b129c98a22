"""Independent expectations for the benchmark's jobs, and the output checks.

Everything here is computed with networkx from the generated entry lists; it
never imports ``zerocontrol``.  Conventions follow the pattern-file format: a
state entry ``a i j`` is the edge x_j -> x_i and an input entry ``b i c`` is
the edge u_c -> x_i.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import networkx as nx
from networkx.algorithms import bipartite

REACHABLE_FILL = "palegreen"
UNREACHABLE_FILL = "lightpink"


@dataclass
class Instance:
    """A generated pattern pair: n states, m input columns, 1-based entries."""

    label: str
    n: int
    m: int
    a: frozenset[tuple[int, int]]
    b: frozenset[tuple[int, int]] = frozenset()

    def text(self, note: str) -> str:
        lines = [f"# {self.label} ({note})", f"n {self.n}"]
        if self.m:
            lines.append(f"m {self.m}")
        lines += [f"a {i} {j}" for i, j in sorted(self.a)]
        lines += [f"b {i} {c}" for i, c in sorted(self.b)]
        return "\n".join(lines) + "\n"

    @cached_property
    def state_graph(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(range(1, self.n + 1))
        g.add_edges_from((j, i) for i, j in self.a)
        return g

    @cached_property
    def condensation(self) -> nx.DiGraph:
        return nx.condensation(self.state_graph)

    @cached_property
    def components(self) -> list[tuple[frozenset[int], bool]]:
        """Every strongly connected component with its nontrivial flag (more
        than one state, or a self-loop)."""
        out = []
        for c in self.condensation.nodes:
            members = frozenset(self.condensation.nodes[c]["members"])
            v = next(iter(members))
            out.append((members, len(members) > 1 or self.state_graph.has_edge(v, v)))
        return out

    @cached_property
    def target_components(self) -> frozenset[int]:
        mapping = self.condensation.graph["mapping"]
        return frozenset(
            mapping[next(iter(members))] for members, nontrivial in self.components if nontrivial
        )

    def reached_from_states(self, states) -> set[int]:
        reached = set(states)
        for s in states:
            reached |= nx.descendants(self.state_graph, s)
        return reached

    def drivers_valid(self, drivers) -> bool:
        """Every cycle reachable from the driver states."""
        mapping = self.condensation.graph["mapping"]
        covered = set()
        for d in {mapping[s] for s in drivers}:
            covered.add(d)
            covered |= nx.descendants(self.condensation, d)
        return self.target_components <= covered

    def zc_expectation(self, b_entries) -> dict:
        """Reachable set, verdict and blocking components for the pair (A, B)."""
        reached = self.reached_from_states({i for i, _ in b_entries})
        unreachable = frozenset(range(1, self.n + 1)) - reached
        blocking = [members for members, nt in self.components if nt and members <= unreachable]
        return {
            "verdict": not blocking,
            "unreachable": unreachable,
            "blocking": {frozenset(members) for members in blocking},
        }

    def ctrl_expectation(self, b_entries) -> bool:
        """Generic controllability: every state input-reachable and the stacked
        pattern [A B] of full term rank (maximum bipartite matching)."""
        if self.zc_expectation(b_entries)["unreachable"]:
            return False
        g = nx.Graph()
        rows = [("r", i) for i in range(1, self.n + 1)]
        g.add_nodes_from(rows)
        g.add_edges_from((("r", i), ("a", j)) for i, j in self.a)
        g.add_edges_from((("r", i), ("b", c)) for i, c in b_entries)
        matching = bipartite.hopcroft_karp_matching(g, top_nodes=rows)
        return sum(1 for r in rows if r in matching) == self.n


def driver_b_entries(drivers: list[int]) -> frozenset[tuple[int, int]]:
    """Per-driver input pattern: one column per driver, ascending state order."""
    return frozenset((i, k) for k, i in enumerate(sorted(drivers), start=1))


# --- expectations ---------------------------------------------------------------


@dataclass
class Expect:
    """What a job's output must satisfy; ``inst`` is kept parent-side only."""

    kind: str
    inst: Instance
    zc: dict | None = None
    ctrl: bool | None = None
    drivers_arg: list[int] | None = None
    limit: int | None = None
    exact: bool = False
    exact_list: list[list[int]] | None = None
    extra: dict = field(default_factory=dict)


def expect_for(kind: str, inst: Instance, *, drivers=None, ctrl=False, limit=None,
               exact=False, exact_list=None, **extra) -> Expect:
    b_entries = driver_b_entries(drivers) if drivers else inst.b
    exp = Expect(kind, inst, drivers_arg=drivers, limit=limit, exact=exact,
                 exact_list=exact_list, extra=extra)
    if kind in ("analyze", "verify") or (kind == "export-dot" and (drivers or inst.m)):
        exp.zc = inst.zc_expectation(b_entries)
    if kind == "verify" and ctrl:
        exp.ctrl = inst.ctrl_expectation(b_entries)
    # touch the cached structure now, so checking a pass does no graph work
    _ = inst.components, inst.target_components
    return exp


# --- checks ---------------------------------------------------------------------


def _idx(name: str, kind: str = "x") -> int:
    if not isinstance(name, str) or not re.fullmatch(kind + r"[1-9][0-9]*", name):
        raise ValueError(f"bad vertex name {name!r}")
    return int(name[1:])


def _check_cycle(witness, allowed: frozenset[int], inst: Instance) -> list[str]:
    if not witness:
        return ["negative verdict without a cycle witness"]
    edges = [(_idx(s), _idx(d)) for s, d in witness]
    problems = []
    for (s, d), (s2, _) in zip(edges, edges[1:] + edges[:1]):
        if d != s2:
            problems.append("cycle witness does not close up")
            break
    if not all(inst.state_graph.has_edge(s, d) for s, d in edges):
        problems.append("cycle witness uses a non-edge")
    starts = [s for s, _ in edges]
    if len(set(starts)) != len(starts):
        problems.append("cycle witness repeats a state")
    if not set(starts) <= allowed:
        problems.append("cycle witness leaves the unreachable states")
    return problems


def _check_zc_doc(report: dict, zc: dict, inst: Instance) -> list[str]:
    problems = []
    if report["verdict"] is not zc["verdict"]:
        problems.append(f"verdict {report['verdict']} != oracle {zc['verdict']}")
    unreach = {_idx(v) for v in report["unreachable_states"]}
    if unreach != zc["unreachable"]:
        problems.append("unreachable set differs from the oracle")
    if {_idx(v) for v in report["reachable_states"]} != set(range(1, inst.n + 1)) - zc["unreachable"]:
        problems.append("reachable set differs from the oracle")
    comps = {frozenset(_idx(v) for v in c) for c in report["nontrivial_unreachable_components"]}
    if comps != zc["blocking"]:
        problems.append("blocking components differ from the oracle")
    if zc["verdict"]:
        if report["cycle_witness"] is not None:
            problems.append("positive verdict with a cycle witness")
    else:
        problems += _check_cycle(report["cycle_witness"], zc["unreachable"], inst)
    return problems


def _check_driver_doc(ds: dict, inst: Instance, exact: bool) -> list[str]:
    drivers = [_idx(v) for v in ds["drivers"]]
    problems = []
    if drivers != sorted(set(drivers)) or ds["size"] != len(drivers):
        problems.append("driver list not sorted, unique and sized")
    if not all(1 <= d <= inst.n for d in drivers):
        problems.append("driver outside the state range")
        return problems
    if not ds["valid"] or not inst.drivers_valid(drivers):
        problems.append("driver set is not valid")
    if exact and not ds["minimal"]:
        problems.append("exact search expected, got a non-minimal set")
    if ds["minimal"] and any(inst.drivers_valid([d for d in drivers if d != x]) for x in drivers):
        problems.append("set flagged minimal but a driver can be dropped")
    return problems


def _check_select(doc: dict, exp: Expect) -> list[str]:
    ds = doc["driver_set"]
    problems = _check_driver_doc(ds, exp.inst, exp.exact)
    bp = doc["b_pattern"]
    want = [[i, k] for k, i in enumerate((_idx(v) for v in ds["drivers"]), start=1)]
    if bp["n_rows"] != exp.inst.n or bp["n_cols"] != ds["size"] or bp["entries"] != want:
        problems.append("induced input pattern does not match the drivers")
    if exp.limit is not None:
        listing = doc.get("enumeration")
        if not listing:
            return problems + ["enumeration missing"]
        sets = [[_idx(v) for v in e["drivers"]] for e in listing]
        if len(sets) > exp.limit:
            problems.append("enumeration exceeds its limit")
        if sets != sorted(sets) or len({tuple(s) for s in sets}) != len(sets):
            problems.append("enumeration not sorted and distinct")
        if sets[0] != [_idx(v) for v in ds["drivers"]]:
            problems.append("enumeration does not start with the selected set")
        if any(e["size"] != ds["size"] for e in listing):
            problems.append("enumerated sets differ in size")
        if not all(e["valid"] and exp.inst.drivers_valid(s) for e, s in zip(listing, sets)):
            problems.append("enumerated set is not valid")
        if exp.exact_list is not None and sets != exp.exact_list:
            problems.append("enumeration differs from the expected lex-first sets")
    return problems


def _check_verify(doc: dict, exp: Expect, rc: int) -> list[str]:
    s = doc["stats"]
    problems = []
    trials = exp.extra["trials"]
    if s["trials"] != trials or not 0 <= s["zc_agreements"] <= trials:
        problems.append("trial counts out of range")
    if s["zc_structural"] is not exp.zc["verdict"]:
        problems.append(f"zc_structural {s['zc_structural']} != oracle {exp.zc['verdict']}")
    if not math.isclose(s["agreement_fraction"], s["zc_agreements"] / trials):
        problems.append("agreement fraction inconsistent")
    if rc != (0 if s["agreement_fraction"] >= 0.95 else 1):
        problems.append(f"exit code {rc} does not match the agreement")
    if exp.ctrl is not None:
        if s["ctrl_structural"] is not exp.ctrl:
            problems.append(f"ctrl_structural {s['ctrl_structural']} != oracle {exp.ctrl}")
        if not 0 <= (s["ctrl_agreements"] or 0) <= trials:
            problems.append("controllability agreements out of range")
    return problems


def _check_simulate(doc: dict, exp: Expect) -> list[str]:
    st = doc["steering"]
    n, m = exp.inst.n, len(exp.drivers_arg) if exp.drivers_arg else exp.inst.m
    horizon = exp.extra.get("horizon") or n
    traj, controls = st["trajectory"], st["controls"]
    problems = []
    if st["horizon"] != horizon or len(traj) != horizon + 1 or len(controls) != horizon:
        problems.append("steering horizon or lengths wrong")
    elif any(len(row) != n for row in traj) or any(len(row) != m for row in controls):
        problems.append("steering array widths wrong")
    else:
        x0 = math.sqrt(sum(v * v for v in traj[0]))
        last = math.sqrt(sum(v * v for v in traj[-1]))
        if not math.isclose(x0, 1.0, rel_tol=1e-9):
            problems.append("start state is not unit-norm")
        if not math.isclose(st["final_norm"], last, rel_tol=1e-9, abs_tol=1e-300):
            problems.append("final_norm does not match the trajectory")
    return problems


_CLUSTER = re.compile(r'  subgraph cluster_(\d+) \{')
_NODE = re.compile(r"    (x\d+)(?: \[(.*)\])?;")
_EDGE = re.compile(r"  ([xu]\d+) -> (x\d+);")


def _check_dot(text: str, exp: Expect) -> list[str]:
    inst = exp.inst
    lines = text.split("\n")
    if lines[:3] != ["digraph system {", "  rankdir=LR;", "  node [shape=circle];"] or lines[-2:] != ["}", ""]:
        return ["DOT header or footer malformed"]
    clusters: list[tuple[set[int], bool]] = []
    attrs: dict[int, str] = {}
    state_edges, input_edges = set(), set()
    for line in lines[3:-2]:
        if _CLUSTER.fullmatch(line):
            clusters.append((set(), False))
        elif line == "    peripheries=2;":
            clusters[-1] = (clusters[-1][0], True)
        elif (mt := _NODE.fullmatch(line)) is not None:
            v = _idx(mt.group(1))
            clusters[-1][0].add(v)
            attrs[v] = mt.group(2) or ""
        elif (mt := _EDGE.fullmatch(line)) is not None:
            src, dst = mt.group(1), _idx(mt.group(2))
            if src[0] == "x":
                state_edges.add((_idx(src), dst))
            else:
                input_edges.add((_idx(src, "u"), dst))
    problems = []
    got = {(frozenset(members), nt) for members, nt in clusters}
    if len(clusters) != len(inst.components) or got != set(inst.components):
        problems.append("DOT clusters differ from the oracle components")
    if state_edges != {(j, i) for i, j in inst.a}:
        problems.append("DOT state edges differ from the pattern")
    want_inputs = set() if exp.drivers_arg else {(c, i) for i, c in inst.b}
    if input_edges != want_inputs:
        problems.append("DOT input edges differ from the pattern")
    if exp.zc is not None:
        reached = set(range(1, inst.n + 1)) - exp.zc["unreachable"]
        drivers = set(exp.drivers_arg or ())
        for v in range(1, inst.n + 1):
            fill = REACHABLE_FILL if v in reached else UNREACHABLE_FILL
            if f"fillcolor={fill}" not in attrs.get(v, "") or (v in drivers) != ("doublecircle" in attrs.get(v, "")):
                problems.append(f"DOT marks x{v} wrongly")
                break
    elif any(attrs.values()):
        problems.append("DOT fills states although nothing was analysed")
    return problems


EXPECTED_RC = {"select": 0, "simulate": 0, "export-dot": 0}


def check(exp: Expect, rc: int, stdout: str) -> list[str]:
    """Problems with one job's exit code and stdout; empty when it passes."""
    if rc == 2:
        return ["exit code 2"]
    if exp.kind in EXPECTED_RC and rc != EXPECTED_RC[exp.kind]:
        return [f"exit code {rc}"]
    try:
        if exp.kind == "export-dot":
            return _check_dot(stdout, exp)
        doc = json.loads(stdout)
        if exp.kind == "analyze":
            problems = _check_zc_doc(doc["report"], exp.zc, exp.inst)
            if rc != (0 if exp.zc["verdict"] else 1):
                problems.append(f"exit code {rc} does not match the verdict")
            return problems
        if exp.kind == "select":
            return _check_select(doc, exp)
        if exp.kind == "verify":
            return _check_verify(doc, exp, rc)
        if exp.kind == "simulate":
            return _check_simulate(doc, exp)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"unknown job kind {exp.kind!r}")
