"""Traced mirror of the CLI pipelines, built from public calls only.

Each job's argv goes through the CLI's own argument parser, then runs as the same
sequence of library calls the subcommand makes, with one span per call:
(name, start, end, job).  Where a composite call hides lower-layer work
(``is_generically_zero_controllable`` builds the graph, reaches and runs the
SCC decomposition), those lower-layer functions are also called on the same
input as sibling spans.  Spans stay in memory until the pass ends.  The
documents the mirror renders are checked exactly like the CLI's stdout.
"""

from __future__ import annotations

import json
import time
import traceback
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from zerocontrol.cli import _build_parser, _parse_drivers
from zerocontrol.dotexport import export_dot
from zerocontrol.drivers import (
    build_b_pattern,
    enumerate_minimal_driver_sets,
    minimal_driver_set,
    validate_driver_set,
)
from zerocontrol.fileio import parse_pattern_file
from zerocontrol.graph import build_graph, find_cycle, reachable_from, scc_decompose
from zerocontrol.numeric import (
    MonteCarloStats,
    deadbeat_steer,
    is_controllable_numeric,
    is_zero_controllable_numeric,
    sample_realization,
)
from zerocontrol.reports import (
    b_pattern_to_dict,
    driver_set_to_dict,
    stats_to_dict,
    steering_to_dict,
    zc_report_to_dict,
)
from zerocontrol.structural import (
    generic_rank,
    is_generically_controllable,
    is_generically_zero_controllable,
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self.job = -1

    @contextmanager
    def span(self, name: str):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            yield
        finally:
            self.spans.append((name, start, time.clock_gettime(time.CLOCK_MONOTONIC), self.job))

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _load(tr: Tracer, path: str):
    with tr.span("fileio.parse"):
        data = Path(path).read_bytes()
        pattern_a, pattern_b = parse_pattern_file(data.decode("utf-8"))
    tr.count("fileio.bytes_in", len(data))
    return pattern_a, pattern_b


def _inputs(args, pattern_a, pattern_b):
    if args.drivers:
        mode = "per_driver" if args.b_mode == "per-driver" else "shared"
        return build_b_pattern(pattern_a.n_rows, _parse_drivers(args.drivers), mode).pattern
    return pattern_b


def _render(tr: Tracer, make_doc) -> str:
    with tr.span("reports.render"):
        text = json.dumps(make_doc(), indent=2, sort_keys=True) + "\n"
    tr.count("reports.bytes_out", len(text))
    return text


def _structure_siblings(tr: Tracer, graph, sources, unreachable, blocking) -> None:
    """The graph-layer calls a zero-controllability verdict makes internally."""
    with tr.span("graph.reach"):
        reachable_from(graph, sources)
    with tr.span("graph.scc"):
        scc = scc_decompose(graph)
    tr.count("graph.components", len(scc.components))
    tr.count("graph.order_pairs", len(scc.order))
    if blocking:
        with tr.span("graph.cycle"):
            find_cycle(graph, within=unreachable)


def _analyze(tr: Tracer, args):
    pattern_a, pattern_b = _load(tr, args.file)
    with tr.span("structural.zc"):
        report = is_generically_zero_controllable(pattern_a, pattern_b)
    with tr.span("graph.build"):
        graph = build_graph(pattern_a, pattern_b)
    _structure_siblings(tr, graph, graph.input_vertices, report.unreachable_states,
                        report.nontrivial_unreachable_components)
    text = _render(tr, lambda: {"command": "analyze", "report": zc_report_to_dict(report)})
    return (0 if report.verdict else 1), text


def _select(tr: Tracer, args):
    pattern_a, _ = _load(tr, args.file)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if args.enumerate:
            with tr.span("drivers.enumerate"):
                enumeration = enumerate_minimal_driver_sets(
                    pattern_a, limit=args.limit, exact_cap=args.exact_cap
                )
            chosen = enumeration[0]
        else:
            with tr.span("drivers.select"):
                chosen = minimal_driver_set(pattern_a, exact_cap=args.exact_cap)
            enumeration = None
    tr.count("drivers.calls")
    tr.count("drivers.minimal", chosen.minimal)
    with tr.span("graph.build"):
        graph = build_graph(pattern_a)
    with tr.span("graph.scc"):
        scc = scc_decompose(graph)
    tr.count("graph.components", len(scc.components))
    tr.count("graph.order_pairs", len(scc.order))
    targets = {k for k, nt in enumerate(scc.nontrivial) if nt}
    candidates = targets | {a for a, b in scc.order if b in targets}
    tr.count("drivers.targets", len(targets))
    tr.count("drivers.candidates", len(candidates))
    with tr.span("drivers.validate"):
        validate_driver_set(pattern_a, chosen.drivers)
    mode = "per_driver" if args.b_mode == "per-driver" else "shared"
    bp = build_b_pattern(pattern_a.n_rows, chosen.drivers, mode)

    def doc():
        out = {"command": "select", "driver_set": driver_set_to_dict(chosen),
               "b_pattern": b_pattern_to_dict(bp)}
        if enumeration is not None:
            out["enumeration"] = [driver_set_to_dict(ds) for ds in enumeration]
        return out

    return 0, _render(tr, doc)


def _verify(tr: Tracer, args):
    pattern_a, pattern_b = _load(tr, args.file)
    pattern_b = _inputs(args, pattern_a, pattern_b)
    with tr.span("structural.zc"):
        zc_structural = is_generically_zero_controllable(pattern_a, pattern_b).verdict
    ctrl_structural = None
    if args.check_controllability:
        with tr.span("structural.ctrl"):
            ctrl_structural = is_generically_controllable(pattern_a, pattern_b).verdict
        stacked = pattern_a.hstack(pattern_b) if pattern_b is not None else pattern_a
        with tr.span("structural.generic_rank"):
            generic_rank(stacked)
    zc_agree = ctrl_agree = inconsistent = 0
    disagreeing = []
    for i in range(args.trials):
        seed = args.seed + i
        with tr.span("numeric.sample"):
            realization = sample_realization(pattern_a, pattern_b, seed)
        with tr.span("numeric.zc_test"):
            zc = is_zero_controllable_numeric(realization, args.tol)
        tr.count("numeric.trials")
        if zc.verdict == zc_structural:
            zc_agree += 1
        else:
            disagreeing.append(seed)
        inconsistent += not zc.consistent
        if args.check_controllability:
            with tr.span("numeric.ctrl_test"):
                ctrl = is_controllable_numeric(realization, args.tol)
            ctrl_agree += ctrl.verdict == ctrl_structural
            inconsistent += not ctrl.consistent
    stats = MonteCarloStats(
        trials=args.trials,
        base_seed=args.seed,
        zc_structural=zc_structural,
        zc_agreements=zc_agree,
        inconsistent_trials=inconsistent,
        disagreeing_seeds=tuple(disagreeing),
        ctrl_structural=ctrl_structural,
        ctrl_agreements=ctrl_agree if args.check_controllability else None,
    )
    text = _render(tr, lambda: {"command": "verify", "stats": stats_to_dict(stats)})
    return (0 if stats.agreement_fraction >= args.min_agreement else 1), text


def _simulate(tr: Tracer, args):
    pattern_a, pattern_b = _load(tr, args.file)
    pattern_b = _inputs(args, pattern_a, pattern_b)
    n = pattern_a.n_rows
    with tr.span("numeric.sample"):
        realization = sample_realization(pattern_a, pattern_b, args.seed)
    x0 = np.random.default_rng(args.seed + 1).standard_normal(n)
    x0 = x0 / float(np.linalg.norm(x0))
    with tr.span("numeric.steer"):
        result = deadbeat_steer(realization, x0, args.horizon if args.horizon is not None else n)
    text = _render(tr, lambda: {"command": "simulate", "seed": args.seed,
                                "steering": steering_to_dict(result)})
    return 0, text


def _export_dot(tr: Tracer, args):
    pattern_a, pattern_b = _load(tr, args.file)
    report = None
    if args.drivers:
        with tr.span("drivers.validate"):
            report = validate_driver_set(pattern_a, _parse_drivers(args.drivers))
        with tr.span("graph.build"):
            graph = build_graph(pattern_a)
    else:
        with tr.span("graph.build"):
            graph = build_graph(pattern_a, pattern_b)
        if pattern_b is not None:
            with tr.span("structural.zc"):
                report = is_generically_zero_controllable(pattern_a, pattern_b)
    with tr.span("graph.scc"):
        scc = scc_decompose(graph)
    tr.count("graph.components", len(scc.components))
    tr.count("graph.order_pairs", len(scc.order))
    with tr.span("dotexport.export"):
        text = export_dot(graph, scc, report)
    tr.count("reports.bytes_out", len(text))
    return 0, text


_MIRRORS = {"analyze": _analyze, "select": _select, "verify": _verify,
            "simulate": _simulate, "export-dot": _export_dot}


def run(argvs: list[list[str]]):
    """Run the mirror of every job; returns (jobs, spans, counters)."""
    tr, parser, jobs = Tracer(), _build_parser(), []
    for k, argv in enumerate(argvs):
        tr.job = k
        args = parser.parse_args(argv)
        with tr.span("job." + args.command):
            try:
                rc, text = _MIRRORS[args.command](tr, args)
                jobs.append({"rc": rc, "stdout": text, "error": None})
            except Exception:  # a crash fails this job; the pass goes on
                jobs.append({"rc": None, "stdout": "", "error": traceback.format_exc(limit=4)})
    return jobs, tr.spans, tr.counters
