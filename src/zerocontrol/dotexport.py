"""Graphviz DOT rendering of the system graph, its strongly connected
components, and analysis results."""

from __future__ import annotations

from typing import Iterable

from .drivers import DriverSet
from .graph import SccDecomposition, SystemGraph, _reach_states, _state_ids, input_name, state_name
from .structural import ZcReport

REACHABLE_FILL = "palegreen"
UNREACHABLE_FILL = "lightpink"


def export_dot(
    graph: SystemGraph,
    scc: SccDecomposition,
    report: ZcReport | DriverSet | None = None,
) -> str:
    """Deterministic DOT text: one cluster per component (double border for
    nontrivial ones), reachable and unreachable states in distinct fills,
    driver vertices drawn as double circles."""
    if isinstance(report, ZcReport):
        ids = set(_state_ids(graph.n_states, report.reachable_states, "reachable vertices must be states"))
        return _dot(graph, scc, bytes(v in ids for v in range(graph.n_states + 1)))
    if isinstance(report, DriverSet):
        drivers = _state_ids(graph.n_states, report.drivers, "driver vertices must be states")
        return _dot(graph, scc, _reach_states(graph, drivers), drivers)
    return _dot(graph, scc)


def _dot(graph: SystemGraph, scc: SccDecomposition, reached: bytes | None = None, drivers: Iterable[int] = ()) -> str:
    """export_dot on state ids: ``reached[v]`` picks state v's fill, ``drivers`` are state ids."""
    n = graph.n_states
    fills = [f" [style=filled, fillcolor={fill}]" for fill in (UNREACHABLE_FILL, REACHABLE_FILL)]
    attrs = [""] * (n + 1) if reached is None else [fills[r] for r in reached]
    for v in drivers:
        attrs[v] = attrs[v].replace("[", "[shape=doublecircle, ")
    names = [""] + list(map(state_name, range(1, n + 1)))

    lines = ["digraph system {", "  rankdir=LR;", "  node [shape=circle];"]
    for k, members in enumerate(scc._members):
        kind = "nontrivial" if scc.nontrivial[k] else "trivial"
        lines.append(f"  subgraph cluster_{k + 1} {{")
        lines.append(f'    label="{scc.label(k)} ({kind})";')
        if scc.nontrivial[k]:
            lines.append("    peripheries=2;")
        lines += [f"    {names[v]}{attrs[v]};" for v in members]
        lines.append("  }")
    lines += [f"  {input_name(j)} [shape=box];" for j in range(1, graph.n_inputs + 1)]
    src, dst = graph._csr[:2]
    lines += [f"  {names[s]} -> {names[d]};" for s, d in zip(src.tolist(), dst.tolist())]
    lines += [f"  {input_name(s)} -> {names[d]};" for s, d in sorted(graph.input_edges)]
    lines.append("}\n")  # the final newline, without copying the joined text again
    return "\n".join(lines)
