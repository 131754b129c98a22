"""Graphviz DOT rendering of the system graph, its strongly connected
components, and analysis results."""

from __future__ import annotations

from itertools import groupby

from .drivers import DriverSet
from .graph import SccDecomposition, SystemGraph, _parse_vertex, _reach_from, input_name, state_name
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
    n = graph.n_states
    reached, drivers = None, set()
    if isinstance(report, ZcReport):
        ids = {idx for kind, idx in map(_parse_vertex, report.reachable_states) if kind == "x"}
        reached = bytes(v in ids for v in range(n + 1))
    elif isinstance(report, DriverSet):
        sources = {graph.resolve(name) for name in report.drivers}
        drivers = {idx for kind, idx in sources if kind == "x"}
        reached = _reach_from(graph, sources)
    fills = [f" [style=filled, fillcolor={fill}]" for fill in (UNREACHABLE_FILL, REACHABLE_FILL)]
    attrs = [""] * (n + 1) if reached is None else [fills[r] for r in reached]
    for v in drivers:
        attrs[v] = attrs[v].replace("[", "[shape=doublecircle, ")
    names = [""] + list(map(state_name, range(1, n + 1)))

    lines = ["digraph system {", "  rankdir=LR;", "  node [shape=circle];"]
    comp = scc._comp_of.__getitem__  # a stable sort keeps each component's states ascending
    for k, members in groupby(sorted(range(1, n + 1), key=comp), comp):
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
