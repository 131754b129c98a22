"""Graphviz DOT rendering of the system graph, its strongly connected
components, and analysis results."""

from __future__ import annotations

from .drivers import DriverSet
from .graph import SccDecomposition, SystemGraph, input_name, reachable_from, sort_vertices, state_name
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
    drivers: frozenset[str] = frozenset()
    reachable: frozenset[str] | None = None
    if isinstance(report, ZcReport):
        reachable = report.reachable_states
    elif isinstance(report, DriverSet):
        drivers = report.drivers
        reachable = reachable_from(graph, drivers)

    def node_attrs(name: str) -> str:
        attrs = []
        if name in drivers:
            attrs.append("shape=doublecircle")
        if reachable is not None:
            fill = REACHABLE_FILL if name in reachable else UNREACHABLE_FILL
            attrs.append("style=filled")
            attrs.append(f"fillcolor={fill}")
        return f" [{', '.join(attrs)}]" if attrs else ""

    lines = ["digraph system {", "  rankdir=LR;", "  node [shape=circle];"]
    for k, comp in enumerate(scc.components):
        kind = "nontrivial" if scc.nontrivial[k] else "trivial"
        lines.append(f"  subgraph cluster_{k + 1} {{")
        lines.append(f'    label="{scc.label(k)} ({kind})";')
        if scc.nontrivial[k]:
            lines.append("    peripheries=2;")
        for name in sort_vertices(comp):
            lines.append(f"    {name}{node_attrs(name)};")
        lines.append("  }")
    for j in range(1, graph.n_inputs + 1):
        lines.append(f"  {input_name(j)} [shape=box];")
    src, dst = graph._csr[:2]
    lines += [f"  {state_name(s)} -> {state_name(d)};" for s, d in zip(src.tolist(), dst.tolist())]
    for src, dst in sorted(graph.input_edges):
        lines.append(f"  {input_name(src)} -> {state_name(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
