"""Report documents: dict forms (for JSON) and human-readable text for the
analysis, driver-selection and Monte Carlo result types.  Each result type's
JSON form is stated once, as its row of ``_FORMS``, which ``_to_dict``
writes; only the ``BPattern`` form, which flattens the nested pattern, is
spelled out."""

from __future__ import annotations

from operator import methodcaller

from .drivers import BPattern, DriverSet
from .graph import sort_vertices
from .numeric import MonteCarloStats, SteeringResult
from .structural import ZcReport


def _same(value):
    return value


def _component_lists(components) -> list[list[str]]:
    return [sort_vertices(c) for c in components]


def _walk(walk) -> list[list[str]] | None:
    """A cycle as its edges, or None when there is none."""
    return None if walk is None else [[src, dst] for src, dst in walk]


_ARRAY = methodcaller("tolist")

# result type -> JSON key -> writer of the attribute of that name, keys in output order
_FORMS = {
    ZcReport: {"verdict": _same, "reachable_states": sort_vertices, "unreachable_states": sort_vertices,
               "cycle_witness": _walk, "nontrivial_unreachable_components": _component_lists},
    DriverSet: {"drivers": sort_vertices, "valid": _same, "minimal": _same, "size": _same,
                "uncovered_witness": _walk, "nontrivial_unreachable_components": _component_lists},
    MonteCarloStats: {"trials": _same, "base_seed": _same, "zc_structural": _same,
                      "zc_agreements": _same, "agreement_fraction": _same,
                      "inconsistent_trials": _same, "disagreeing_seeds": list,
                      "ctrl_structural": _same, "ctrl_agreements": _same},
    SteeringResult: {"horizon": _same, "final_norm": _same, "controls": _ARRAY, "trajectory": _ARRAY},
}


def _to_dict(result) -> dict:
    return {key: write(getattr(result, key)) for key, write in _FORMS[type(result)].items()}


def _obstruction_lines(components, witness) -> list[str]:
    comps = ", ".join("{" + " ".join(c) + "}" for c in _component_lists(components))
    walk = " -> ".join([witness[0][0]] + [d for _, d in witness])
    return [f"unreached cycles in components: {comps}", f"cycle witness: {walk}"]


# --- zero-controllability reports ------------------------------------------

def zc_report_to_dict(report: ZcReport) -> dict:
    return _to_dict(report)


def render_zc_report(report: ZcReport) -> str:
    lines = [f"generically zero controllable: {'yes' if report.verdict else 'no'}"]
    reach = sort_vertices(report.reachable_states)
    unreach = sort_vertices(report.unreachable_states)
    lines.append(f"reachable from inputs ({len(reach)}): {' '.join(reach) or '-'}")
    lines.append(f"unreachable ({len(unreach)}): {' '.join(unreach) or '-'}")
    if report.verdict:
        lines.append("unreachable part is acyclic")
    else:
        lines += _obstruction_lines(report.nontrivial_unreachable_components, report.cycle_witness)
    return "\n".join(lines)


# --- driver sets ------------------------------------------------------------

def driver_set_to_dict(ds: DriverSet) -> dict:
    return _to_dict(ds)


def render_driver_set(ds: DriverSet) -> str:
    drivers = " ".join(ds.sorted_drivers()) or "(empty)"
    lines = [f"drivers ({ds.size}): {drivers}"]
    lines.append(f"valid: {'yes' if ds.valid else 'no'}")
    if ds.minimal:
        lines.append("cardinality: minimum (exact search)")
    if not ds.valid:
        lines += _obstruction_lines(ds.nontrivial_unreachable_components, ds.uncovered_witness)
    return "\n".join(lines)


def b_pattern_to_dict(bp: BPattern) -> dict:
    return {
        "mode": bp.mode,
        "n_rows": bp.pattern.n_rows,
        "n_cols": bp.pattern.n_cols,
        "entries": [[i, j] for i, j in bp.pattern.sorted_entries()],
    }


def render_b_pattern(bp: BPattern) -> str:
    lines = [f"induced input pattern ({bp.mode}, {bp.pattern.n_rows}x{bp.pattern.n_cols}):"]
    for i, j in bp.pattern.sorted_entries():
        lines.append(f"b {i} {j}")
    return "\n".join(lines)


# --- Monte Carlo statistics --------------------------------------------------

def stats_to_dict(stats: MonteCarloStats) -> dict:
    return _to_dict(stats)


def render_stats(stats: MonteCarloStats) -> str:
    percent = 100.0 * stats.agreement_fraction
    if 0 < stats.zc_agreements < stats.trials:  # a partial count never rounds to 0.0% or 100.0%
        percent = min(max(percent, 0.1), 99.9)
    lines = [
        f"structural verdict (zero controllable): {'yes' if stats.zc_structural else 'no'}",
        f"numeric agreement: {stats.zc_agreements}/{stats.trials} ({percent:.1f}%)",
        f"base seed: {stats.base_seed}",
    ]
    if stats.ctrl_structural is not None:
        lines.append(
            f"controllability: structural {'yes' if stats.ctrl_structural else 'no'}, "
            f"numeric agreement {stats.ctrl_agreements}/{stats.trials}"
        )
    if stats.inconsistent_trials:
        lines.append(
            f"flagged trials (not proven within the redraw budget, counted as no): {stats.inconsistent_trials}"
        )
    if stats.disagreeing_seeds:
        shown = ", ".join(str(s) for s in stats.disagreeing_seeds[:10])
        more = "" if len(stats.disagreeing_seeds) <= 10 else ", ..."
        lines.append(f"disagreeing seeds: {shown}{more}")
    return "\n".join(lines)


# --- steering ----------------------------------------------------------------

def steering_to_dict(result: SteeringResult) -> dict:
    return _to_dict(result)


def steering_to_arrays(result: SteeringResult) -> dict:
    """``steering_to_dict`` with the two arrays left whole, for a writer that prints them one row at a time."""
    return {key: getattr(result, key) if write is _ARRAY else write(getattr(result, key))
            for key, write in _FORMS[SteeringResult].items()}


def render_steering(result: SteeringResult) -> str:
    lines = [f"horizon: {result.horizon}", f"final state norm: {result.final_norm:.3e}"]
    lines.append("state norms per step:")
    # the sum runs left to right over Python floats, which are the numpy
    # scalars' IEEE doubles; a loop, since sum() compensates floats from 3.12
    for k, row in enumerate(result.trajectory):
        total = 0.0
        for v in row.tolist():
            total += v * v
        norm = total ** 0.5
        lines.append(f"  k={k:<3d} |x| = {norm:.6e}")
    return "\n".join(lines)
