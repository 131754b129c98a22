"""Report documents: lossless dict forms (for JSON) and human-readable text
for the analysis, driver-selection and Monte Carlo result types."""

from __future__ import annotations

from .drivers import BPattern, DriverSet
from .graph import sort_vertices
from .numeric import MonteCarloStats, SteeringResult
from .patterns import PatternMatrix
from .structural import ZcReport


def _component_lists(components) -> list[list[str]]:
    return [sort_vertices(c) for c in components]


def _edge_list(edges) -> list[list[str]] | None:
    if edges is None:
        return None
    return [[src, dst] for src, dst in edges]


def _obstruction_lines(components, witness) -> list[str]:
    comps = ", ".join("{" + " ".join(c) + "}" for c in _component_lists(components))
    walk = " -> ".join([witness[0][0]] + [d for _, d in witness])
    return [f"unreached cycles in components: {comps}", f"cycle witness: {walk}"]


# --- zero-controllability reports ------------------------------------------

def zc_report_to_dict(report: ZcReport) -> dict:
    return {
        "verdict": report.verdict,
        "reachable_states": sort_vertices(report.reachable_states),
        "unreachable_states": sort_vertices(report.unreachable_states),
        "cycle_witness": _edge_list(report.cycle_witness),
        "nontrivial_unreachable_components": _component_lists(
            report.nontrivial_unreachable_components
        ),
    }


def zc_report_from_dict(data: dict) -> ZcReport:
    witness = data["cycle_witness"]
    return ZcReport(
        verdict=bool(data["verdict"]),
        reachable_states=frozenset(data["reachable_states"]),
        unreachable_states=frozenset(data["unreachable_states"]),
        cycle_witness=None if witness is None else tuple((s, d) for s, d in witness),
        nontrivial_unreachable_components=tuple(
            frozenset(c) for c in data["nontrivial_unreachable_components"]
        ),
    )


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
    return {
        "drivers": ds.sorted_drivers(),
        "valid": ds.valid,
        "minimal": ds.minimal,
        "size": ds.size,
        "uncovered_witness": _edge_list(ds.uncovered_witness),
        "nontrivial_unreachable_components": _component_lists(
            ds.nontrivial_unreachable_components
        ),
    }


def driver_set_from_dict(data: dict) -> DriverSet:
    witness = data["uncovered_witness"]
    return DriverSet(
        drivers=frozenset(data["drivers"]),
        valid=bool(data["valid"]),
        minimal=bool(data["minimal"]),
        uncovered_witness=None if witness is None else tuple((s, d) for s, d in witness),
        nontrivial_unreachable_components=tuple(
            frozenset(c) for c in data["nontrivial_unreachable_components"]
        ),
    )


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


def b_pattern_from_dict(data: dict) -> BPattern:
    return BPattern(
        mode=data["mode"],
        pattern=PatternMatrix(
            data["n_rows"], data["n_cols"], frozenset((i, j) for i, j in data["entries"])
        ),
    )


def render_b_pattern(bp: BPattern) -> str:
    lines = [f"induced input pattern ({bp.mode}, {bp.pattern.n_rows}x{bp.pattern.n_cols}):"]
    for i, j in bp.pattern.sorted_entries():
        lines.append(f"b {i} {j}")
    return "\n".join(lines)


# --- Monte Carlo statistics --------------------------------------------------

def stats_to_dict(stats: MonteCarloStats) -> dict:
    return {
        "trials": stats.trials,
        "base_seed": stats.base_seed,
        "zc_structural": stats.zc_structural,
        "zc_agreements": stats.zc_agreements,
        "agreement_fraction": stats.agreement_fraction,
        "inconsistent_trials": stats.inconsistent_trials,
        "disagreeing_seeds": list(stats.disagreeing_seeds),
        "ctrl_structural": stats.ctrl_structural,
        "ctrl_agreements": stats.ctrl_agreements,
    }


def stats_from_dict(data: dict) -> MonteCarloStats:
    return MonteCarloStats(
        trials=int(data["trials"]),
        base_seed=int(data["base_seed"]),
        zc_structural=bool(data["zc_structural"]),
        zc_agreements=int(data["zc_agreements"]),
        inconsistent_trials=int(data["inconsistent_trials"]),
        disagreeing_seeds=tuple(data["disagreeing_seeds"]),
        ctrl_structural=data["ctrl_structural"],
        ctrl_agreements=data["ctrl_agreements"],
    )


def render_stats(stats: MonteCarloStats) -> str:
    lines = [
        f"structural verdict (zero controllable): {'yes' if stats.zc_structural else 'no'}",
        f"numeric agreement: {stats.zc_agreements}/{stats.trials} "
        f"({100.0 * stats.agreement_fraction:.1f}%)",
        f"base seed: {stats.base_seed}",
    ]
    if stats.ctrl_structural is not None:
        lines.append(
            f"controllability: structural {'yes' if stats.ctrl_structural else 'no'}, "
            f"numeric agreement {stats.ctrl_agreements}/{stats.trials}"
        )
    if stats.inconsistent_trials:
        lines.append(
            f"flagged trials (image vs eigenvalue tests disagreed): {stats.inconsistent_trials}"
        )
    if stats.disagreeing_seeds:
        shown = ", ".join(str(s) for s in stats.disagreeing_seeds[:10])
        more = "" if len(stats.disagreeing_seeds) <= 10 else ", ..."
        lines.append(f"disagreeing seeds: {shown}{more}")
    return "\n".join(lines)


# --- steering ----------------------------------------------------------------

def steering_to_dict(result: SteeringResult) -> dict:
    return {
        "horizon": result.horizon,
        "final_norm": result.final_norm,
        "controls": result.controls.tolist(),
        "trajectory": result.trajectory.tolist(),
    }


def render_steering(result: SteeringResult) -> str:
    lines = [f"horizon: {result.horizon}", f"final state norm: {result.final_norm:.3e}"]
    lines.append("state norms per step:")
    # the sum runs left to right over Python floats, which are the numpy
    # scalars' IEEE doubles; a loop, since sum() compensates floats from 3.12
    for k, row in enumerate(result.trajectory.tolist()):
        total = 0.0
        for v in row:
            total += v * v
        norm = total ** 0.5
        lines.append(f"  k={k:<3d} |x| = {norm:.6e}")
    return "\n".join(lines)
