"""Report documents: lossless dict forms (for JSON) and human-readable text
for the analysis, driver-selection and Monte Carlo result types.  Each
result type's JSON form is stated once, as its row of ``_FORMS``, which
``_to_dict`` writes and ``_from_dict`` reads back to an equal object; only
the ``BPattern`` form, which flattens the nested pattern, is spelled out."""

from __future__ import annotations

from operator import methodcaller

from .drivers import BPattern, DriverSet
from .graph import sort_vertices
from .numeric import MonteCarloStats, SteeringResult
from .patterns import PatternMatrix
from .structural import ZcReport


def _same(value):
    return value


def _component_lists(components) -> list[list[str]]:
    return [sort_vertices(c) for c in components]


# codecs: (write, read) of one value; a read of None marks a key that is only
# written, being derived from the others or of a form with no reader
_SAME, _BOOL, _INT, _WRITTEN = (_same, _same), (_same, bool), (_same, int), (_same, None)
_NAMES = (sort_vertices, frozenset)  # a set of state names
_COMPONENTS = (_component_lists, lambda components: tuple(frozenset(c) for c in components))
_WALK = (  # a cycle as its edges, or None when there is none
    lambda walk: None if walk is None else [[src, dst] for src, dst in walk],
    lambda walk: None if walk is None else tuple((src, dst) for src, dst in walk),
)
_ARRAY = (methodcaller("tolist"), None)

# result type -> JSON key -> codec of the attribute of that name, keys in output order
_FORMS = {
    ZcReport: {"verdict": _BOOL, "reachable_states": _NAMES, "unreachable_states": _NAMES,
               "cycle_witness": _WALK, "nontrivial_unreachable_components": _COMPONENTS},
    DriverSet: {"drivers": _NAMES, "valid": _BOOL, "minimal": _BOOL, "size": _WRITTEN,
                "uncovered_witness": _WALK, "nontrivial_unreachable_components": _COMPONENTS},
    MonteCarloStats: {"trials": _INT, "base_seed": _INT, "zc_structural": _BOOL,
                      "zc_agreements": _INT, "agreement_fraction": _WRITTEN,
                      "inconsistent_trials": _INT, "disagreeing_seeds": (list, tuple),
                      "ctrl_structural": _SAME, "ctrl_agreements": _SAME},
    SteeringResult: {"horizon": _WRITTEN, "final_norm": _WRITTEN, "controls": _ARRAY,
                     "trajectory": _ARRAY},
}


def _to_dict(result) -> dict:
    return {key: write(getattr(result, key)) for key, (write, _) in _FORMS[type(result)].items()}


def _from_dict(cls, data: dict):
    return cls(**{key: read(data[key]) for key, (_, read) in _FORMS[cls].items() if read is not None})


def _obstruction_lines(components, witness) -> list[str]:
    comps = ", ".join("{" + " ".join(c) + "}" for c in _component_lists(components))
    walk = " -> ".join([witness[0][0]] + [d for _, d in witness])
    return [f"unreached cycles in components: {comps}", f"cycle witness: {walk}"]


# --- zero-controllability reports ------------------------------------------

def zc_report_to_dict(report: ZcReport) -> dict:
    return _to_dict(report)


def zc_report_from_dict(data: dict) -> ZcReport:
    return _from_dict(ZcReport, data)


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


def driver_set_from_dict(data: dict) -> DriverSet:
    return _from_dict(DriverSet, data)


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
    entries = frozenset((i, j) for i, j in data["entries"])
    return BPattern(data["mode"], PatternMatrix(data["n_rows"], data["n_cols"], entries))


def render_b_pattern(bp: BPattern) -> str:
    lines = [f"induced input pattern ({bp.mode}, {bp.pattern.n_rows}x{bp.pattern.n_cols}):"]
    for i, j in bp.pattern.sorted_entries():
        lines.append(f"b {i} {j}")
    return "\n".join(lines)


# --- Monte Carlo statistics --------------------------------------------------

def stats_to_dict(stats: MonteCarloStats) -> dict:
    return _to_dict(stats)


def stats_from_dict(data: dict) -> MonteCarloStats:
    return _from_dict(MonteCarloStats, data)


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
    return {key: getattr(result, key) if codec is _ARRAY else codec[0](getattr(result, key))
            for key, codec in _FORMS[SteeringResult].items()}


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
