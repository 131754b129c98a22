"""Command-line interface.

Subcommands: analyze, select, verify, simulate, export-dot.  Exit codes:
0 success, 1 negative verdict (analyze: not zero controllable; verify:
agreement below the threshold), 2 usage or input errors.  The primary stream
only ever receives complete documents; diagnostics go to stderr, one line
each: warnings first, then at most one error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .dotexport import _dot
from .drivers import (
    DEFAULT_EXACT_CAP,
    build_b_pattern,
    enumerate_minimal_driver_sets,
    greedy_driver_set,
    minimal_driver_set,
)
from .fileio import PatternFormatError, parse_pattern_file
from .graph import _input_reach, _reach_states, _state_ids, build_graph, state_name
from .numeric import (
    DEFAULT_BASE_SEED,
    DEFAULT_TOL,
    _check_tol,
    _normals,
    check_dense_size,
    deadbeat_steer,
    monte_carlo_verify,
    sample_realization,
)
from .patterns import PatternMatrix, _pair
from .reports import (
    b_pattern_to_dict,
    driver_set_to_dict,
    render_b_pattern,
    render_driver_set,
    render_stats,
    render_steering,
    render_zc_report,
    stats_to_dict,
    steering_to_arrays,
    zc_report_to_dict,
)
from .structural import is_generically_zero_controllable

DEFAULT_MIN_AGREEMENT = 0.95
_LEAF = frozenset((float, int, bool, str, type(None)))  # what the C encoder prints as one token


def _load_patterns(path: str) -> tuple[PatternMatrix, PatternMatrix | None]:
    text = Path(path).read_text(encoding="utf-8")
    return parse_pattern_file(text)


def _parse_drivers(raw: str) -> list[str]:
    names = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        names.append(state_name(int(chunk)) if chunk.isascii() and chunk.isdigit() else chunk)
    if not names:
        raise ValueError("empty driver list")
    return names


def _resolve_input_pattern(args, pattern_a, pattern_b):
    """File-provided input pattern, or one synthesized from --drivers."""
    if args.drivers is not None:
        if pattern_b is not None:
            raise ValueError(
                "the file already declares an input pattern; drop --drivers or the b-entries"
            )
        names = _parse_drivers(args.drivers)
        return build_b_pattern(pattern_a.n_rows, names, _B_MODES[args.b_mode]).pattern
    return pattern_b


def _dumps(obj, pad="\n  ") -> list:
    """``json.dumps(obj, indent=2, sort_keys=True)`` as pieces to write in order, one C-encoder call per scalar
    container, of documents' forms only: str-keyed dicts, lists, leaves, and 2-D float arrays, rows made as written."""
    if type(obj) in _LEAF:
        return [json.dumps(obj)]
    if type(obj) is dict and all(type(key) is str for key in obj):
        ends, values = "{}", obj.values()
    elif type(obj) is list or type(obj) is np.ndarray and obj.ndim == 2:
        ends, values = "[]", obj
    else:  # a document that reports and cli do not build: a bug, raised before the first byte
        raise TypeError(f"no indented emitter for {type(obj).__name__}")
    if not len(obj):
        return [ends]
    if type(obj) is np.ndarray:  # one piece, the generator of its rows' text: a row's floats are leaves
        body = [(("," + pad if k else "") + "".join(_dumps(row.tolist(), pad + "  ")) for k, row in enumerate(obj))]
    elif _LEAF.issuperset(map(type, values)):  # the C encoder cannot indent, but it can separate
        body = [json.dumps(obj, sort_keys=True, separators=("," + pad, ": "))[1:-1]]
    else:  # recurse; a dict's values follow their keys, in key order
        items = [(json.dumps(k) + ": ", v) for k, v in sorted(obj.items())] if ends == "{}" else [("", v) for v in obj]
        body = [piece for k, (head, value) in enumerate(items)
                for piece in [("," + pad if k else "") + head, *_dumps(value, pad + "  ")]]
    return [ends[0] + pad, *body, pad[:-2] + ends[1]]


def _emit(args, text_doc, json_doc) -> None:
    """Print the document --format asks for; each is a callable, built only if printed; JSON by ``_dumps`` alone."""
    if args.format == "json":
        for piece in [*_dumps(json_doc()), "\n"]:  # a str, or the generator of an array's rows
            sys.stdout.writelines([piece] if type(piece) is str else piece)
    else:
        print(text_doc())


def _cmd_analyze(args) -> int:
    pattern_a, pattern_b = _load_patterns(args.file)
    report = is_generically_zero_controllable(pattern_a, pattern_b)
    _emit(args, lambda: render_zc_report(report),
          lambda: {"command": "analyze", "report": zc_report_to_dict(report)})
    return 0 if report.verdict else 1


def _cmd_select(args) -> int:
    # every mode checks both options, with the library's messages
    for name, value, least in (("exact_cap", args.exact_cap, 0), ("limit", args.limit, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if args.greedy and args.enumerate:
        raise ValueError("--greedy and --enumerate cannot be combined: the greedy set is not enumerated")
    pattern_a, pattern_b = _load_patterns(args.file)
    if pattern_b is not None:
        print("note: driver selection works on the state pattern; input entries ignored",
              file=sys.stderr)

    if args.greedy:
        chosen = greedy_driver_set(pattern_a)
        enumeration = None
    elif args.enumerate:
        enumeration = enumerate_minimal_driver_sets(
            pattern_a, limit=args.limit, exact_cap=args.exact_cap
        )
        chosen = enumeration[0]
    else:
        chosen = minimal_driver_set(pattern_a, exact_cap=args.exact_cap)
        enumeration = None

    bp = build_b_pattern(pattern_a.n_rows, chosen.drivers, _B_MODES[args.b_mode])

    def text_doc() -> str:
        sections = [render_driver_set(chosen)]
        if enumeration is not None:
            limit = f" (limit {args.limit})" if len(enumeration) >= args.limit else ""
            head = f"all minimum driver sets{limit}:" if chosen.minimal else "greedy driver set only, not an enumeration:"
            sections.append("\n".join([head, *("  {" + " ".join(ds.sorted_drivers()) + "}" for ds in enumeration)]))
        if chosen.drivers:
            sections.append(render_b_pattern(bp))
        return "\n\n".join(sections)

    def json_doc() -> dict:
        doc = {
            "command": "select",
            "driver_set": driver_set_to_dict(chosen),
            "b_pattern": b_pattern_to_dict(bp),
        }
        if enumeration is not None:
            doc["enumeration"] = [driver_set_to_dict(ds) for ds in enumeration]
        return doc

    _emit(args, text_doc, json_doc)
    return 0


def _cmd_verify(args) -> int:
    if not 0 <= args.min_agreement <= 1:  # NaN fails both comparisons
        raise ValueError(f"min_agreement must be in [0, 1], got {args.min_agreement}")
    _check_tol(args.tol)
    pattern_a, pattern_b = _load_patterns(args.file)
    pattern_b = _resolve_input_pattern(args, pattern_a, pattern_b)
    stats = monte_carlo_verify(
        pattern_a,
        pattern_b,
        trials=args.trials,
        base_seed=args.seed,
        check_controllability=args.check_controllability,
    )
    _emit(args, lambda: render_stats(stats), lambda: {"command": "verify", "stats": stats_to_dict(stats)})
    return 0 if stats.agreement_fraction >= args.min_agreement else 1


def random_x0(seed: int, n: int) -> np.ndarray:
    """``simulate``'s default start state under ``--seed`` seed: numpy's ``default_rng(seed + 1).standard_normal(n)``,
    computed here, scaled to norm 1 unless all n draws are zero."""
    x0 = _normals(seed + 1, n)
    norm = float(np.linalg.norm(x0))
    return x0 / norm if norm > 0 else x0


def _cmd_simulate(args) -> int:
    pattern_a, pattern_b = _load_patterns(args.file)
    pattern_b = _pair(pattern_a, _resolve_input_pattern(args, pattern_a, pattern_b))
    n, m = pattern_b.shape
    horizon = args.horizon if args.horizon is not None else max(n, 1)
    check_dense_size(n, m, horizon)
    realization = sample_realization(pattern_a, pattern_b, args.seed)
    if args.x0 == "random":
        x0 = random_x0(args.seed, n)
    else:
        chunks = args.x0.split(",")
        try:  # float() also reads '1_0' and non-ASCII digits, which no other input takes
            if not all(chunk.isascii() and "_" not in chunk for chunk in chunks):
                raise ValueError
            values = [float(chunk) for chunk in chunks]
        except ValueError:
            raise ValueError(f"--x0 values must be numbers, got {args.x0}") from None
        if len(values) != n:
            raise ValueError(f"--x0 needs {n} comma-separated values, got {len(values)}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"--x0 values must be finite, got {args.x0}")
        x0 = np.array(values)
    result = deadbeat_steer(realization, x0, horizon)
    if not (np.isfinite(result.controls).all() and np.isfinite(result.trajectory).all()):
        raise ValueError(f"steering overflowed within horizon {horizon} (controls or trajectory not finite)")
    if not np.isfinite(result.final_norm):
        raise ValueError(f"the final state norm overflows float64 within horizon {horizon}")
    _emit(args, lambda: render_steering(result),
          lambda: {"command": "simulate", "seed": args.seed, "steering": steering_to_arrays(result)})
    return 0


def _cmd_export_dot(args) -> int:
    pattern_a, pattern_b = _load_patterns(args.file)
    drivers = [] if args.drivers is None else _state_ids(
        pattern_a.n_rows, _parse_drivers(args.drivers), "driver vertices must be states")
    if args.drivers is not None and pattern_b is not None:
        print("note: --drivers colors reachability from the drivers; input entries ignored",
              file=sys.stderr)
        pattern_b = None
    graph = build_graph(pattern_a, pattern_b)
    reached = _input_reach(graph) if graph.n_inputs else None
    if args.drivers is not None:
        reached = _reach_states(graph, drivers)
    print(_dot(graph, graph.condensation, reached, drivers), end="")
    return 0


def _add_format(parser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


#: --b-mode spellings and the build_b_pattern modes they name
_B_MODES = {"shared": "shared", "per-driver": "per_driver"}


def _add_b_mode(parser, help: str) -> None:
    parser.add_argument(
        "--b-mode", choices=tuple(_B_MODES), default="per-driver", help=help
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; ``run_cli`` looks each handler up by name."""
    parser = argparse.ArgumentParser(
        prog="zerocontrol",
        description=(
            "Decide from the zero/nonzero structure alone whether a sparse "
            "discrete-time linear system can be steered to the zero state, "
            "select driver nodes that make it so, and cross-check verdicts "
            "numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="generic zero-controllability verdict")
    p.add_argument("file", help="pattern file")
    _add_format(p)

    p = sub.add_parser("select", help="driver-node selection")
    p.add_argument("file", help="pattern file (state pattern only is used)")
    p.add_argument("--enumerate", action="store_true", help="list all minimum driver sets")
    p.add_argument("--limit", type=int, default=100, help="cap on enumerated sets")
    p.add_argument("--greedy", action="store_true", help="use the greedy heuristic only")
    _add_b_mode(p, "shape of the induced input pattern")
    p.add_argument(
        "--exact-cap",
        type=int,
        default=DEFAULT_EXACT_CAP,
        help="max coverage classes in one independent block of targets for the exact search",
    )
    _add_format(p)

    p = sub.add_parser("verify", help="Monte Carlo check of the structural verdict")
    p.add_argument("file", help="pattern file")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="must lie in (0, 1); kept for scripts, it changes nothing: every trial is decided exactly")
    p.add_argument(
        "--drivers", help="comma-separated driver states (e.g. x4,x8) to synthesize inputs"
    )
    _add_b_mode(p, "input shape used with --drivers")
    p.add_argument(
        "--min-agreement",
        type=float,
        default=DEFAULT_MIN_AGREEMENT,
        help="agreement fraction below which the exit code is 1",
    )
    p.add_argument(
        "--check-controllability",
        action="store_true",
        help="also compare plain controllability verdicts",
    )
    _add_format(p)

    p = sub.add_parser("simulate", help="deadbeat steering on a sampled realization")
    p.add_argument("file", help="pattern file")
    p.add_argument("--x0", default="random", help="'random' or comma-separated start state")
    p.add_argument("--horizon", type=int, default=None, help="steering horizon (default max(n, 1))")
    p.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED)
    p.add_argument(
        "--drivers", help="comma-separated driver states to synthesize inputs"
    )
    _add_b_mode(p, "input shape used with --drivers")
    _add_format(p)

    p = sub.add_parser("export-dot", help="Graphviz rendering of the system graph")
    p.add_argument("file", help="pattern file")
    p.add_argument(
        "--drivers", help="mark these states as drivers and color reachability from them"
    )

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, error = handler(args), []
        except (OSError, PatternFormatError, ValueError) as exc:
            code, error = 2, [f"error: {exc}"]
        except MemoryError as exc:
            code, error = 2, [f"error: out of memory ({str(exc) or 'allocation failed'})"]
    for line in [f"warning: {w.message}" for w in caught] + error:
        print(line, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
