#!/usr/bin/env python3
"""Walk the two bundled fixtures through the whole pipeline.

For each pattern file in fixtures/: structural verdict, driver selection,
Monte Carlo cross-check, one deadbeat steering run, and a DOT rendering
written next to this script's --out directory.
"""

import argparse
from pathlib import Path

from zerocontrol import (
    DEFAULT_BASE_SEED,
    build_b_pattern,
    build_graph,
    deadbeat_steer,
    enumerate_minimal_driver_sets,
    export_dot,
    is_generically_zero_controllable,
    monte_carlo_verify,
    parse_pattern_file,
    sample_realization,
)
from zerocontrol.cli import random_x0
from zerocontrol.reports import render_stats, render_zc_report

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="directory for DOT files")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED)
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for path in sorted(FIXTURES.glob("*.pat")):
        banner(f"{path.name}")
        pattern_a, pattern_b = parse_pattern_file(path.read_text())
        report = is_generically_zero_controllable(pattern_a, pattern_b)
        print(render_zc_report(report))

        graph = build_graph(pattern_a, pattern_b)
        dot_path = out_dir / f"{path.stem}.dot"
        dot_path.write_text(export_dot(graph, graph.condensation, report))
        print(f"wrote {dot_path}")

        if not report.verdict and pattern_b is None:
            minimal_sets = enumerate_minimal_driver_sets(pattern_a)
            print(f"minimum driver sets (size {minimal_sets[0].size}):")
            for ds in minimal_sets:
                print("  {" + " ".join(ds.sorted_drivers()) + "}")
            chosen = minimal_sets[0]
            pattern_b = build_b_pattern(
                pattern_a.n_rows, chosen.drivers, "per_driver"
            ).pattern
            print(f"continuing with drivers {{{ ' '.join(chosen.sorted_drivers()) }}}")

        if pattern_b is not None:
            stats = monte_carlo_verify(
                pattern_a, pattern_b, trials=args.trials, base_seed=args.seed
            )
            print(render_stats(stats))

            n = pattern_a.n_rows
            realization = sample_realization(pattern_a, pattern_b, args.seed)
            x0 = random_x0(args.seed, n)  # simulate's default start state
            result = deadbeat_steer(realization, x0, horizon=n)
            print(
                f"deadbeat steering from |x0|=1 over {n} steps: "
                f"final |x| = {result.final_norm:.3e}"
            )


if __name__ == "__main__":
    main()
