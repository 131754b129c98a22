#!/usr/bin/env python3
"""Measure how often seeded numeric trials agree with structural verdicts on
random patterns, split by verdict.  A sanity experiment for the Monte Carlo
layer: agreement should sit at or near 100% on both sides.  The elapsed time
of the sweep is printed last, so a run doubles as a timing of the numeric
layer; for example

    PYTHONPATH=src python scripts/random_agreement_experiment.py --max-n 40 --check-controllability
"""

import argparse
import time

import numpy as np

from zerocontrol import PatternMatrix, monte_carlo_verify


def random_pattern(rng, n, density):
    entries = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.random() < density
    }
    return PatternMatrix(n, n, frozenset(entries))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=50)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--trials", type=int, default=50, help="realizations per instance")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--check-controllability", action="store_true",
                        help="also compare plain controllability in every trial")
    args = parser.parse_args()

    start = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    rows = []
    for k in range(args.instances):
        n = int(rng.integers(1, args.max_n + 1))
        m = int(rng.integers(0, 3))
        pattern_a = random_pattern(rng, n, float(rng.uniform(0.1, 0.5)))
        pattern_b = (
            PatternMatrix(
                n, m,
                frozenset(
                    (i, j) for i in range(1, n + 1) for j in range(1, m + 1)
                    if rng.random() < 0.5
                ),
            )
            if m
            else None
        )
        stats = monte_carlo_verify(
            pattern_a, pattern_b, trials=args.trials, base_seed=args.seed * 1000 + k,
            check_controllability=args.check_controllability,
        )
        rows.append(stats)

    positive = [s for s in rows if s.zc_structural]
    negative = [s for s in rows if not s.zc_structural]
    print(f"instances: {len(rows)} ({len(positive)} positive, {len(negative)} negative verdicts)")
    for label, group in (("positive", positive), ("negative", negative)):
        if not group:
            continue
        total = sum(s.trials for s in group)
        agree = sum(s.zc_agreements for s in group)
        flagged = sum(s.inconsistent_trials for s in group)
        print(
            f"{label:>8}: {agree}/{total} trials agree "
            f"({100.0 * agree / total:.2f}%), {flagged} flagged"
        )
    if args.check_controllability:
        total = sum(s.trials for s in rows)
        agree = sum(s.ctrl_agreements for s in rows)
        print(f"controllability: {agree}/{total} trials agree ({100.0 * agree / total:.2f}%)")
    worst = min(rows, key=lambda s: s.agreement_fraction)
    print(f"worst instance agreement: {100.0 * worst.agreement_fraction:.1f}%")
    print(f"elapsed: {time.perf_counter() - start:.2f} s")


if __name__ == "__main__":
    main()
