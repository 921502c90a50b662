#!/usr/bin/env python3
"""Empirical approximation quality on random Euclidean instances.

For each even size, solve a batch of random instances in both tour modes
and report the observed total/(n*tau) ratios against the proven ceilings
(2.25 with an exact tour, 2.75 with the heuristic tour). Observed ratios
sit far below the ceilings, mirroring the benchmark-table gaps.

Usage:
    python scripts/ratio_experiment.py [--per-size 25] [--sizes 4,6,8,10,12,14]
"""

import argparse
from fractions import Fraction

from uttp import random_euclidean_instance, solve
from uttp.tsp import HELD_KARP_CAP


def run(sizes, per_size, seed0):
    print(f"{'n':>4} {'mode':>13} {'worst':>8} {'mean':>8} {'bound':>6}")
    for n in sizes:
        for mode, bound in (("exact", 2.25), ("christofides", 2.75)):
            ratios = []
            for i in range(per_size):
                D = random_euclidean_instance(n, seed=seed0 + i)
                report, _ = solve(D, mode=mode, want_certificate=False)
                ratios.append(Fraction(report.total_distance, report.lower_bound))
            worst = max(ratios)
            mean = sum(ratios) / len(ratios)
            assert float(worst) <= bound, (n, mode, worst)
            print(
                f"{n:>4} {mode:>13} {float(worst):>8.3f} {float(mean):>8.3f} {bound:>6.2f}"
            )


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--per-size", type=int, default=25)
    parser.add_argument("--sizes", default="4,6,8,10,12,14")
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    if max(sizes) > HELD_KARP_CAP:
        # the ratios divide by n * tau, which only an exact tour gives
        parser.error(f"--sizes must not exceed the Held-Karp cap {HELD_KARP_CAP}")
    run(sizes, args.per_size, args.seed0)
