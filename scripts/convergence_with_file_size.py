#!/usr/bin/env python3
"""How fast the simulated mean download cost approaches the formula.

Runs the K=3, N=2, mu=1/3 Monte Carlo at growing file sizes and prints the
relative gap to 184/81.  Most of the finite-L gap is imbalance, not padding:
a storage set costs by its longest file, and the excess over its files' mean
length shrinks only like 1/sqrt(L) per bit (about 0.0166 L at L = 9000),
while padding to whole blocks shrinks like 1/L (about 0.0035 L there).  The
"ideal gap" column leaves the padding out, so it still holds the imbalance.
"""

import argparse
from fractions import Fraction

from decpir import UniformRandomPlacement, simulate_trials


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--sizes", default="135,270,540,1080,2160,4320,8640",
        help="comma-separated file sizes",
    )
    args = parser.parse_args()

    mu = Fraction(1, 3)
    policy = UniformRandomPlacement(mu)
    print(f"{'L':>6} {'mean D/L':>10} {'ideal gap':>10} {'gap':>8}")
    for length in (int(s) for s in args.sizes.split(",")):
        result = simulate_trials(3, length, 2, mu, policy, args.trials, args.seed)
        ideal_mean = sum(float(r.ideal) / length for r in result.rows) / len(result.rows)
        ideal_gap = abs(ideal_mean - float(result.formula)) / float(result.formula)
        print(
            f"{length:>6} {result.mean_normalized:>10.5f} "
            f"{ideal_gap:>10.2%} {result.relative_gap:>8.2%}"
        )
    print(f"formula: {result.formula} = {float(result.formula):.5f}")


if __name__ == "__main__":
    main()
