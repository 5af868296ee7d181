"""Probe the slack in the power-sum norm bound at desk scale.

For each r, find the integer-valued function on F_q^n with the smallest
power sum that still has an r-heavy line in every direction, and compare
the exhaustive minimum against the guaranteed floor r^n q^n / (2q-1)^n.
The observed ratios show how far from tight the finite-scale inequality
runs; they are recorded here, not asserted anywhere.

Usage:
    python3 scripts/norm_bound_slack.py --q 2 --n 2 --max-entry 4
"""

import argparse
import itertools
from fractions import Fraction

from flab.entropy import norm_bound_check
from flab.geometry import all_points
from flab.gf import field_build


def decimals3(x: Fraction) -> str:
    """x >= 0 to three decimals, rounded half up in integer arithmetic."""
    t = (2000 * x.numerator + x.denominator) // (2 * x.denominator)
    return f"{t // 1000}.{t % 1000:03d}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--max-entry", type=int, default=4)
    args = ap.parse_args()

    F = field_build(args.q, 1)
    pts = all_points(F, args.n)
    q, n = args.q, args.n
    floor_den = (2 * q - 1) ** n

    rmax = args.max_entry * q
    best: dict[int, int] = {}
    for entries in itertools.product(range(args.max_entry + 1),
                                     repeat=len(pts)):
        vals = dict(zip(pts, entries))
        power_sum = sum(v ** n for v in entries)
        for r in range(1, rmax + 1):
            if r in best and best[r] <= power_sum:
                continue
            rep = norm_bound_check(F, n, vals, r)
            if rep.hypothesis_ok:
                best[r] = power_sum

    print(f"q={q} n={n}  guaranteed floor r^n q^n / (2q-1)^n")
    for r in sorted(best):
        floor = Fraction(r ** n * q ** n, floor_den)
        ratio = Fraction(best[r]) / floor
        print(f"  r={r:2d}  min power sum {best[r]:4d}  "
              f"floor {floor}  ratio {decimals3(ratio)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
