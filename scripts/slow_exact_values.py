"""Exact values too slow for the test suite, with verified witnesses.

Raises the exact-search limit to 32 points for this run only and checks
K(3,3,1,3) = 13, K(2,5,1,2) = 10 and K(2,5,2,3) = 13: each witness must
have K points, must verify, and must meet every applicable lower-bound
row.  Prints each instance's wall time and exits 1 on any mismatch.
The three values take about 0.2, 0.01 and 0.5 s on a 2-vCPU VM with
Python 3.11.

Usage:
    python3 scripts/slow_exact_values.py
"""

import time

from flab import furstenberg
from flab.furstenberg import (FurstenbergInstance, bound_table,
                              is_furstenberg, search_extremal)
from flab.gf import field_build

EXPECTED = {(3, 3, 1, 3): 13, (2, 5, 1, 2): 10, (2, 5, 2, 3): 13}


def main() -> int:
    furstenberg.EXACT_SEARCH_LIMIT = 32
    bad = 0
    for (q, n, k, m), expected in EXPECTED.items():
        inst = FurstenbergInstance(field=field_build(q, 1), n=n, k=k, m=m)
        start = time.perf_counter()
        res = search_extremal(inst)
        wall = time.perf_counter() - start
        ok = (res.exact == len(res.witness) == expected
              and is_furstenberg(res.witness, k, m)[0]
              and all(row.satisfied_by(res.exact)
                      for row in bound_table(inst).lower_rows()))
        bad += not ok
        print(f"K({q},{n},{k},{m}) = {res.exact}   expected {expected}   "
              f"{'ok' if ok else 'MISMATCH'}   {wall:.2f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
