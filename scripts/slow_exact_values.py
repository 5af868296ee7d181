"""Exact values too slow for the test suite, with verified witnesses.

Raises the exact-search limit to 32 points for this run only and checks
K(3,3,1,3) = 13, K(2,5,1,2) = 10 and K(2,5,2,3) = 13: each witness must
have K points, must verify, and must meet every applicable lower-bound
row.  A second algorithm then rules out K - 1: the plain walk over every
set that holds the search's affine frame, without the split on the set's
least points off the frame that search_extremal makes.  Prints each instance's
wall time for the search and for that walk, and exits 1 on any mismatch.
The three values take about 0.15, 0.01 and 0.2 s to search, direction
tables included, and 0.08, 0.01 and 0.35 s to rule out plainly, on a
2-vCPU VM with Python 3.11.

Usage:
    python3 scripts/slow_exact_values.py
"""

import time

from flab import furstenberg
from flab.furstenberg import (FurstenbergInstance, bound_table,
                              is_furstenberg, search_extremal)
from flab.geometry import DEFAULT_BUDGET
from flab.gf import field_build

EXPECTED = {(3, 3, 1, 3): 13, (2, 5, 1, 2): 10, (2, 5, 2, 3): 13}


def plain_frame_walk_finds(F, n: int, k: int, m: int, size: int) -> bool:
    """Whether some set of the given size holds the affine frame, by the
    walk over every such set."""
    _, vec, D, T = furstenberg._node_vectors(F, n, k)
    d = furstenberg._span_floor(F.q, n, k, m)
    frame = 1 | sum(1 << F.q ** j for j in range(d))
    first = furstenberg._first_completion(vec, D, T, m, DEFAULT_BUDGET)
    return bool(first(frame, 1, size - d - 1))


def main() -> int:
    furstenberg.EXACT_SEARCH_LIMIT = 32
    bad = 0
    for (q, n, k, m), expected in EXPECTED.items():
        F = field_build(q, 1)
        inst = FurstenbergInstance(field=F, n=n, k=k, m=m)
        start = time.perf_counter()
        res = search_extremal(inst)
        wall = time.perf_counter() - start
        start = time.perf_counter()
        below = plain_frame_walk_finds(F, n, k, m, expected - 1)
        plain = time.perf_counter() - start
        ok = (res.exact == len(res.witness) == expected
              and is_furstenberg(res.witness, k, m)[0]
              and all(row.satisfied_by(res.exact)
                      for row in bound_table(inst).lower_rows())
              and not below)
        bad += not ok
        print(f"K({q},{n},{k},{m}) = {res.exact}   expected {expected}   "
              f"{'ok' if ok else 'MISMATCH'}   search {wall:.2f} s   "
              f"plain K-1 {plain:.2f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
