"""Condensed invariant battery behind the `flab selftest` command.

A quick cross-section of the full pytest suite: field axioms, q-binomial
identities, enumeration counts, the direction walk against single-direction
coset histograms, tiny extremal values, entropic, incidence and
polynomial-method checks.  Prints one line per group.
"""

from __future__ import annotations

from .entropy import RationalDistribution, check_entropic_bound
from .furstenberg import FurstenbergInstance, is_furstenberg, search_extremal
from .geometry import (DEFAULT_BUDGET, PointSet, all_points,
                       coset_histogram, enumerate_flats, enumerate_subspaces,
                       q_flat_count, qbinomial, scan_directions)
from .gf import field_build
from .incidence import FlatFamily, haemers_check
from .polymethod import (Polynomial, find_vanishing_poly, poly_mul,
                         sz_mult_audit, vanishes_to)


def _field_axioms(F) -> bool:
    els = list(F.elements())
    for a in els:
        for b in els:
            if F.add(a, b) != F.add(b, a) or F.mul(a, b) != F.mul(b, a):
                return False
            for c in els:
                if F.mul(a, F.add(b, c)) != F.add(F.mul(a, b), F.mul(a, c)):
                    return False
                if F.mul(F.mul(a, b), c) != F.mul(a, F.mul(b, c)):
                    return False
        if a and F.mul(a, F.inv(a)) != 1:
            return False
    return True


def run_selftest(out) -> bool:
    ok_all = True

    def report(name: str, ok: bool):
        nonlocal ok_all
        ok_all = ok_all and ok
        out.write(f"{'PASS' if ok else 'FAIL'}  {name}\n")

    report("field axioms (F_2, F_3, F_4, F_5, F_8, F_9)",
           all(_field_axioms(field_build(p, e))
               for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]))

    ok = True
    for q in (2, 3, 4, 5):
        for n in range(1, 7):
            for k in range(n + 1):
                b = qbinomial(n, k, q)
                ok &= b == q ** k * qbinomial(n - 1, k, q) \
                    + qbinomial(n - 1, k - 1, q)
                ok &= b == qbinomial(n, n - k, q)
    report("q-binomial identities", ok)

    F2 = field_build(2, 1)
    ok = True
    for n, k in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        ok &= sum(1 for _ in enumerate_subspaces(F2, n, k)) == qbinomial(n, k, 2)
        ok &= sum(1 for _ in enumerate_flats(F2, n, k)) == q_flat_count(2, n, k)
    report("enumeration counts over F_2", ok)

    ok = True
    for (p, e), k in [((3, 1), 1), ((3, 1), 2), ((2, 2), 1)]:
        F = field_build(p, e)
        pts = all_points(F, 3)
        for items in ([(x, 1) for x in pts[::2]],
                      [(x, i % 5 - 2) for i, x in enumerate(pts)]):
            ok &= all(list(hist.items()) ==
                      list(coset_histogram(F, items, d).items())
                      for d, hist in scan_directions(F, 3, k, items,
                                                     DEFAULT_BUDGET))
    report("direction walk equals coset_histogram (F_3^3, F_4^3)", ok)

    inst = FurstenbergInstance(field=F2, n=2, k=1, m=2)
    report("K(2,2,1,2) = 3", search_extremal(inst).exact == 3)

    S = PointSet.of(F2, 2, [(0, 0), (1, 0), (0, 1)])
    ok, _ = is_furstenberg(S, 1, 2)
    report("3-point Kakeya set in F_2^2 verifies", ok)

    ok = True
    for r in range(1, 4):
        pts = all_points(F2, 2)[:r + 1]
        d = RationalDistribution.uniform_on(F2, 2, pts)
        ok &= check_entropic_bound(d, 1).ok
    report("entropic bound on small F_2^2 distributions", ok)

    lines = FlatFamily.of(F2, 2, list(enumerate_flats(F2, 2, 1)))
    full = PointSet.of(F2, 2, all_points(F2, 2))
    report("Haemers bound on (F_2^2, all lines)", haemers_check(full, lines).ok)

    cube = Polynomial.make(field_build(3, 1), 2, {(3, 0): 1, (1, 0): 2})
    targets = {(0, 0): 2, (1, 2): 2, (3, 1): 2, (4, 4): 2}
    P = find_vanishing_poly(field_build(5, 1), 2, targets, 4)
    report("polymethod: (x_1^3 - x_1)^2 audits to 18 on F_3^2; a "
           "multiplicity-2 interpolant at 4 points of F_5^2 verifies",
           sz_mult_audit(poly_mul(cube, cube), range(3)).sum == 18
           and isinstance(P, Polynomial) and vanishes_to(P, targets))

    out.write("selftest: " + ("all groups passed\n" if ok_all
                              else "FAILURES present\n"))
    return ok_all
