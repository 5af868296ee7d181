"""Naive references that only the tests call: what belongs here computes,
point by point or term by term, what flab computes fast, so a test can
compare the two without sharing code.

- The per-point coset reduction, the affine span and flat membership,
  against the column kernel (geometry._column_histogram), the one coset
  reduction of the program.
- Polynomial evaluation and Hasse derivatives, term by term, against the
  per-coordinate rows of polymethod._HasseTable.
- The incidence reports, from flat_points, enumerate_flats and set
  membership only.

A name that anything outside the tests imports stays in src/flab, even
when only tests check it: poly_mul and gf.coeffs, which the benchmark
workloads call, the serializers and Flat.through.  So do the paper's
claims that the acceptance suite checks (lift_construction,
heavy_flats_lower_bound, ab_constants and the like).
"""

import math
from fractions import Fraction

from flab.errors import FlabError
from flab.geometry import (Flat, Subspace, enumerate_flats, flat_points,
                           qbinomial)
from flab.polymethod import Polynomial


def reduce_mod_subspace(F, v, sub: Subspace) -> tuple:
    """Canonical coset representative of v modulo sub (pivot coords zeroed):
    each RREF row (1 at its pivot, 0 at the others) subtracted w[piv] times."""
    w = tuple(v)
    for row, piv in zip(sub.basis, sub.pivots()):
        c = w[piv]
        if c:
            w = tuple(F.sub(x, F.mul(c, y)) if y else x for x, y in zip(w, row))
    return w


def subspace_contains(F, sub: Subspace, v) -> bool:
    return not any(reduce_mod_subspace(F, v, sub))


def flat_contains(F, flat: Flat, p) -> bool:
    return reduce_mod_subspace(F, p, flat.direction) == flat.shift


def span(F, points) -> Flat:
    """Affine span: the smallest flat containing the given points."""
    pts = sorted(tuple(p) for p in points)
    if not pts:
        raise FlabError("span of the empty set")
    p0 = pts[0]
    diffs = [[F.sub(a, b) for a, b in zip(p, p0)] for p in pts[1:]]
    direction = Subspace.from_vectors(F, len(p0), diffs)
    return Flat(direction, reduce_mod_subspace(F, p0, direction))


def evaluate(P: Polynomial, point) -> int:
    F = P.field
    acc = 0
    for e, c in P.terms.items():
        for x, k in zip(point, e):
            c = F.mul(c, F.pow(x, k))
        acc = F.add(acc, c)
    return acc


def hasse_coefficient(a, i, p: int) -> int:
    """binom(a, i) = prod_j binom(a_j, i_j) mod p, the coefficient of x^{a-i}
    in the i-th Hasse derivative of x^a; 0 unless a >= i entrywise."""
    return math.prod(math.comb(aj, ij) for aj, ij in zip(a, i)) % p


def hasse_derivative(P: Polynomial, i) -> Polynomial:
    """The i-th Hasse derivative: x^a contributes binom(a,i) x^{a-i}."""
    F = P.field
    out: dict = {}
    for a, c in P.terms.items():
        scalar = F.from_int(hasse_coefficient(a, i, F.p))
        e = tuple(aj - ij for aj, ij in zip(a, i))
        out[e] = F.add(out.get(e, 0), F.mul(c, scalar))
    return Polynomial.make(F, P.n, out)


def incidence_report(S, check: str, flats, r: int, delta: Fraction) -> dict:
    """The report of incidence --check count or haemers (of the distinct
    flats), poor (--l r) or becks (--k r), from each flat's points."""
    F, n, q = S.field, S.n, S.field.q

    def hits(f):
        return sum(p in S.points for p in flat_points(F, f))

    I = sum(map(hits, flats))
    if check == "count":
        return {"incidences": I}
    if check == "haemers":
        k, s = (flats[0].direction.k if flats else 0), len(S) * len(flats)
        radicand = q ** k * qbinomial(n - 1, k, q) * s
        root = math.isqrt(radicand)
        rhs = Fraction(s, q ** (n - k)) + root + (root * root < radicand)
        return {"incidences": I, "rhs": rhs, "radicand": radicand,
                "ok": I <= rhs}
    if check == "poor":
        counts = [hits(f) for f in enumerate_flats(F, n, r)]
        share = len(S) * Fraction(q ** r, q ** n)
        threshold = delta * share + 1
        poor = sum(c < threshold for c in counts)
        bound = len(counts) / (1 + share * (1 - delta) ** 2)
        return {"poor_flats": poor, "bound": bound, "ok": poor <= bound,
                "threshold": threshold}
    best: dict = {}
    for f in enumerate_flats(F, n, r):
        best[f.direction] = max(best.get(f.direction, 0), hits(f))
    m = min(best.values())
    threshold = delta * m / q + 1
    rich = [hits(f) >= threshold for f in enumerate_flats(F, n, r - 1)]
    bound = Fraction(len(rich), 2 ** (n + 2 - r))
    return {"rich_flats": sum(rich), "bound": bound, "ok": sum(rich) > bound,
            "m": m, "hypothesis_met": m >= 2 ** (n + 3 - r) * q
            / (1 - delta) ** 2}
