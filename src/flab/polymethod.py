"""Sparse multivariate polynomials over F_q with Hasse derivatives.

Supports multiplicity queries, the Schwartz-Zippel multiplicity audit, and
interpolation of polynomials that vanish with prescribed multiplicities.
All three read the Hasse values D^i(x^a) at a point x off a _HasseTable of
per-coordinate rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping, NamedTuple, Sequence

from .errors import FlabError
from .geometry import DEFAULT_BUDGET, charge, rref

Expo = tuple[int, ...]


class Polynomial(NamedTuple):
    """Polynomial in n variables; terms maps exponent tuple -> nonzero coeff."""

    field: object
    n: int
    terms: Mapping[Expo, int]

    @classmethod
    def make(cls, F, n: int, terms: Mapping[Expo, int]) -> "Polynomial":
        clean = {tuple(e): c for e, c in terms.items() if c != 0}
        return cls(field=F, n=n, terms=clean)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and other.n == self.n
                and dict(other.terms) == dict(self.terms)
                and other.field == self.field)

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))


def poly_mul(P: Polynomial, Q: Polynomial) -> Polynomial:
    F = P.field
    out: dict[Expo, int] = {}
    for e1, c1 in P.terms.items():
        for e2, c2 in Q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = F.add(out.get(e, 0), F.mul(c1, c2))
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return Polynomial(F, P.n, out)


class _HasseTable:
    """D^i(x^a) at one point x for every monomial a of a fixed list, read
    off per-coordinate rows.

    Per coordinate j it keeps the powers of x_j up to the largest exponent
    that coordinate uses, and for each order i_j asked for a row, built on
    first use: each exponent a_j used at j maps to binom(a_j, i_j) x_j^(a_j
    - i_j), and to 0 when a_j < i_j.  D^i(x^a) = prod_j row_j[i_j][a_j] is
    formed one coordinate at a time over the whole list.  An order with some
    i_j above every exponent used at j is all zero and never built; a row
    whose every entry is 1 is skipped in the product.
    """

    __slots__ = ("F", "monos", "used", "tops", "powers", "rows")

    def __init__(self, F, x: Sequence[int], monos: Sequence[Expo]):
        self.F = F
        self.monos = monos
        # used[j]: the exponents that coordinate j takes in the monomials
        self.used = ([set(col) for col in zip(*monos)] if monos
                     else [set() for _ in x])
        self.tops = [max(u, default=-1) for u in self.used]
        self.powers = []
        for xj, top in zip(x, self.tops):
            pw = [1]
            for _ in range(top):
                pw.append(F.mul(pw[-1], xj))
            self.powers.append(pw)
        self.rows: list[dict[int, dict[int, int] | None]] = [{} for _ in x]

    def _row(self, j: int, i: int) -> dict[int, int] | None:
        """Row i of coordinate j; None when every entry is 1, as for order
        0 at a coordinate that no monomial uses or at x_j = 1."""
        if i not in self.rows[j]:
            F, pw = self.F, self.powers[j]
            row = {}
            for a in self.used[j]:
                c = math.comb(a, i) % F.p
                row[a] = F.mul(F.from_int(c), pw[a - i]) if c else 0
            self.rows[j][i] = (None if all(v == 1 for v in row.values())
                               else row)
        return self.rows[j][i]

    def values(self, i: Expo) -> list[int] | None:
        """D^i(x^a) for every monomial a of the list, or None when every
        one is 0 because some i_j exceeds each exponent used at j."""
        if any(ij > top for ij, top in zip(i, self.tops)):
            return None
        out = None
        for j, ij in enumerate(i):
            row = self._row(j, ij)
            if row is not None:
                col = [row[a[j]] for a in self.monos]
                out = col if out is None else list(map(self.F.mul, out, col))
        return [1] * len(self.monos) if out is None else out


@functools.cache
def exponents_of_weight(n: int, w: int) -> tuple[Expo, ...]:
    """All length-n exponent tuples summing to w, lexicographic order,
    listed once per (n, w) in a process: the gaps between n - 1 bars placed
    among w + n - 1 slots, the bar positions taken in lexicographic order."""
    return tuple(tuple(b - a - 1 for a, b in zip((-1, *bars),
                                                 (*bars, w + n - 1)))
                 for bars in itertools.combinations(range(w + n - 1), n - 1))


def multiplicity(P: Polynomial, a: Sequence[int]) -> int:
    """Largest N with all Hasse derivatives of weight < N vanishing at a.

    A nonzero polynomial always has multiplicity at most its degree; the
    zero polynomial, which vanishes to every order, raises FlabError.
    """
    if P.is_zero():
        raise FlabError("the zero polynomial has no finite multiplicity")
    F = P.field
    coeffs = P.terms.values()
    table = _HasseTable(F, a, list(P.terms))
    for w in range(P.degree + 1):
        for i in exponents_of_weight(P.n, w):
            values = table.values(i)
            if values is None:
                continue
            acc = 0
            for c, v in zip(coeffs, values):
                if v:
                    acc = F.add(acc, F.mul(c, v))
            if acc != 0:
                return w
    raise AssertionError("nonzero polynomial with multiplicity beyond degree")


class SzAudit(NamedTuple):
    sum: int
    bound: int
    ok: bool


def sz_mult_audit(P: Polynomial, U: Sequence[int],
                  budget: int = DEFAULT_BUDGET) -> SzAudit:
    """Sum of multiplicities over U^n versus the degree bound d |U|^{n-1}.

    Charges |U|^n points times C(d+n, n) Hasse derivatives against budget.
    """
    if P.is_zero():
        raise FlabError("audit requires a nonzero polynomial")
    charge(len(U) ** P.n * _monomial_count(P.n, P.degree), "audit pairs",
           budget)
    total = sum(multiplicity(P, a) for a in itertools.product(U, repeat=P.n))
    bound = P.degree * len(U) ** (P.n - 1)
    return SzAudit(sum=total, bound=bound, ok=total <= bound)


def _monomial_count(n: int, d: int) -> int:
    """Number of exponent tuples of weight <= d, C(d+n, n); 0 when d < 0."""
    return math.comb(d + n, n) if d >= 0 else 0


def monomials_upto(n: int, d: int) -> list[Expo]:
    """Exponent tuples of weight <= d in graded lexicographic order."""
    out: list[Expo] = []
    for w in range(d + 1):
        out.extend(exponents_of_weight(n, w))
    return out


def vanishing_hypothesis_holds(targets: Mapping[Expo, int], n: int,
                               d: int) -> bool:
    """Dimension-count hypothesis guaranteeing a nonzero interpolant."""
    lhs = sum(_monomial_count(n, N - 1) for N in targets.values())
    return lhs < _monomial_count(n, d)


class NoSolutionCertificate(NamedTuple):
    n: int
    degree: int
    equations: int
    unknowns: int
    rank: int


def find_vanishing_poly(F, n: int, targets: Mapping[Sequence[int], int],
                        d: int, budget: int = DEFAULT_BUDGET):
    """Nonzero polynomial of degree <= d vanishing with given multiplicities.

    Solves the homogeneous linear system of Hasse-derivative vanishing
    conditions; returns the canonical kernel element (first free coefficient
    set to 1 under graded lex order) or a NoSolutionCertificate when the
    system has full column rank.  Charges, before any monomial or row, the
    C(d+n, n) unknowns times the larger of the sum_x C(N_x+n-1, n)
    equations and n, each C(a+b, b) at least 2^min(a, b).  A multiplicity
    N_x = 0 is a vacuous condition; a negative one, or a negative d, raises
    FlabError, before the charge.  The rows of each point x are read off one
    _HasseTable.
    """
    if d < 0:
        raise FlabError(f"degree {d} < 0")
    for x, N in targets.items():
        if N < 0:
            raise FlabError(f"multiplicity {N} < 0 at point {tuple(x)}")
    bits = min(d, n) + max((min(N - 1, n) for N in targets.values()),
                           default=0)
    charge((bits, lambda: max(sum(_monomial_count(n, N - 1)
                                  for N in targets.values()), n)
            * _monomial_count(n, d)), "interpolation entries", budget)
    monos = monomials_upto(n, d)
    rows: list[list[int]] = []
    for x in sorted(tuple(pt) for pt in targets):
        table = _HasseTable(F, x, monos)
        for w in range(targets[x]):
            for i in exponents_of_weight(n, w):
                row = table.values(i)
                if row is not None and any(row):
                    rows.append(row)
    reduced, rank = rref(F, rows)
    pivots = [next(j for j, v in enumerate(r) if v != 0) for r in reduced]
    free = [j for j in range(len(monos)) if j not in pivots]
    if not free:
        return NoSolutionCertificate(n=n, degree=d, equations=len(rows),
                                     unknowns=len(monos), rank=rank)
    j0 = free[0]
    coeffs = [0] * len(monos)
    coeffs[j0] = 1
    for r, pc in zip(reduced, pivots):
        coeffs[pc] = F.neg(r[j0])
    return Polynomial(F, n, {monos[j]: c
                             for j, c in enumerate(coeffs) if c != 0})
