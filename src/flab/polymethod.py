"""Sparse multivariate polynomials over F_q with Hasse derivatives.

Supports multiplicity queries, the Schwartz-Zippel multiplicity audit, and
interpolation of polynomials that vanish with prescribed multiplicities.
All three read D^i(x^a) = binom(a, i) x^(a-i) off one column kernel
(_Block), each value a column over a block of at most BLOCK points.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import FlabError
from .geometry import DEFAULT_BUDGET, charge, rref

Expo = tuple[int, ...]
BLOCK = 512   # points per kernel block, so U^n is never held at once


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
        return max(map(sum, self.terms), default=-1)

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
            e = tuple(map(operator.add, e1, e2))
            out[e] = F.add(out.get(e, 0), F.mul(c1, c2))
    return Polynomial.make(F, P.n, out)


class _Block:
    """Columns over at most BLOCK points.  x_j^k is built through F.mul from
    x_j^(k-1), or x_j^(k/2) if that is missing; x^b is b's column with its
    last b_j zeroed times x_j^(b_j), cached by b.  Over F_p the monomials and
    sums are plain ints through operator, reduced once per column."""

    def __init__(self, F, points: Sequence[Expo]):
        self.F, self.mul = F, F.mul if F.e > 1 else operator.mul
        self.ones = [1] * len(points)
        self.powers = [{0: self.ones, 1: list(col)} for col in zip(*points)]
        self.monos = {(0,) * len(self.powers): self.ones}

    def power(self, j: int, k: int) -> list[int]:
        pw = self.powers[j]
        if k not in pw:
            h = k // 2 if k % 2 == 0 and k - 1 not in pw else k - 1
            pw[k] = list(map(self.F.mul, self.power(j, h),
                             self.power(j, k - h)))
        return pw[k]

    def monomial(self, b: Expo) -> list[int]:
        col = self.monos.get(b)
        if col is None:
            j = max(itertools.compress(range(len(b)), b))
            head = self.monomial(b[:j] + (0,) + b[j + 1:])
            col = self.power(j, b[j])
            if head is not self.ones:
                col = list(map(self.mul, head, col))
            self.monos[b] = col
        return col

    def column(self, terms: Mapping[Expo, int], i: Expo) -> list[int]:
        """D^i of sum_a terms[a] x^a at each point x: terms[a] binom(a, i)
        x^(a-i) for each a with binom(a, i) nonzero mod p (so a >= i)."""
        F, D = self.F, {}
        for a, c in terms.items():
            if b := math.prod(map(math.comb, a, i)) % F.p:
                D[tuple(map(operator.sub, a, i))] = (
                    c * b if F.e == 1 else F.mul(c, F.from_int(b)))
        if not D:
            return [0] * len(self.ones)
        cols, coeffs = [self.monomial(b) for b in D], list(D.values())
        if F.e > 1:
            return [functools.reduce(F.add, map(F.mul, coeffs, v))
                    for v in zip(*cols)]
        if len(cols) == 1:
            return [coeffs[0] * v % F.p for v in cols[0]]
        return [sum(map(operator.mul, coeffs, v)) % F.p for v in zip(*cols)]


def _blocks(items: Iterable) -> Iterator[list]:
    """Successive lists of at most BLOCK items."""
    it = iter(items)
    while block := list(itertools.islice(it, BLOCK)):
        yield block


def _multiplicities(P: Polynomial, points: Sequence[Expo],
                    caps: Sequence[int]) -> list[int]:
    """min(multiplicity of P at x, cap) per point x of a block: x leaves at
    its cap or at its first nonzero D^i P, by deg P when P is nonzero."""
    out, live = list(caps), None
    for w in itertools.count():
        kept = [k for k, m in enumerate(out) if m > w]
        if not kept:
            return out
        if kept != live:    # the kernel over the points still in the block
            live, block = kept, _Block(P.field, [points[k] for k in kept])
        for i in exponents_of_weight(P.n, w):
            for k, v in zip(live, block.column(P.terms, i)):
                if v:
                    out[k] = w


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
    return _multiplicities(P, [tuple(a)], [P.degree + 1])[0]


def vanishes_to(P: Polynomial, targets: Mapping[Sequence[int], int]) -> bool:
    """Whether P has multiplicity >= N_x at each target x: only the Hasse
    derivatives of weight below N_x are formed at x."""
    return all(m >= N for block in _blocks(targets.items())
               for m, (_, N) in zip(_multiplicities(P, *zip(*block)), block))


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
    total = sum(sum(_multiplicities(P, block, [P.degree + 1] * len(block)))
                for block in _blocks(itertools.product(U, repeat=P.n)))
    bound = P.degree * len(U) ** (P.n - 1)
    return SzAudit(sum=total, bound=bound, ok=total <= bound)


def _monomial_count(n: int, d: int) -> int:
    """Number of exponent tuples of weight <= d, C(d+n, n); 0 when d < 0."""
    return math.comb(d + n, n) if d >= 0 else 0


def monomials_upto(n: int, d: int) -> list[Expo]:
    """Exponent tuples of weight <= d in graded lexicographic order."""
    return [a for w in range(d + 1) for a in exponents_of_weight(n, w)]


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
    FlabError, before the charge.  The rows (by sorted x, weight w < N_x,
    order; zero rows dropped) are read off the kernel, a block per weight.
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
    rows: list[tuple[int, ...]] = []
    for block in _blocks(sorted((tuple(x), N) for x, N in targets.items())):
        found: dict[Expo, list] = {x: [] for x, _ in block}
        live = None
        for w in range(max(N for _, N in block)):
            if (kept := [x for x, N in block if N > w]) != live:
                live, kernel = kept, _Block(F, kept)
            for i in exponents_of_weight(n, w):
                cols = [kernel.column({a: 1}, i) for a in monos]
                for x, row in zip(live, zip(*cols)):
                    if any(row):
                        found[x].append(row)
        rows.extend(itertools.chain.from_iterable(found.values()))
    reduced, rank = rref(F, rows)
    pivots = [next(j for j, v in enumerate(r) if v != 0) for r in reduced]
    free = [j for j in range(len(monos)) if j not in pivots]
    if not free:
        return NoSolutionCertificate(n=n, degree=d, equations=len(rows),
                                     unknowns=len(monos), rank=rank)
    coeffs = {pc: F.neg(r[free[0]]) for r, pc in zip(reduced, pivots)}
    coeffs[free[0]] = 1
    return Polynomial.make(F, n, {monos[j]: coeffs[j] for j in sorted(coeffs)})
