"""Exact q-ary min-entropy over F_q^n and the entropic Furstenberg checks.

Probabilities are integer weights over a common total, so every entropy
inequality is decided by clearing logs and denominators into integer
comparisons; no floating point is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import FlabError
from .geometry import (DEFAULT_BUDGET, Point, Subspace, coset_histogram,
                       scan_directions)


class RationalDistribution(NamedTuple):
    """Pr[R = x] = weights[x] / total with positive integer weights."""

    field: object
    n: int
    weights: Mapping[Point, int]
    total: int

    @classmethod
    def of(cls, F, n: int, weights: Mapping[Sequence[int], int]) -> "RationalDistribution":
        clean = {tuple(x): w for x, w in weights.items() if w}
        if not clean:
            raise FlabError("distribution needs nonempty support")
        if any(w < 0 for w in clean.values()):
            raise FlabError("weights must be positive")
        for x in clean:
            if len(x) != n:
                raise FlabError(f"point {x} not {n}-dimensional")
        return cls(field=F, n=n, weights=clean, total=sum(clean.values()))

    @classmethod
    def uniform_on(cls, F, n: int, points: Iterable[Sequence[int]]) -> "RationalDistribution":
        return cls.of(F, n, {tuple(p): 1 for p in points})


class EntropyValue(NamedTuple):
    """H = -log_q(max_weight / total), stored as the exact integer pair."""

    max_weight: int
    total: int

    # higher entropy <=> smaller mode probability; all four comparisons,
    # since the tuple order of the fields would answer the other two
    def __le__(self, other: "EntropyValue") -> bool:
        return self.max_weight * other.total >= other.max_weight * self.total

    def __lt__(self, other: "EntropyValue") -> bool:
        return self.max_weight * other.total > other.max_weight * self.total

    def __ge__(self, other: "EntropyValue") -> bool:
        return other <= self

    def __gt__(self, other: "EntropyValue") -> bool:
        return other < self

    def equals_log(self, q: int, k: int) -> bool:
        """True iff the entropy is the integer k: max_weight/total = q^-k."""
        return self.max_weight * q ** k == self.total


def min_entropy(dist: RationalDistribution) -> EntropyValue:
    return EntropyValue(max_weight=max(dist.weights.values()),
                        total=dist.total)


def pushforward(dist: RationalDistribution,
                kernel: Subspace) -> RationalDistribution:
    """Image of dist under the canonical projection with the given kernel.

    Each coset of the kernel maps to the free (non-pivot) coordinates of its
    canonical shift, so the image weights are the kernel's coset histogram.
    """
    F = dist.field
    if kernel.n != dist.n:
        raise FlabError("kernel and distribution ambient dims differ")
    pivots = set(kernel.pivots())
    free = [j for j in range(dist.n) if j not in pivots]
    hist = coset_histogram(F, dist.weights.items(), kernel)
    return RationalDistribution(
        field=F, n=dist.n - kernel.k,
        weights={tuple(shift[j] for j in free): w
                 for shift, w in hist.items()},
        total=dist.total)


def best_projection(dist: RationalDistribution, k: int,
                    budget: int = DEFAULT_BUDGET) -> tuple[Subspace, EntropyValue]:
    """Exhaustive max of min-entropy over the rank-k kernels: the kernel
    whose heaviest coset is lightest, and that entropy.

    The entropy of an onto linear image depends on its kernel only (the
    mode is the heaviest coset); ties broken by kernel enumeration order.
    """
    n = dist.n
    if not 1 <= k < n:
        raise FlabError(f"k = {k} outside [1, {n})")
    kernel, hist = min(scan_directions(dist.field, n, k,
                                       list(dist.weights.items()), budget),
                       key=lambda pair: max(pair[1].values()))
    return kernel, EntropyValue(max_weight=max(hist.values()),
                                total=dist.total)


class EntropicBoundReport(NamedTuple):
    ok: bool
    lhs: int            # g^n q^{nk}
    rhs: int            # f(v)^{n-k} S^k (2q-1)^{nk}
    margin: int         # rhs - lhs


def entropic_inequality_sides(q: int, n: int, k: int, g: int, fv: int,
                              total: int) -> tuple[int, int]:
    """Integer form of H(phi(R)) >= ((n-k)/n) H(R) - k log_q(2 - 1/q)."""
    lhs = g ** n * q ** (n * k)
    rhs = fv ** (n - k) * total ** k * (2 * q - 1) ** (n * k)
    return lhs, rhs


def check_entropic_bound(dist: RationalDistribution, k: int,
                         budget: int = DEFAULT_BUDGET) -> EntropicBoundReport:
    F = dist.field
    _, attained = best_projection(dist, k, budget=budget)
    fv = max(dist.weights.values())
    lhs, rhs = entropic_inequality_sides(F.q, dist.n, k,
                                         attained.max_weight, fv, dist.total)
    return EntropicBoundReport(ok=lhs <= rhs, lhs=lhs, rhs=rhs,
                               margin=rhs - lhs)


class RecursionReport(NamedTuple):
    composed: EntropyValue
    direct: EntropyValue
    composed_le_direct: bool
    composed_ok: bool
    direct_ok: bool


def check_recursion(dist: RationalDistribution, k: int,
                    budget: int = DEFAULT_BUDGET) -> RecursionReport:
    """Greedy k-step chain of best codimension-1 projections vs direct rank-k."""
    F = dist.field
    n = dist.n
    if not 1 <= k < n:
        raise FlabError(f"k = {k} outside [1, {n})")
    cur = dist
    for _ in range(k):
        kernel, _ = best_projection(cur, 1, budget=budget)
        cur = pushforward(cur, kernel)
    composed = min_entropy(cur)
    _, direct = best_projection(dist, k, budget=budget)
    fv = max(dist.weights.values())
    c_lhs, c_rhs = entropic_inequality_sides(F.q, n, k, composed.max_weight,
                                             fv, dist.total)
    d_lhs, d_rhs = entropic_inequality_sides(F.q, n, k, direct.max_weight,
                                             fv, dist.total)
    return RecursionReport(composed=composed, direct=direct,
                           composed_le_direct=composed <= direct,
                           composed_ok=c_lhs <= c_rhs,
                           direct_ok=d_lhs <= d_rhs)


class NormBoundReport(NamedTuple):
    hypothesis_ok: bool
    failing_direction: Subspace | None
    power_sum: int      # sum |f(x)|^n
    lhs: int            # (2q-1)^n sum |f|^n
    rhs: int            # r^n q^n
    ok: bool


def norm_bound_check(F, n: int, values: Mapping[Sequence[int], int],
                     r: int, budget: int = DEFAULT_BUDGET) -> NormBoundReport:
    """Power-sum lower bound for functions with an r-heavy line per direction.

    values is an integer-valued function on F_q^n (zeros allowed, absolute
    values taken).  The hypothesis check scans all rank-1 directions.
    """
    absvals = {tuple(x): abs(v) for x, v in values.items() if v}
    failing = next((d for d, hist in scan_directions(
                        F, n, 1, list(absvals.items()), budget)
                    if max(hist.values(), default=0) < r), None)
    hypothesis_ok = failing is None
    power_sum = sum(v ** n for v in absvals.values())
    q = F.q
    lhs = (2 * q - 1) ** n * power_sum
    rhs = r ** n * q ** n
    return NormBoundReport(hypothesis_ok=hypothesis_ok,
                           failing_direction=failing,
                           power_sum=power_sum, lhs=lhs, rhs=rhs,
                           ok=lhs >= rhs)


class QExponent(NamedTuple):
    """A real number alpha + beta log_q(2) with exact rational alpha, beta.

    Used as the exponent t in C = q^{-t}; closed under the rational scaling
    the A(n,k) <-> B(n,k) constant transforms perform.  When q is a power of
    two the log term folds into the rational part, so 2^{-n} and q^{-t}
    representations compare exactly.
    """

    q: int
    alpha: Fraction
    beta: Fraction

    @classmethod
    def make(cls, q: int, alpha, beta=0) -> "QExponent":
        alpha = Fraction(alpha)
        beta = Fraction(beta)
        s = _power_of_two_exponent(q)
        if s is not None and beta:
            alpha += beta / s
            beta = Fraction(0)
        return cls(q=q, alpha=alpha, beta=beta)

    def scaled(self, factor: Fraction) -> "QExponent":
        return QExponent.make(self.q, self.alpha * factor, self.beta * factor)

    def sign(self) -> int:
        """Exact sign of alpha + beta log_q(2), that is of log_q(q^x 2^y)
        for x = alpha L and y = beta L over the common denominator L."""
        a, b = self.alpha, self.beta
        if a * b >= 0:
            return (a + b > 0) - (a + b < 0)
        L = a.denominator * b.denominator
        x, y = int(a * L), int(b * L)
        up = self.q ** max(x, 0) * 2 ** max(y, 0)
        down = self.q ** max(-x, 0) * 2 ** max(-y, 0)
        return (up > down) - (up < down)


def _power_of_two_exponent(q: int) -> int | None:
    s = q.bit_length() - 1
    return s if q == 1 << s else None


def ab_constants(direction: str, value: QExponent | Fraction | int,
                 n: int, k: int, q: int) -> QExponent:
    """Exact transform between the set-bound constant C and entropy loss D.

    C is carried as the exponent t with C = q^{-t}; D as a plain real in the
    same alpha + beta log_q(2) representation.  AtoB: D = (k/n) t.
    BtoA: t = (n/k) D.
    """
    if not 1 <= k < n:
        raise FlabError(f"k = {k} outside [1, {n})")
    if not isinstance(value, QExponent):
        value = QExponent.make(q, Fraction(value))
    elif value.q != q:
        raise FlabError("exponent base mismatch")
    if direction == "AtoB":
        if value.sign() < 0:
            raise FlabError("AtoB needs C <= 1, i.e. exponent t >= 0")
        return value.scaled(Fraction(k, n))
    if direction == "BtoA":
        if value.sign() < 0:
            raise FlabError("BtoA needs D >= 0")
        return value.scaled(Fraction(n, k))
    raise FlabError(f"unknown direction {direction!r}")
