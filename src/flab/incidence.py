"""Point-flat incidences, incidence-lemma censuses and contained subflats.

Every square root on the bound side of an inequality is rounded up by
furstenberg.sqrt_up (ceil(sqrt(ab))/b for a/b, exact on rational squares),
so an "ok" verdict is conservative: it can only confirm the lemma, never
falsely accuse it.
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .errors import FlabError
from .geometry import (CAP_BITS, DEFAULT_BUDGET, DIGIT_CAP, Flat, PointSet,
                       Subspace, charge, coset_histogram, flat_points,
                       qbinomial, scan_directions)

# count builds no Fraction and runs no search: fractions and furstenberg
# are loaded by the functions that use them
if TYPE_CHECKING:
    from fractions import Fraction


class FlatFamily(NamedTuple):
    """Deduplicated set of flats of a common rank."""

    field: object
    n: int
    rank: int
    flats: tuple[Flat, ...]

    @classmethod
    def of(cls, F, n: int, flats: Iterable[Flat]) -> "FlatFamily":
        uniq = sorted(set(flats))   # by direction basis, then shift
        ranks = {f.direction.k for f in uniq}
        if len(ranks) > 1:
            raise FlabError(f"mixed flat ranks {sorted(ranks)}")
        rank = ranks.pop() if ranks else 0
        if any(f.direction.n != n for f in uniq):
            raise FlabError("ambient dimension mismatch")
        return cls(field=F, n=n, rank=rank, flats=tuple(uniq))

    def __len__(self) -> int:
        return len(self.flats)


def count_incidences(S: PointSet, L: FlatFamily) -> int:
    """I(S, L): one coset histogram of S per distinct flat direction, then
    each flat's count is its shift's entry."""
    if S.field != L.field or S.n != L.n:
        raise FlabError("point set and flats in different ambients")
    unit = [(p, 1) for p in S.points]
    hists = {d: coset_histogram(S.field, unit, d)
             for d in {f.direction for f in L.flats}}
    return sum(hists[f.direction][f.shift] for f in L.flats)


class IncidenceReport(NamedTuple):
    incidences: int
    rhs: Fraction
    ok: bool
    radicand: int = 0           # the Haemers square-root term's radicand
    extra: Mapping[str, object] | None = None


def haemers_check(S: PointSet, L: FlatFamily) -> IncidenceReport:
    """I(S,L) <= q^{k-n}|S||L| + sqrt(q^k binom(n-1,k)_q |S||L|); FlabError,
    on bit length before any power, if q^(n-k) or q^(k(n-k)) has more than
    DIGIT_CAP digits.  Whether the report prints is the CLI's decision."""
    from fractions import Fraction
    from .furstenberg import sqrt_up
    F = S.field
    q, n, k = F.q, S.n, L.rank
    I = count_incidences(S, L)
    s = len(S) * len(L)   # 0 for a bare header, whose n is never powered
    # q^j >= 2^(j (bits(q) - 1)), and q^k binom(n-1,k)_q >= q^(k(n-k))
    if s and max(k, 1) * (n - k) * (q.bit_length() - 1) >= CAP_BITS:
        raise FlabError(f"Haemers bound term has more than {DIGIT_CAP} digits")
    power = q ** (n - k) if s else 1
    radicand = q ** k * qbinomial(n - 1, k, q) * s if s else 0
    rhs = Fraction(s, power) + sqrt_up(radicand)
    return IncidenceReport(incidences=I, rhs=rhs, ok=I <= rhs,
                           radicand=radicand)


def poor_flat_census(S: PointSet, l: int, delta: Fraction,
                     budget: int = DEFAULT_BUDGET) -> IncidenceReport:
    """Count of (S, delta m q^{l-k} + 1)-poor l-flats in F_q^k vs the bound.

    S lives in the whole ambient F_q^k (the spec's k is the ambient
    dimension here); poor means strictly fewer points than the threshold.
    """
    from fractions import Fraction
    F = S.field
    k = S.n
    q = F.q
    if not 1 <= l <= k - 1:
        raise FlabError(f"l = {l} outside [1, {k - 1}]")
    if not 0 < delta < 1:
        raise FlabError(f"delta = {delta} outside (0,1)")
    scan = scan_directions(F, k, l, [(p, 1) for p in S.points], budget)
    m = len(S)
    threshold = delta * m * Fraction(q ** l, q ** k) + 1
    # threshold >= 1, so the q^(k-l) - len(hist) empty cosets are poor too
    poor = sum(q ** (k - l) - len(hist)
               + sum(1 for c in hist.values() if c < threshold)
               for _, hist in scan)
    bound = Fraction(q ** (k - l) * qbinomial(k, l, q), 1) \
        / (1 + m * Fraction(q ** l, q ** k) * (1 - delta) ** 2)
    return IncidenceReport(incidences=poor, rhs=bound, ok=poor <= bound,
                           extra={"threshold": threshold, "m": m})


def contained_subflats(Ffam: FlatFamily, l: int,
                       budget: int = DEFAULT_BUDGET) -> IncidenceReport:
    """Count of l-flats inside a one-per-direction family of k-flats, against
    K(q, n-l, k-l, q^{k-l}) binom(n,l)_q: K is q^(n-l), the whole
    (n-l)-space, when k = n, exact when the reduced instance fits the
    exhaustive search, otherwise the search's bound-table lower bound.

    Only l-flats inside family flats are built: C + s in F_q^k maps into
    shift + span(B) as C B + shift + s B (C B is RREF: B's pivot columns
    carry C).  The |family| binom(k,l)_q q^(k-l) pairs are charged first.
    """
    from fractions import Fraction
    F = Ffam.field
    n, k, q = Ffam.n, Ffam.rank, F.q
    if not 0 < l < k:
        raise FlabError(f"l = {l} outside (0, {k})")
    if len({f.direction for f in Ffam.flats}) != len(Ffam) \
            or len(Ffam) != qbinomial(n, k, q):
        raise FlabError(f"need exactly one flat per rank-{k} direction")
    # binom(k,l)_q q^(k-l) >= q^((l+1)(k-l)) bounds the pairs' bits
    charge(((l + 1) * (k - l) * (q.bit_length() - 1),
            lambda: len(Ffam) * qbinomial(k, l, q) * q ** (k - l)),
           "subflat pairs", budget)
    # C's rows and shifts (zero at its pivots) as indices into flat_points
    place = [q ** (k - 1 - j) for j in range(k)]
    local = []
    for C, _ in scan_directions(F, k, l, (), budget):
        shifts = [0]
        for j in set(range(k)) - set(C.pivots()):
            shifts = [s + x * place[j] for s in shifts for x in range(q)]
        local.append(([sum(map(mul, r, place)) for r in C.basis], shifts))
    images: dict[tuple, list] = {}      # E's rows -> its items
    for f in Ffam.flats:
        items = [(p, 1) for p in flat_points(F, f, budget)]
        vectors = flat_points(F, Flat(f.direction, (0,) * n), budget)
        for rows, shifts in local:
            images.setdefault(tuple(map(vectors.__getitem__, rows)),
                              []).extend(map(items.__getitem__, shifts))
    count = sum(len(coset_histogram(F, reps, Subspace(n, l, rows)))
                for rows, reps in images.items())
    if k == n:      # the one family flat is the whole space
        kfac = q ** (n - l)
    else:
        from .furstenberg import FurstenbergInstance, search_extremal
        res = search_extremal(FurstenbergInstance(
            field=F, n=n - l, k=k - l, m=q ** (k - l)), budget=budget)
        kfac = res.exact if res.exact is not None else res.lower
    bound = kfac * qbinomial(n, l, q)
    return IncidenceReport(incidences=count, rhs=Fraction(bound),
                           ok=count >= bound, extra={"k_factor": kfac})


def kakeya_becks_census(S: PointSet, k: int, delta: Fraction,
                        budget: int = DEFAULT_BUDGET) -> IncidenceReport:
    """Census of rich (k-1)-flats for a Furstenberg set.

    m is the largest value for which S is (k,m)-Furstenberg (the minimum
    over directions of the best coset count).  The largeness hypothesis on
    m rarely holds at desk scale, so hypothesis_met is reported separately
    and the census is returned either way.
    """
    from fractions import Fraction
    F = S.field
    n, q = S.n, F.q
    if not 1 <= k <= n:
        raise FlabError(f"k = {k} outside [1, {n}]")
    if not 0 < delta < 1:
        raise FlabError(f"delta = {delta} outside (0,1)")
    unit = [(p, 1) for p in S.points]
    m = min(max(hist.values(), default=0)
            for _, hist in scan_directions(F, n, k, unit, budget))
    threshold = delta * m * Fraction(1, q) + 1
    census = sum(1 for _, hist in scan_directions(F, n, k - 1, unit, budget)
                 for c in hist.values() if c >= threshold)
    bound = Fraction(q ** (n - k + 1) * qbinomial(n, k - 1, q),
                     2 ** (n + 2 - k))
    hypothesis_met = Fraction(m) >= Fraction(2 ** (n + 3 - k) * q) \
        / (1 - delta) ** 2
    return IncidenceReport(incidences=census, rhs=bound, ok=census > bound,
                           extra={"m": m, "hypothesis_met": hypothesis_met,
                                  "threshold": threshold})


class HeavyFlatsBound(NamedTuple):
    rational_part: Fraction     # delta kappa/(kappa+1) q^n
    radicand: Fraction          # delta (1-delta) / kappa
    lower_value: Fraction       # rational_part - sqrt_up(radicand) q^n


def heavy_flats_lower_bound(delta: Fraction, gamma: Fraction, l: int,
                            n: int, q: int) -> HeavyFlatsBound:
    """RHS of the covering bound for flats that each hold delta q^l points.

    lower_value rounds the square root up with sqrt_up, so it is a valid
    lower bound for the exact expression, and equal to it when the radicand
    is a rational square.
    """
    from fractions import Fraction
    from .furstenberg import sqrt_up
    delta, gamma = Fraction(delta), Fraction(gamma)
    if delta <= 0 or gamma <= 0:
        raise FlabError("delta and gamma must be positive")
    kappa = gamma * q ** l
    rational_part = delta * kappa / (kappa + 1) * q ** n
    radicand = delta * (1 - delta) / kappa
    if radicand < 0:
        raise FlabError("delta > 1 makes the radicand negative")
    lower_value = rational_part - sqrt_up(radicand) * q ** n
    return HeavyFlatsBound(rational_part=rational_part, radicand=radicand,
                           lower_value=lower_value)
