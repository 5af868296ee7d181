"""Furstenberg-set verification, extremal search, bounds, constructions.

A (k,m)-Furstenberg set meets a translate of every rank-k subspace in at
least m points.  The verifier takes the coset histogram of each direction;
the exact search computes K(q,n,k,m) size by size with a pruned lex-order
depth-first search on per-direction coset bitmasks of the whole space,
proving each size below K empty up to affine symmetry.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .errors import FlabError
from .gf import ExtensionField, base_vector_iso
from .geometry import (CAP_BITS, DEFAULT_BUDGET, DIGIT_CAP, Flat, Point,
                       PointSet, Subspace, all_points, charge,
                       scan_directions)

if TYPE_CHECKING:       # verify builds no Fraction, so loads no fractions
    from fractions import Fraction


class _Instance(NamedTuple):
    field: object
    n: int
    k: int
    m: int

    @property
    def q(self) -> int:
        return self.field.q


class FurstenbergInstance(_Instance):
    """_Instance with the range check in __new__, barred in a NamedTuple."""

    __slots__ = ()

    def __new__(cls, field, n: int, k: int, m: int):
        if not 1 <= k < n:
            raise FlabError(f"need 1 <= k < n, got k={k}, n={n}")
        # q^j >= 2^j > m for j = bit_length(m): no need for q^k past that
        if not 1 <= m <= field.q ** min(k, m.bit_length()):
            raise FlabError(f"need 1 <= m <= q^k, got m={m}")
        return super().__new__(cls, field, n, k, m)


class WitnessFamily(NamedTuple):
    """Best witness flat and intersection count per rank-k direction."""

    assignment: Mapping[Subspace, Flat]
    coverage: Mapping[Subspace, int]


def coverage_over_directions(
        scan: Iterable[tuple[Subspace, Mapping[Point, int]]], m: int):
    """Furstenberg-style coverage over the (direction, coset histogram)
    pairs of a scan: (True, WitnessFamily) or (False, first failing
    direction).  Each witness flat is the lex-least coset of largest
    count."""
    assignment: dict[Subspace, Flat] = {}
    coverage: dict[Subspace, int] = {}
    for direction, counts in scan:
        best = max(counts.values(), default=0)
        if best < m:
            return False, direction
        shift = min((s for s, c in counts.items() if c == best), default=None)
        assignment[direction] = Flat(direction, shift)
        coverage[direction] = best
    return True, WitnessFamily(assignment=assignment, coverage=coverage)


def is_furstenberg(S: PointSet, k: int, m: int,
                   budget: int = DEFAULT_BUDGET):
    """Verify the Furstenberg property over every rank-k direction, in
    enumeration order; returns as coverage_over_directions."""
    if m < 1:
        raise FlabError(f"need m >= 1, got m={m}")
    return coverage_over_directions(scan_directions(
        S.field, S.n, k, [(p, 1) for p in S.points], budget), m)


# ---------------------------------------------------------------------------
# Bound table


class BoundRow(NamedTuple):
    """One bound: t >= (or <=) (rhs_num/rhs_den)^(1/root) - sqrt(rad).

    The bound table prints rhs_num and rhs_den as bound_table builds them:
    thm_general_recursive, thm_divisible and kakeya_poly_method unreduced
    over their power of 2, the other rows in lowest terms.  Only lower rows
    carry a radicand.
    """

    source: str
    kind: str                      # "lower" | "upper"
    rhs_num: int
    rhs_den: int
    exponent_note: str             # "" for plain rationals
    applicable: bool
    root: int = 1
    rad: Fraction | int = 0

    def satisfied_by(self, t: int) -> bool:
        """Exact test of 't on the correct side of this row's value'.

        sqrt(rad) is rounded up by sqrt_up, which only weakens a lower
        bound: a False is a certain violation.
        """
        lhs = (t + sqrt_up(self.rad)) ** self.root * self.rhs_den
        return lhs >= self.rhs_num if self.kind == "lower" \
            else lhs <= self.rhs_num

    def value(self) -> Fraction | None:
        """The exact value: rhs_num/rhs_den in lowest terms must be a
        root-th power (at root 1, any rational, negative ones included)
        and rad a rational square.  Otherwise None, as for every
        irrational value."""
        from fractions import Fraction
        x = Fraction(self.rhs_num, self.rhs_den)
        r = x if self.root == 1 else Fraction(
            iroot(max(x.numerator, 0), self.root),
            iroot(x.denominator, self.root))
        s = sqrt_up(self.rad)
        if (r ** self.root, s * s) != (x, self.rad):
            return None
        return r - s


class BoundReport(NamedTuple):
    instance: FurstenbergInstance
    rows: tuple[BoundRow, ...]

    def lower_rows(self) -> list[BoundRow]:
        return [r for r in self.rows if r.kind == "lower" and r.applicable]

    def best_integer_lower(self) -> int:
        """Largest least integer t meeting an applicable lower row without
        a radicand."""
        best = 1
        for r in self.lower_rows():
            if r.rad:
                continue
            # smallest t with t^root >= ceil(num / den)
            c = -(-r.rhs_num // r.rhs_den)
            t = iroot(max(c, 0), r.root)
            best = max(best, t if t ** r.root >= c else t + 1)
        return best


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of x >= 0, by integer Newton iteration."""
    if x < 0 or k < 1:
        raise FlabError(f"no real {k}-th root of {x}")
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // k)    # 2^ceil(bits/k) > x^(1/k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def sqrt_up(x: Fraction) -> Fraction:
    """ceil(sqrt(a b))/b for x = a/b: exact on rational squares, otherwise
    just above sqrt(x), so subtracting it keeps a lower bound valid."""
    from fractions import Fraction
    x = Fraction(x)
    if x < 0:
        raise FlabError(f"no real square root of {x}")
    a, b = x.numerator, x.denominator
    s = math.isqrt(a * b)
    return Fraction(s if s * s == a * b else s + 1, b)


def bound_table(instance: FurstenbergInstance,
                epsilon: Fraction | None = None,
                printable: bool = True) -> BoundReport:
    """Every bound formula at the instance, in exact rationals.

    When printable, raises FlabError if the full-flat lower row's numerator
    q^{(k+1)n} (q^k + q - 1 is prime to q), the table's largest number, has
    more than DIGIT_CAP digits: checked on bit length before any power is
    taken, it guards the work of building the rows, not their printing.
    """
    from fractions import Fraction
    q, n, k, m = instance.q, instance.n, instance.k, instance.m
    if epsilon is not None and not 0 < epsilon < 1:
        raise FlabError(f"epsilon {epsilon} outside (0,1)")
    # q^j >= 2^(j (bits(q) - 1))
    if printable and (k + 1) * n * (q.bit_length() - 1) >= CAP_BITS:
        raise FlabError(f"q^((k+1)n) = {q}^{(k + 1) * n} has more than "
                        f"{DIGIT_CAP} digits")
    rows: list[BoundRow] = []

    # main lower bound for general k: K >= 2^{-n} m^{n/k}
    rows.append(BoundRow(
        source="thm_general_recursive", kind="lower",
        rhs_num=m ** n, rhs_den=2 ** (n * k),
        exponent_note=f"(num/den)^(1/{k})", applicable=True, root=k))

    # large-m regime: K >= (1 - eps) m q^{n-k}
    if epsilon is not None:
        thresh = Fraction(2 ** (n + 7 - k) * q, 1) / epsilon ** 2
        appl = k >= 2 and Fraction(m) >= thresh
        val = (1 - epsilon) * m * q ** (n - k)
        rows.append(BoundRow(
            source="thm_large_m", kind="lower",
            rhs_num=val.numerator, rhs_den=val.denominator,
            exponent_note="", applicable=appl))

    # pure incidence regime: K >= (1 - q^{n-2k} - sqrt(q^{n-k}/m)) m q^{n-k}
    appl13 = (2 * k > n) and (k < n) and (q ** (n - k) < m)
    base = m * q ** (n - k)
    num, den = (q ** (2 * k) - q ** n) * base, q ** (2 * k)
    g = math.gcd(num, den)
    rows.append(BoundRow(
        source="thm_pure_incidence", kind="lower", rhs_num=num // g,
        rhs_den=den // g, exponent_note="minus sqrt(radicand)",
        applicable=appl13, rad=Fraction(q ** (n - k) * base * base, m)))

    # divisible case: K >= 2^{-n/k} m^{n/k}
    rows.append(BoundRow(
        source="thm_divisible", kind="lower",
        rhs_num=m ** n, rhs_den=2 ** n,
        exponent_note=f"(num/den)^(1/{k})", applicable=n % k == 0, root=k))

    # Kakeya base case: K(q,n,1,q) >= 2^{-n} q^n
    rows.append(BoundRow(
        source="kakeya_poly_method", kind="lower",
        rhs_num=q ** n, rhs_den=2 ** n,
        exponent_note="", applicable=(k == 1 and m == q)))

    # full-flat lower bound: K(q,n,k,q^k) >= (q^{k+1}/(q^k+q-1))^n, in
    # lowest terms as q^k + q - 1 = -1 (mod p)
    rows.append(BoundRow(
        source="full_flat_lower", kind="lower",
        rhs_num=q ** ((k + 1) * n), rhs_den=(q ** k + q - 1) ** n,
        exponent_note="", applicable=(m == q ** k)))

    # full-flat construction: K(q,n,k,q^k) <= (1-(q-3)/(2q^k))^{floor(n/(k+1))} q^n
    j = n // (k + 1)
    num, den = (2 * q ** k - q + 3) ** j * q ** n, (2 * q ** k) ** j
    g = math.gcd(num, den)
    rows.append(BoundRow(
        source="full_flat_construction", kind="upper",
        rhs_num=num // g, rhs_den=den // g,
        exponent_note="", applicable=(m == q ** k)))

    # algebraic-geometry bound: constant never made explicit, so the row is
    # present for completeness but never applicable numerically
    rows.append(BoundRow(
        source="algebraic_geometry_method", kind="lower",
        rhs_num=m ** n, rhs_den=1,
        exponent_note=f"C (unspecified) * (num)^(1/{k})", applicable=False,
        root=k))

    # trivial pigeonhole construction: K <= m q^{n-k}
    rows.append(BoundRow(
        source="trivial_pigeonhole", kind="upper",
        rhs_num=m * q ** (n - k), rhs_den=1,
        exponent_note="", applicable=True))

    return BoundReport(instance=instance, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Exact extremal search


class SearchResult(NamedTuple):
    exact: int | None
    lower: int
    upper: int
    witness: PointSet | None


EXACT_SEARCH_LIMIT = 16   # exhaustive search only for q^n at most this


def search_extremal(instance: FurstenbergInstance,
                    budget: int = DEFAULT_BUDGET) -> SearchResult:
    """K(q,n,k,m) exactly at tiny scale, otherwise (lower, upper) bounds.

    Exact mode tries each size upward with the pruned lex-order search of
    _first_completion; bit i of a set mask is point i in lex order.  For
    m >= 2 let c be least with q^c >= m and d = min(n, n - k + c).  No
    affine flat W of dimension w < d holds a Furstenberg set: a rank-k
    direction D meeting the direction of W in dimension
    max(0, k + w - n) < c has every coset meet W in at most q^max(0, k+w-n) < m points.  So a
    Furstenberg set holds d + 1 affinely independent points, and AGL(n,q),
    which maps flats to flats and permutes the directions, maps them to the
    frame B: the origin, e_n, e_{n-1}, ..., e_{n-d+1}, lex points 0, 1, q,
    ..., q^(d-1).  Each size from the larger of d + 1 and the bound table's
    lower bound is ruled out over the sets that hold B (d = 0 when m = 1,
    where K = 1).

    A size past d + 1 is ruled out once per orbit of the group G of affine
    maps that map B onto B, split on the set's least point x off B, and
    within a branch on its second point y off B.  Only an x least in its
    G-orbit is tried, with every other point of the set above x and of
    orbit-min at least x; then only a y least in its orbit under the
    stabiliser G_x of x, with every later point of G_x-orbit-min at least
    y.  Proof: map a set S that holds B by a g in G that minimises the
    least point x of g(S) off B, and among those, the second, y.  g(S)
    holds B, and were h(z) < x for some h in G and some point z of g(S) off
    B (z = x included), h(g(S)) would hold B and a point off B below x.
    An h in G_x keeps B, x and each G-orbit-min, so it maps the points of
    g(S) off B other than x above x; were h(z) < y for such a point z
    (z = y included), h(g(S)) would have least point x and a second below
    y.  The orbits need no group elements (_frame_orbit_mins): G restricted
    to the frame's flat W, lex points below q^d, is every permutation of
    B, so the orbit of a point of W is the multiset of its barycentric
    coordinates, and the maps that fix W pointwise make the points off W
    one orbit.  G_x is the same for B with labels: for x in W, each frame
    point labelled with x's barycentric coordinate there, which G_x must
    keep; for x off W, x = q^d, the larger frame B + {x} with x labelled
    apart.  Each branch is the one walk over its allowed points, with the
    others closed from the start or once y is chosen.

    At the first size left, the plain search from {0} returns the
    lex-first set that holds the origin as the witness; its node test
    packs a byte count per coset of every direction into one int, for
    q^n < 128.  Those slot vectors depend only on (field, n, k), not on m
    or the budget, so _node_vectors builds them once per process, and a
    sweep over m pays for its direction scan once; the branches depend
    only on (field, n, d).  Every call charges the same work in the same
    order, cached or not: the scan's flats and basis entries, then the
    bound table's largest number, q^((k+1)n), in bits before it is built,
    then the search nodes.  At m = 1, K = 1 with the origin as the witness
    and as the bound table's best lower bound, so that call charges the
    scan and the table's bits, refuses q^n >= 128 as the walk would, and
    builds nothing.
    """
    F, n, k, m = instance.field, instance.n, instance.k, instance.m
    q = F.q
    # q^j >= 2^j > EXACT_SEARCH_LIMIT for j = its bit length
    exact = q ** min(n, EXACT_SEARCH_LIMIT.bit_length()) <= EXACT_SEARCH_LIMIT
    if exact:
        # the walk's charges, on every call whether or not its vectors are
        # cached: the scan over no items is charged and never run
        scan_directions(F, n, k, (), budget)
    charge((k + 1) * n * (q - 1).bit_length(), "bound-table bits", budget)
    if exact and m == 1:
        # the origin meets a flat of every direction, and no lower row
        # without a radicand passes 1; the walk's 2 nodes never pass a
        # budget that its flats, at least 3, are within
        _byte_slots(q ** n)
        return SearchResult(exact=1, lower=1, upper=1,
                            witness=PointSet.of(F, n, [(0,) * n]))
    # search prints no row, so its table need not print
    lower = bound_table(instance, printable=False).best_integer_lower()
    if not exact:
        construction = trivial_construction(instance, budget=budget)
        return SearchResult(exact=None, lower=lower, upper=len(construction),
                            witness=construction)
    pts, vec, D, T = _node_vectors(F, n, k)
    first = _first_completion(vec, D, T, m, budget)
    d = _span_floor(q, n, k, m)
    basis = 1 | sum(1 << q ** j for j in range(d))   # lex 0, 1, q, ...
    branches = _frame_branches(F, n, d)
    for size in range(max(lower, d + 1), m * q ** (n - k) + 1):
        if _frame_completes(first, basis, branches, size - d - 1):
            mask = first(1, 1, size - 1)
            S = PointSet.of(F, n, (p for i, p in enumerate(pts)
                                   if mask >> i & 1))
            return SearchResult(exact=size, lower=lower, upper=size,
                                witness=S)
    # the trivial construction always verifies, so this is unreachable
    raise AssertionError("exhaustive search failed to find any witness")


def _span_floor(q: int, n: int, k: int, m: int) -> int:
    """d of search_extremal: every (k,m)-Furstenberg set in F_q^n spans
    an affine flat of dimension at least d."""
    if m == 1:
        return 0
    c = 0
    while q ** c < m:
        c += 1
    return min(n, n - k + c)


def _frame_completes(first, basis: int, branches: tuple, r: int) -> bool:
    """Whether the frame basis and r more points make a set that passes
    first's node test, split on the set's least points off the frame as
    search_extremal proves, one walk per branch of _frame_branches."""
    if not r:
        return bool(first(basis, 1, 0))
    return any(first(basis | 1 << x, x + 1, r - 1, shut, seconds)
               for x, shut, seconds in branches)


def _barycentric(F, n: int, d: int, p: Point) -> tuple[int, ...]:
    """The coordinates of p over the frame of d + 1 points, lex 0, 1, q,
    ..., q^(d-1): 1 - sum(c), then c, c_j the coordinate of frame point j,
    e_(n+1-j), for a p in the frame's flat, whose other coordinates are 0."""
    c = tuple(p[n - j] for j in range(1, d + 1))
    return (F.sub(1, functools.reduce(F.add, c, 0)),) + c


def _frame_orbit_mins(F, n: int, labels: tuple[int, ...]) -> tuple[int, ...]:
    """The least lex index in each point's orbit under the affine maps that
    map the frame of len(labels) = d + 1 points onto itself, each frame
    point to one of the same label.  On the frame's flat, lex indices below
    q^d, such a map permutes barycentric coordinates within each label, so
    a point's orbit is every point with the same multiset of (label,
    coordinate) pairs; the maps that fix the flat pointwise make the points
    off it one orbit, least point q^d."""
    d = len(labels) - 1
    W = F.q ** d
    least: dict[tuple, int] = {}
    mins = []
    for i, p in enumerate(itertools.islice(all_points(F, n), W)):
        key = tuple(sorted(zip(labels, _barycentric(F, n, d, p))))
        mins.append(least.setdefault(key, i))
    return tuple(mins) + (W,) * (F.q ** n - W)


@functools.cache
def _frame_branches(F, n: int, d: int) -> tuple:
    """(x, shut, seconds) per branch of search_extremal's split, x
    ascending.  x is off the frame and least in its orbit; shut holds the
    points above x off the frame whose orbit-min is below x.  seconds[y]
    is None unless y may be the set's second point off the frame: above x,
    not in shut, and least in its orbit under x's stabiliser; then it holds
    the points above y, off the frame and not in shut, whose orbit-min
    under that stabiliser is below y.  Built once per (field, n, d) in a
    process, as tuples of ints and None."""
    N, W = F.q ** n, F.q ** d
    pts = all_points(F, n)
    least = _frame_orbit_mins(F, n, (0,) * (d + 1))
    frame = {0, *(F.q ** j for j in range(d))}
    branches = []
    for x in range(N):
        if least[x] != x or x in frame:
            continue
        shut = sum(1 << y for y in range(x + 1, N)
                   if least[y] < x and y not in frame)
        stab = _frame_orbit_mins(F, n, _barycentric(F, n, d, pts[x])
                                 if x < W else (0,) * (d + 1) + (1,))
        later = [y for y in range(x + 1, N)
                 if y not in frame and not shut >> y & 1]
        seconds = [None] * N
        for y in later:
            if stab[y] == y:
                seconds[y] = sum(1 << z for z in later
                                 if z > y and stab[z] < y)
        branches.append((x, shut, tuple(seconds)))
    return tuple(branches)


def _byte_slots(N: int) -> None:
    """Refuse N >= 128 points, past the node test's byte slots."""
    if N >= 128:
        raise FlabError(f"{N} points overflow the byte slots of the search")


@functools.cache
def _node_vectors(F, n: int, k: int
                  ) -> tuple[tuple[Point, ...], tuple[int, ...], int, int]:
    """(points, vec, D, T), the exact search's set-up that depends only on
    the space, built once per (field, n, k) in a process.

    points are F_q^n in lex order; vec[i] has a 1 in byte slot t*D + j if
    coset t of direction j (of D, T cosets each) holds point i, packed from
    one scan with weights 1 << i.  All are tuples and ints, so no caller
    can change what the next one reads.  q^n >= 128, past the byte slots,
    is refused before anything is built or kept, so the keys are the few
    spaces of fewer than 128 points.  The caller charges the scan against
    its own budget; here it is charged against DEFAULT_BUDGET, which its
    at most 11,160 flats (F_2^6, k = 3) never reach, so no result depends
    on a budget.
    """
    N = F.q ** n
    _byte_slots(N)
    pts = all_points(F, n)
    tables = [tuple(hist.values()) for _, hist in scan_directions(
        F, n, k, [(p, 1 << i) for i, p in enumerate(pts)], DEFAULT_BUDGET)]
    D, T, B = len(tables), len(tables[0]), -(-N // 8)   # B bytes per coset
    wide = int.from_bytes(b"".join(c.to_bytes(B, "little") for row in
                                   zip(*tables) for c in row), "little")
    ones = int.from_bytes(b"\1".ljust(B, b"\0") * T * D, "little")
    vec = tuple(int.from_bytes((wide >> i & ones).to_bytes(T * D * B,
                                                           "little")[::B],
                               "little") for i in range(N))
    return tuple(pts), vec, D, T


def _first_completion(vec: tuple[int, ...], D: int, T: int, m: int,
                      budget: int):
    """first(mask, i, r): the lex-first set mask | R, R a set of r points
    of index at least i and not in mask, that meets m points of some coset
    of every direction, or 0 if there is none.

    A node (mask, i, r) is pruned unless every direction has a coset c
    with |open & c| >= m and |mask & c| >= m - r, open = mask | {i..N-1}.
    A node stands for every completion from index i on, so a pruned node
    ends its later siblings too.  Pruning drops only nodes with no
    completion, so the sets are met in the order that
    itertools.combinations gives them.  Nodes are counted over every call,
    and charged once past the budget.

    first(mask, i, r, shut, seconds) walks the same way over fewer sets,
    and its nonzero answer may also hold closed points.  The points of
    shut, none in mask, are closed from the start: the walk steps over
    them as over mask, and they count as closed.  The first point of R is
    only a y with seconds[y] not None, and choosing it closes the points
    of seconds[y].  over() sums vec over a set of points once per call of
    _first_completion, so each branch's entry sums are shared by every size.

    The test takes every direction at once, on the slot vectors of
    _node_vectors (N = len(vec) points); what depends on m is built here,
    per call.  cnt and closed sum vec over mask and over the points below
    i not in mask.  Cosets have N/T points, so |open & c| >= m is
    closed <= N/T - m.  Each test sets a slot's high bit after one
    subtraction, exact while N < 128, and an OR-fold of the T blocks reads
    off each direction.
    """
    N = len(vec)
    rep = int.from_bytes(b"\1" * T * D, "little")
    high, guard = rep << 7, int.from_bytes(b"\x80" * D, "little")
    room = rep * (128 + N // T - m)
    bar = [high - rep * (m - r) for r in range(m)]
    folds = [8 * D * -(-T >> s) for s in range(1, (T - 1).bit_length() + 1)]
    nodes = 0
    sums: dict[int, int] = {}   # vec summed over a set of points

    def over(points: int) -> int:
        if points not in sums:
            sums[points] = sum(v for j, v in enumerate(vec) if points >> j & 1)
        return sums[points]

    def walk(mask: int, i: int, r: int, cnt: int, closed: int,
             seconds=None) -> int:
        nonlocal nodes
        while N - i >= r:
            if mask >> i & 1:
                i += 1
                continue
            nodes += 1
            if nodes > budget:
                charge(nodes, "search nodes", budget)
            x = (room - closed) & high
            if r < m:
                x &= cnt + bar[r]
            for s in folds:
                x |= x >> s
            if x & guard != guard:
                return 0
            if not r:
                return mask
            if seconds is None:
                hit = walk(mask | 1 << i, i + 1, r - 1, cnt + vec[i], closed)
            elif seconds[i] is None:
                hit = 0
            else:
                hit = walk(mask | 1 << i | seconds[i], i + 1, r - 1,
                           cnt + vec[i], closed + over(seconds[i]))
            if hit:
                return hit
            closed += vec[i]
            i += 1
        return 0

    def first(mask: int, i: int, r: int, shut: int = 0,
              seconds: tuple | None = None) -> int:
        return walk(mask | shut, i, r, over(mask),
                    over(shut | ~mask & (1 << i) - 1), seconds)

    return first


def trivial_construction(instance: FurstenbergInstance,
                         budget: int = DEFAULT_BUDGET) -> PointSet:
    """First m q^{n-k} points in lex order; Furstenberg by pigeonholing."""
    F, n, k, m = instance.field, instance.n, instance.k, instance.m
    size = m * F.q ** (n - k)
    if size > F.q ** n:
        raise FlabError(f"{size} points exceed the ambient space")
    charge(size, "construction points", budget)
    lex = itertools.product(F.elements(), repeat=n)
    return PointSet.of(F, n, itertools.islice(lex, size))


# ---------------------------------------------------------------------------
# Field-extension lifting


def lift_construction(big: ExtensionField, S_big: PointSet) -> PointSet:
    """Flatten each point of F_{q^k}^r to F_q^{rk} coordinate-wise."""
    if S_big.field != big:
        raise FlabError("point set is not over the given big field")
    return PointSet.of(big.base, S_big.n * big.degree,
                       (base_vector_iso(big, v) for v in S_big.points))


def lifted_direction_subspaces(big: ExtensionField, r: int) -> list[Subspace]:
    """Images of the lines through the origin of F_{q^k}^r downstairs.

    Each is a rank-`big.degree` subspace of base^(r*degree); these are the
    directions the lifting argument certifies (a subfamily of all rank-k
    subspaces upstairs).
    """
    base = big.base
    n = r * big.degree
    out = []
    for line, _ in scan_directions(big, r, 1, (), DEFAULT_BUDGET):
        d = line.basis[0]
        vecs = [base_vector_iso(big, tuple(big.mul(c, x) for x in d))
                for c in big.elements()]
        out.append(Subspace.from_vectors(base, n, vecs))
    return out

