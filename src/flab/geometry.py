"""Linear and affine geometry in F_q^n: RREF, subspaces, flats, counting.

Subspaces are kept canonical as reduced-row-echelon bases, flats as a
direction subspace plus the unique coset representative with zeros in the
pivot coordinates.  The one coset reduction is a column op (_column_op):
the direction walk (_walk) makes one per direction, stepping its free entries
as an odometer, and coset_histogram and Flat.through one per nonzero free
entry.  In characteristic 2 the op subtracts by XOR of the encodings.  All
enumeration orders are deterministic.
"""

from __future__ import annotations

import itertools
import operator
import struct
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, FlabError

DEFAULT_BUDGET = 10_000_000
DIGIT_CAP = 4300   # Python's default limit on int-to-str conversion
CAP_BITS = 14285   # 2^14285 > 10^4300: an int of fewer bits prints

Point = tuple[int, ...]


def charge(work: int | tuple[int, Callable[[], int]], what: str,
           budget: int) -> None:
    """The one budget check: BudgetExceeded("{work} {what} exceed budget
    {budget}") when work > budget; a work of CAP_BITS bits or more is shown
    as "2^b or more".  A count too large to compute comes as (bits, count),
    2^bits <= count(); count is not called once 2^bits is past both the
    budget and CAP_BITS."""
    if isinstance(work, tuple):
        bits, count = work
        work = count() if bits < max(budget.bit_length(), CAP_BITS) else None
    if work is None or work > budget:
        if work is not None:
            bits = work.bit_length() - 1
        shown = work if bits < CAP_BITS else f"2^{bits} or more"
        raise BudgetExceeded(f"{shown} {what} exceed budget {budget}")


def qbinomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient binom(n,k)_q; 0 for k outside [0, n]."""
    if not 0 <= k <= n:
        return 0
    k = min(k, n - k)
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def rref(F, rows: Iterable[Sequence[int]]) -> tuple[tuple[Point, ...], int]:
    """Reduced row echelon form over the field F; returns (rows, rank).

    Zero rows are dropped from the result.  Over a prime field the rows are
    packed into ints (see _rref_packed).  Otherwise the pivot row is zero
    left of its pivot column, so each elimination walks only its nonzero
    entries from that column on.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return (), 0
    ncols = len(mat[0])
    if F.e == 1:
        code = _slot_code(F.p, min(len(mat), ncols))
        if code is not None:
            return _rref_packed(F.p, mat, code)
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = F.inv(prow[col])
        if inv != 1:
            for j in range(col, ncols):
                prow[j] = F.mul(inv, prow[j])
        entries = [(j, prow[j]) for j in range(col, ncols) if prow[j]]
        for r, row in enumerate(mat):
            if r != rank and row[col] != 0:
                c = row[col]
                for j, y in entries:
                    row[j] = F.sub(row[j], F.mul(c, y))
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank]), rank


def _slot_code(p: int, updates: int) -> str | None:
    """Smallest struct code among B, H, I, Q whose standard size holds an
    F_p entry after `updates` unreduced row updates, or None if none does.

    An entry starts below p and each update adds at most (p-1)^2.  Prime
    fields stop at p < 2^16, so (p-1)^2 < 2^32 and the 64-bit 'Q' slot
    holds up to 2^32 updates: None needs a matrix with 2^32 rows and as
    many columns, which no memory holds.
    """
    bound = (p - 1) + updates * (p - 1) ** 2
    return next((code for code in "BHIQ"
                 if bound >> 8 * struct.calcsize("<" + code) == 0), None)


def _rref_packed(p: int, mat: list[list[int]],
                 code: str) -> tuple[tuple[Point, ...], int]:
    """rref over F_p with delayed reduction (Dumas, Giorgi and Pernet,
    FFLAS-FFPACK, 2008), each row one int with a fixed-width slot per column.

    Entries are in [0, p).  A row update is one bignum multiply-add,
    row += (p - c) * prow, which leaves every slot nonnegative and, by the
    bound of _slot_code, inside its width.  Slots are reduced mod p only
    when read (pivot test and c), once per pivot row (unpacked, scaled by
    the pivot's inverse and repacked, so prow's slots are below p), and at
    the end.
    """
    nrows, ncols = len(mat), len(mat[0])
    layout = struct.Struct(f"<{ncols}{code}")   # slot j at bit j * width
    width = 8 * struct.calcsize("<" + code)
    mask = (1 << width) - 1

    def pack(row: list[int]) -> int:
        return int.from_bytes(layout.pack(*row), "little")

    def unpack(x: int) -> list[int]:
        return [v % p for v in layout.unpack(x.to_bytes(layout.size,
                                                        "little"))]

    packed = [pack(r) for r in mat]
    rank = 0
    for col in range(ncols):
        shift = col * width
        piv = next((r for r in range(rank, nrows)
                    if (packed[r] >> shift & mask) % p), None)
        if piv is None:
            continue
        packed[rank], packed[piv] = packed[piv], packed[rank]
        row = unpack(packed[rank])
        inv = pow(row[col], p - 2, p)
        prow = packed[rank] = pack([v * inv % p for v in row])
        for r in range(nrows):
            if r != rank:
                c = (packed[r] >> shift & mask) % p
                if c:
                    packed[r] += (p - c) * prow
        rank += 1
        if rank == nrows:
            break
    return tuple(tuple(unpack(x)) for x in packed[:rank]), rank


class Subspace(NamedTuple):
    """Rank-k subspace of F_q^n with an RREF basis (canonical)."""

    n: int
    k: int
    basis: tuple[Point, ...]

    @classmethod
    def from_vectors(cls, F, n: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        b, r = rref(F, vectors)
        return cls(n=n, k=r, basis=b)

    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x)
                     for row in self.basis)


def _columns(items: Iterable[tuple[Sequence[int], int]]) -> tuple:
    """The items' columns (none if no items) and weights (None if all 1)."""
    pts, weights = tuple(zip(*items)) or ((), ())
    return list(zip(*pts)), None if set(weights) <= {1} else weights


def _column_op(F, col_j: Sequence[int], y: int,
               col_c: Sequence[int]) -> list[int]:
    """col_j - y col_c, the one step of the coset reduction; subtraction is
    XOR in characteristic 2 (F_2, F_2^e and towers over them)."""
    return list(map(operator.xor if F.p == 2 else F.sub, col_j,
                    col_c if y == 1 else
                    map(F.mul, col_c, itertools.repeat(y))))


def _histogram(cols: list,
               weights: tuple[int, ...] | None) -> dict[Point, int]:
    """Summed weight per shift, the keys zip(*cols) of the reduced columns,
    each listed where it first appears: a Counter for unit weights, else the
    plain dict it sums into (faster than a Counter, and not copied)."""
    if weights is None:
        return Counter(zip(*cols))
    hist: dict[Point, int] = {}
    for key, w in zip(zip(*cols), weights):
        hist[key] = hist.get(key, 0) + w
    return hist


def coset_histogram(F, items: Iterable[tuple[Sequence[int], int]],
                    direction: Subspace) -> dict[Point, int]:
    """Summed weight of the (point, weight) items per coset of direction,
    keyed by canonical shift; weights 1 << i give each coset its bitmask.
    With unit weights or no items it is a Counter: an empty coset reads 0.
    One column op per nonzero free entry; pivot columns are zeroed."""
    cols, weights = _columns(items)
    if not cols:
        return Counter()
    reduced = cols.copy()
    for row, c in zip(direction.basis, direction.pivots()):
        reduced[c] = (0,) * len(cols[c])
        for j, y in enumerate(row):
            if y and j != c:
                reduced[j] = _column_op(F, reduced[j], y, cols[c])
    return _histogram(reduced, weights)


def _walk(F, n: int, k: int, cols: list,
          weights: tuple[int, ...] | None
          ) -> Iterator[tuple[Subspace, dict[Point, int]]]:
    """The one enumeration, run by scan_directions: each rank-k RREF basis,
    pivot set first, then its free entries (row i, pivot c, non-pivot j > c)
    lexicographically in F.elements() order, with the histogram of the
    columns reduced modulo it (without columns, {} and no column op).

    The free entries run as an odometer (Knuth, TAOCP 4A, 7.2.1.1): a step
    sets one entry e to a nonzero value and zeroes every later one.  Each op
    reads a pivot column, which no op changes, so the ops commute: the new
    columns are states[e], the columns reduced by entries 0..e-1, with one
    op, and the stack holds at most one new column per free entry.
    """
    elements = F.elements()
    for pivots in itertools.combinations(range(n), k):
        others = [j for j in range(n) if j not in pivots]
        free = [(i, c, j) for i, c in enumerate(pivots)
                for j in others if j > c]
        rows = [[int(j == c) for j in range(n)] for c in pivots]
        digits = [0] * len(free)
        states = [[(0,) * len(col) if j in pivots else col
                   for j, col in enumerate(cols)]] * (len(free) + 1)
        while True:
            yield (Subspace(n, k, tuple(map(tuple, rows))),
                   _histogram(states[-1], weights) if cols else {})
            e = len(free) - 1
            while e >= 0 and digits[e] == len(elements) - 1:
                i, _, j = free[e]
                digits[e] = rows[i][j] = 0
                e -= 1
            if e < 0:
                break
            digits[e] += 1
            i, c, j = free[e]
            rows[i][j] = y = elements[digits[e]]
            if cols:
                state = states[e].copy()
                state[j] = _column_op(F, state[j], y, cols[c])
                states[e + 1:] = [state] * (len(free) - e)


def scan_directions(F, n: int, k: int,
                    items: Iterable[tuple[Sequence[int], int]],
                    budget: int
                    ) -> Iterator[tuple[Subspace, dict[Point, int]]]:
    """Each rank-k direction of F_q^n, in enumeration order, with the
    coset_histogram of the (point, weight) items: the one guarded walk.

    When called it refuses k outside [0, n], then charges the q^(n-k)
    binom(n,k)_q flats (binom(n,k)_q >= q^(k(n-k)) bounds their bits) and
    the k n basis entries, past the flats only at k = n.  The items become
    coordinate columns once; the walk (_walk) then reduces them with one
    column op per direction, from the columns of an earlier direction.  No
    items give no columns, so each direction comes with {} and no op.
    """
    if not 0 <= k <= n:
        raise FlabError(f"k = {k} outside [0, {n}]")
    charge(((k + 1) * (n - k) * (F.q.bit_length() - 1),
            lambda: q_flat_count(F.q, n, k)), "flats", budget)
    charge(k * n, "basis entries", budget)
    return _walk(F, n, k, *_columns(items))


class Flat(NamedTuple):
    """k-flat: translate of a rank-k subspace, canonical shift."""

    direction: Subspace
    shift: Point

    @classmethod
    def through(cls, F, direction: Subspace, point: Sequence[int]) -> "Flat":
        """The flat of the point's coset: its shift is the one key of the
        coset kernel's histogram of that point."""
        shift, = coset_histogram(F, [(point, 1)], direction)
        return cls(direction, shift)


def enumerate_subspaces(F, n: int, k: int) -> Iterator[Subspace]:
    """All rank-k subspaces, one per RREF basis, lexicographic on the pivot
    set, then on the free entries: the directions of scan_directions over no
    items, so when called it refuses k outside [0, n] and charges the walk
    against DEFAULT_BUDGET."""
    return (d for d, _ in scan_directions(F, n, k, (), DEFAULT_BUDGET))


def enumerate_flats(F, n: int, k: int,
                    budget: int = DEFAULT_BUDGET) -> Iterator[Flat]:
    """All k-flats: per subspace, its canonical shifts (zeros in the pivot
    columns) in lexicographic order of the free coordinates."""
    for sub, _ in scan_directions(F, n, k, (), budget):
        pivots = sub.pivots()
        for shift in itertools.product(*[(0,) if j in pivots else F.elements()
                                         for j in range(n)]):
            yield Flat(sub, shift)


def q_flat_count(q: int, n: int, k: int) -> int:
    return qbinomial(n, k, q) * q ** (n - k) if 0 <= k <= n else 0


def flat_points(F, flat: Flat, budget: int = DEFAULT_BUDGET) -> list[Point]:
    """The q^k points shift + c B of the flat (basis B), each at the index
    sum_j c_j q^(k-1-j) of c in all_points(F, k): F.elements() is range(q)."""
    k = flat.direction.k
    charge(F.q ** k, "flat points", budget)
    cols = [[x] * F.q ** k for x in flat.shift]
    for row, coeffs in zip(flat.direction.basis, zip(*all_points(F, k))):
        for j, y in enumerate(row):
            if y:
                cols[j] = _column_op(F, cols[j], F.sub(0, y), coeffs)
    return list(zip(*cols))


def all_points(F, n: int) -> list[Point]:
    """All points of F_q^n in lexicographic order."""
    return list(itertools.product(F.elements(), repeat=n))


class PointSet(NamedTuple):
    """Deduplicated point set with its ambient (field, dimension)."""

    field: object
    n: int
    points: frozenset[Point]

    @classmethod
    def of(cls, F, n: int, pts: Iterable[Sequence[int]]) -> "PointSet":
        frozen = frozenset(tuple(p) for p in pts)
        for p in frozen:
            if len(p) != n:
                raise FlabError(f"point {p} is not {n}-dimensional")
        return cls(field=F, n=n, points=frozen)

    def __len__(self) -> int:
        return len(self.points)

    def sorted(self) -> list[Point]:
        return sorted(self.points)
