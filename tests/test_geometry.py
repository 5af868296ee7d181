import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import pointwise_histogram
from flab import entropy, furstenberg, geometry, incidence, polymethod
from flab.errors import BudgetExceeded, FlabError
from flab.geometry import (Flat, PointSet, all_points, charge,
                           coset_histogram, enumerate_flats,
                           enumerate_subspaces, flat_points, q_flat_count,
                           qbinomial, rref, scan_directions, Subspace,
                           _slot_code)
from flab.gf import ExtensionField, PrimeField, field_build
from flab.incidence import FlatFamily, haemers_check
from flab.polymethod import Polynomial, monomials_upto
from reference import (evaluate, gauss_jordan, hasse_derivative,
                       reduce_mod_subspace, rref_bases, span,
                       subspace_contains)


def test_rref_identity(F2):
    m = [[1, 0], [0, 1]]
    red, rank = rref(F2, m)
    assert red == ((1, 0), (0, 1)) and rank == 2


def test_rref_equal_rows(F2):
    red, rank = rref(F2, [[1, 1], [1, 1]])
    assert red == ((1, 1),) and rank == 1


def test_rref_hand_example(F2):
    red, rank = rref(F2, [[0, 1, 1], [1, 1, 0]])
    assert red == ((1, 0, 1), (0, 1, 1)) and rank == 2


def test_rref_idempotent(F3):
    import random
    rng = random.Random(7)
    for _ in range(50):
        m = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        red, rank = rref(F3, m)
        red2, rank2 = rref(F3, red)
        assert red == red2 and rank == rank2


def test_qbinomial_values():
    assert qbinomial(5, 0, 7) == 1
    assert qbinomial(2, 1, 3) == 4
    assert qbinomial(4, 2, 2) == 35
    # no rank-k subspace outside [0, n]: 0, never a refusal
    assert qbinomial(3, 4, 2) == qbinomial(3, -1, 2) == 0
    assert qbinomial(0, 10 ** 9, 2) == qbinomial(2, -10 ** 9, 2) == 0
    assert q_flat_count(2, 3, 4) == q_flat_count(2, 3, -10 ** 9) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_qbinomial_identities(q):
    for n in range(1, 9):
        for k in range(n + 1):
            b = qbinomial(n, k, q)
            assert b == qbinomial(n, n - k, q)
            if 1 <= k <= n - 1:
                assert b == q ** k * qbinomial(n - 1, k, q) \
                    + qbinomial(n - 1, k - 1, q)
                assert b == qbinomial(n - 1, k, q) \
                    + q ** (n - k) * qbinomial(n - 1, k - 1, q)


def test_enumerate_subspaces_f2_lines(F2):
    subs = list(enumerate_subspaces(F2, 2, 1))
    assert [s.basis for s in subs] == [((1, 0),), ((1, 1),), ((0, 1),)]


def test_enumerate_edge_ranks(F3):
    assert [s.basis for s in enumerate_subspaces(F3, 3, 0)] == [()]
    full = list(enumerate_subspaces(F3, 3, 3))
    assert len(full) == 1 and full[0].basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_rank_n_direction_charges_its_basis_entries(F2):
    # one subspace, but its basis alone has n^2 entries
    with pytest.raises(BudgetExceeded,
                       match="^100 basis entries exceed budget 99$"):
        scan_directions(F2, 10, 10, (), 99)
    [(full, _)] = scan_directions(F2, 10, 10, (), 100)
    assert full.basis == tuple(tuple(int(i == j) for j in range(10))
                               for i in range(10))


@pytest.mark.parametrize("q,n,k", [(2, 3, 1), (2, 3, 2), (2, 4, 2),
                                   (3, 2, 1), (3, 3, 2), (5, 2, 1)])
def test_subspace_count_matches_qbinomial(q, n, k):
    F = field_build(q, 1) if q in (2, 3, 5) else field_build(2, 2)
    assert sum(1 for _ in enumerate_subspaces(F, n, k)) == qbinomial(n, k, q)


def test_flat_counts(F2, F3):
    assert sum(1 for _ in enumerate_flats(F2, 2, 1)) == 6
    assert sum(1 for _ in enumerate_flats(F3, 2, 1)) == 12
    assert sum(1 for _ in enumerate_flats(F2, 3, 3)) == 1


def test_flats_are_distinct_and_canonical(F2):
    flats = list(enumerate_flats(F2, 3, 1))
    assert len(set(flats)) == q_flat_count(2, 3, 1)
    for f in flats:
        for p in flat_points(F2, f):
            assert Flat.through(F2, f.direction, p) == f
    # subspace order, then each subspace's shifts in lexicographic order
    subs = list(enumerate_subspaces(F2, 3, 1))
    assert [f.direction for f in flats] == [s for s in subs for _ in range(4)]
    for i in range(0, len(flats), 4):
        shifts = [f.shift for f in flats[i:i + 4]]
        assert shifts == sorted(shifts)


def test_budget_exceeded(F2):
    with pytest.raises(BudgetExceeded):
        scan_directions(F2, 10, 5, (), 10)
    scan_directions(F2, 3, 1, (), 28)           # 7 lines x 4 shifts
    with pytest.raises(BudgetExceeded, match="28 flats exceed budget 27"):
        scan_directions(F2, 3, 1, (), 27)


def test_scan_directions_pairs_each_direction_with_its_histogram(F3):
    items = [(p, i + 1) for i, p in enumerate(all_points(F3, 3)[::5])]
    assert list(scan_directions(F3, 3, 2, items, 10 ** 4)) == [
        (d, coset_histogram(F3, items, d)) for d in enumerate_subspaces(F3, 3, 2)]


@pytest.mark.parametrize("p, e, n", [(2, 1, 5), (3, 1, 4), (2, 2, 3),
                                     (5, 1, 3), (3, 2, 2)])
def test_walk_matches_bases_built_whole(p, e, n):
    F = field_build(p, e)
    for k in range(n + 1):
        bases = rref_bases(F, n, k)
        assert list(enumerate_subspaces(F, n, k)) == bases
        assert [d for d, _ in scan_directions(F, n, k, (), 10 ** 6)] == bases


def test_abandoned_scan_leaves_no_state(F3):
    items = [(p, i % 7 - 3) for i, p in enumerate(all_points(F3, 4)[::3])]
    want = [(d, coset_histogram(F3, items, d)) for d in rref_bases(F3, 4, 2)]
    head = list(itertools.islice(scan_directions(F3, 4, 2, items, 10 ** 6), 5))
    assert head == want[:5]
    assert list(scan_directions(F3, 4, 2, items, 10 ** 6)) == want
    # two scans stepped in lockstep share nothing either
    twins = zip(scan_directions(F3, 4, 2, items, 10 ** 6),
                scan_directions(F3, 4, 2, items[::-1], 10 ** 6))
    assert [a for a, _ in twins] == want


def test_scan_makes_one_column_op_per_direction(F3, monkeypatch):
    # a full F_3^4 rank-2 scan: 130 directions over binom(4,2) = 6 pivot
    # sets, the first direction of each set unreduced; reducing every
    # direction row by row takes 296 ops
    ops = []
    column_op = geometry._column_op

    def counting(*args):
        ops.append(args)
        return column_op(*args)
    monkeypatch.setattr(geometry, "_column_op", counting)
    items = [(p, 1) for p in all_points(F3, 4)[::4]]
    scan = list(scan_directions(F3, 4, 2, items, 10 ** 6))
    assert len(scan) == qbinomial(4, 2, 3) == 130
    assert len(ops) == 130 - 6


def _spy_kernel(monkeypatch) -> list[str]:
    """The names of the column op and histogram calls made from now on."""
    calls = []
    for name in ("_column_op", "_histogram"):
        def spied(*args, name=name, fn=getattr(geometry, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(geometry, name, spied)
    return calls


@pytest.mark.parametrize("p, e, n, k", [(2, 1, 4, 2), (3, 1, 3, 1),
                                        (2, 2, 3, 2), (5, 1, 2, 0),
                                        (2, 1, 3, 3)])
def test_walk_over_no_points_makes_no_column_work(monkeypatch, p, e, n, k):
    F = field_build(p, e)
    calls = _spy_kernel(monkeypatch)
    scan = list(scan_directions(F, n, k, (), 10 ** 6))
    dirs = list(enumerate_subspaces(F, n, k))
    hists = [coset_histogram(F, [], d) for d in dirs]
    assert calls == []
    assert [d for d, _ in scan] == dirs
    # the walk's {} equals the empty Counter of the pointwise reference
    empty = [pointwise_histogram(F, [], d) for d in dirs]
    assert [h for _, h in scan] == hists == empty == [Counter()] * len(dirs)
    # count_incidences reads an empty coset's shift off coset_histogram
    assert all(type(h) is Counter and h[(0,) * n] == 0 for h in hists)
    # the spies see the work of a walk over one point
    list(scan_directions(F, n, k, [((1,) * n, 1)], 10 ** 6))
    assert "_histogram" in calls
    assert ("_column_op" in calls) == (0 < k < n)


@pytest.mark.parametrize("k", [-1, 4])
def test_enumerate_subspaces_refuses_k_out_of_range(F2, k):
    with pytest.raises(FlabError, match=rf"^k = {k} outside \[0, 3\]$"):
        enumerate_subspaces(F2, 3, k)


def test_enumerate_subspaces_is_charged_when_called(F2, monkeypatch):
    # 35 planes of F_2^4 with 4 shifts each: one short is refused by the
    # call itself, before a first direction is asked for
    flats = q_flat_count(2, 4, 2)
    monkeypatch.setattr(geometry, "DEFAULT_BUDGET", flats - 1)
    with pytest.raises(BudgetExceeded,
                       match=f"^{flats} flats exceed budget {flats - 1}$"):
        enumerate_subspaces(F2, 4, 2)
    monkeypatch.setattr(geometry, "DEFAULT_BUDGET", flats)
    assert sum(1 for _ in enumerate_subspaces(F2, 4, 2)) == 35


def _never():
    raise AssertionError("counted a count the bit length decides")


def test_charge_decides_huge_counts_by_bit_length():
    # 2^(10^9) is past the budget and past the digits an int may print
    with pytest.raises(BudgetExceeded,
                       match=r"^2\^1000000000 or more flats exceed budget 10$"):
        charge((10 ** 9, _never), "flats", 10)
    with pytest.raises(BudgetExceeded,
                       match=r"^2\^20000 or more points exceed budget 10$"):
        charge(2 ** 20000 + 1, "points", 10)
    charge((3, lambda: 9), "flats", 9)          # a floor below the cap counts
    charge(2 ** 20000, "points", 2 ** 20000)


def test_span_single_point(F3):
    f = span(F3, [(2, 1)])
    assert f.direction.k == 0 and f.shift == (2, 1)


def test_span_line(F2):
    f = span(F2, [(0, 0), (1, 0)])
    assert f.direction.basis == ((1, 0),) and f.shift == (0, 0)


def test_span_plane(F2):
    f = span(F2, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert f.direction.basis == ((1, 0, 0), (0, 1, 0))
    assert f.shift == (0, 0, 0)


def test_span_empty(F2):
    with pytest.raises(FlabError, match="^span of the empty set$"):
        span(F2, [])


def test_flat_points_line_f3(F3):
    f = span(F3, [(0, 0), (1, 1)])
    assert sorted(flat_points(F3, f)) == [(0, 0), (1, 1), (2, 2)]


def test_flat_points_cardinality(F3):
    for f in enumerate_flats(F3, 2, 1):
        pts = flat_points(F3, f)
        assert len(set(pts)) == 3
        assert span(F3, pts) == f


@pytest.mark.parametrize("p, e, n, k", [(2, 1, 4, 2), (3, 1, 3, 2),
                                        (5, 1, 3, 1), (2, 2, 3, 2),
                                        (3, 2, 2, 1), (2, 3, 3, 2),
                                        (3, 1, 3, 0), (3, 1, 3, 3),
                                        pytest.param(2, (2, 2), 3, 2,
                                                     id="tower-4^2-3-2")])
def test_flat_points_match_pointwise_sums(p, e, n, k):
    # the point of coefficients c is shift + sum c_i B_i, summed one point
    # at a time with F.add and F.mul, in all_points(F, k) order
    F = (field_build(p, e) if isinstance(e, int)
         else ExtensionField(field_build(p, e[0]), e[1]))
    rng = random.Random(f"{p} {e} {n} {k}")
    pts = all_points(F, n)
    dirs = list(enumerate_subspaces(F, n, k))
    for d in rng.sample(dirs, min(3, len(dirs))):
        f = Flat.through(F, d, rng.choice(pts))
        want = []
        for coeffs in all_points(F, k):
            x = f.shift
            for c, row in zip(coeffs, d.basis):
                x = tuple(F.add(a, F.mul(c, b)) for a, b in zip(x, row))
            want.append(x)
        assert flat_points(F, f) == want


def test_dim_span_formula_exhaustive_f2_cubed(F2):
    # dim(A + B) = dim A + dim B - dim(A n B), with A n B counted point by
    # point: 2^dim(A+B) |A n B| = 2^(dim A + dim B)
    subs = [s for k in range(4) for s in enumerate_subspaces(F2, 3, k)]
    pts = all_points(F2, 3)
    for a in subs:
        for b in subs:
            joined = Subspace.from_vectors(F2, 3, a.basis + b.basis)
            common = sum(1 for p in pts if subspace_contains(F2, a, p)
                         and subspace_contains(F2, b, p))
            assert 2 ** joined.k * common == 2 ** (a.k + b.k)


def test_reduce_mod_subspace_canonicity(F2):
    for sub in enumerate_subspaces(F2, 3, 2):
        for p in all_points(F2, 3):
            r = reduce_mod_subspace(F2, p, sub)
            for piv in sub.pivots():
                assert r[piv] == 0
            # representative is stable
            assert reduce_mod_subspace(F2, r, sub) == r


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6),
       st.sampled_from([2, 3, 4, 5, 7]))
@settings(max_examples=100)
def test_qbinomial_symmetry_property(n, k, q):
    if k > n:
        return
    assert qbinomial(n, k, q) == qbinomial(n, n - k, q)


# -- coset kernel -----------------------------------------------------------

# small prime fields and tabled extension fields
KERNEL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]


@st.composite
def coset_cases(draw):
    F = field_build(*draw(st.sampled_from(KERNEL_FIELDS)))
    n = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=0, max_value=n))
    direction = draw(st.sampled_from(list(enumerate_subspaces(F, n, k))))
    coord = st.integers(min_value=0, max_value=F.q - 1)
    pts = draw(st.lists(st.tuples(*[coord] * n), unique=True, max_size=12))
    weights = draw(st.lists(st.integers(min_value=-50, max_value=50),
                            min_size=len(pts), max_size=len(pts)))
    return F, direction, pts, weights


def _weightings(pts, weights):
    """Unit, signed and bitmask (1 << i) items of the points."""
    return [[(p, 1) for p in pts], list(zip(pts, weights)),
            [(p, 1 << i) for i, p in enumerate(pts)]]


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@given(coset_cases())
@example((field_build(3, 2), Subspace(2, 0, ()), [(4, 1), (0, 8)],
          [3, -3]))                                            # k = 0, F_9
@example((field_build(2, 3), Subspace(2, 2, _identity(2)), [(7, 1), (2, 5)],
          [0, 4]))                                             # k = n, F_8
@example((field_build(2, 2), Subspace(2, 1, ((1, 3),)), [], []))  # no items
@example((ExtensionField(field_build(2, 2), 2), Subspace(3, 1, ((1, 7, 1),)),
          [(3, 9, 14), (0, 5, 2), (15, 15, 0)], [2, -1, 5]))   # tower F_4^2
@settings(max_examples=150, deadline=None)
def test_coset_histogram_matches_pointwise_reduction(case):
    F, d, pts, weights = case
    # lists of items, so the key order is checked too
    for items in _weightings(pts, weights):
        assert list(coset_histogram(F, iter(items), d).items()) == list(
            pointwise_histogram(F, items, d).items())
    for p in pts:
        assert Flat.through(F, d, p).shift == reduce_mod_subspace(F, p, d)


@pytest.mark.parametrize("p, e, n, k", [(2, 1, 4, 2), (3, 1, 3, 1),
                                        (5, 1, 2, 1), (2, 2, 3, 2),
                                        (3, 2, 2, 1), (2, 3, 2, 2),
                                        (3, 1, 3, 0), (3, 1, 4, 2),
                                        (2, 2, 3, 1), (5, 1, 3, 2),
                                        (2, 1, 5, 2), (3, 2, 3, 2),
                                        (2, 4, 2, 1), (2, 4, 3, 2),
                                        pytest.param(2, (2, 2), 3, 1,
                                                     id="tower-4^2-3-1")])
def test_scan_directions_matches_pointwise_reduction(p, e, n, k):
    # e = (e1, d) is the degree-d tower over F_(p^e1)
    F = (field_build(p, e) if isinstance(e, int)
         else ExtensionField(field_build(p, e[0]), e[1]))
    rng = random.Random(f"{p} {e} {n} {k}")
    pts = rng.sample(all_points(F, n), min(12, F.q ** n))
    weights = [rng.randint(-9, 9) for _ in pts]
    dirs = list(enumerate_subspaces(F, n, k))
    for items in _weightings(pts, weights):
        scan = list(scan_directions(F, n, k, items, 10 ** 6))
        assert [d for d, _ in scan] == dirs
        for d, hist in scan:
            assert list(hist.items()) == list(
                pointwise_histogram(F, items, d).items())


# the prime fields draw every slot width of the packed path, which grows
# with min(rows, cols): F_2 8 bits; F_251 16 bits at 1 and 32 from 2;
# F_65521 32 bits at 1 and 64 from 2
RREF_FIELDS = [field_build(2, 1), field_build(5, 1), field_build(7, 1),
               field_build(251, 1), field_build(65521, 1), field_build(2, 2),
               field_build(3, 2)]


@st.composite
def rref_cases(draw):
    """Matrices whose rows are zero, copies of a few base rows, or
    combinations of two of them, so duplicate rows and rank deficiency
    are common."""
    F = draw(st.sampled_from(RREF_FIELDS))
    ncols = draw(st.integers(min_value=1, max_value=30))
    el = st.integers(min_value=0, max_value=F.q - 1)
    base = draw(st.lists(st.lists(el, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        kind = draw(st.sampled_from(["zero", "copy", "combo", "random"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(base))))
        elif kind == "combo":
            u, v = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            a, b = draw(el), draw(el)
            rows.append([F.add(F.mul(a, x), F.mul(b, y))
                         for x, y in zip(u, v)])
        else:
            rows.append(draw(st.lists(el, min_size=ncols, max_size=ncols)))
    return F, rows


@given(rref_cases())
@example((field_build(65521, 1), [[65520, 0, 65520, 1]]))
@example((field_build(65521, 1), [[0], [65520], [3]]))
@settings(max_examples=300, deadline=None)
def test_rref_matches_reference_gauss_jordan(case):
    F, rows = case
    assert rref(F, rows) == gauss_jordan(F, rows)


def test_rref_interpolation_system_matches_reference():
    """The Hasse-derivative system of an interpolation at 40 random points
    of F_13^2 with multiplicity 2 and degree 15: 120 rows, 136 columns, so
    each row takes up to 120 unreduced updates in 16-bit slots."""
    F = field_build(13, 1)
    rng = random.Random(13)
    points = sorted(rng.sample(all_points(F, 2), 40))
    monos = monomials_upto(2, 15)
    derivs = {i: [hasse_derivative(Polynomial.make(F, 2, {a: 1}), i)
                  for a in monos]
              for i in [(0, 0), (0, 1), (1, 0)]}
    rows = [[evaluate(D, x) for D in ds] for x in points
            for ds in derivs.values()]
    reduced, rank = rref(F, rows)
    assert (reduced, rank) == gauss_jordan(F, rows)
    assert rank == len(rows)


def test_slot_widths():
    assert [_slot_code(2, k) for k in (1, 254, 255)] == ["B", "B", "H"]
    assert [_slot_code(251, k) for k in (1, 2)] == ["H", "I"]
    assert [_slot_code(65521, k) for k in (1, 2, 1 << 32)] == ["I", "Q", "Q"]
    assert _slot_code(65521, 1 << 33) is None


def test_rref_falls_back_when_no_slot_fits():
    """A prime too large for any slot width takes the per-entry loop: a
    field object outside field_build's size limit, with p = 2^61 - 1."""
    F = PrimeField.__new__(PrimeField)
    F.p = F.q = (1 << 61) - 1
    F.e = 1
    rng = random.Random(61)
    rows = [[rng.randrange(F.p) for _ in range(6)] for _ in range(5)]
    rows.append([F.add(x, y) for x, y in zip(rows[0], rows[1])])
    assert rref(F, rows) == gauss_jordan(F, rows)
    assert rref(F, rows)[1] == 5


# -- records ------------------------------------------------------------------

RECORDS = sorted((obj for mod in (geometry, furstenberg, entropy, incidence,
                                  polymethod)
                  for obj in vars(mod).values()
                  if isinstance(obj, type) and issubclass(obj, tuple)
                  and obj.__module__ == mod.__name__),
                 key=lambda cls: cls.__name__)


def test_records_are_the_twenty_named_tuples():
    public = [cls.__name__ for cls in RECORDS
              if not cls.__name__.startswith("_")]
    assert len(public) == 20 and all(hasattr(cls, "_fields")
                                     for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_records_are_immutable(cls):
    # unchecked, and PointSet and FlatFamily redefine the len that _make checks
    record = tuple.__new__(cls, range(len(cls._fields)))
    for name in (*cls._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_point_set_and_flat_family_size_counts_their_members(F2):
    lines = list(enumerate_flats(F2, 2, 1))
    S, L = PointSet.of(F2, 2, [(0, 0), (1, 1)]), FlatFamily.of(F2, 2, lines)
    assert (len(S), bool(S), len(L), bool(L)) == (2, True, 6, True)
    # the bare header of an empty file is not powered: both sizes are 0
    S, L = PointSet.of(F2, 10 ** 9, []), FlatFamily.of(F2, 10 ** 9, [])
    assert (len(S), bool(S), len(L), bool(L)) == (0, False, 0, False)
    assert haemers_check(S, L).rhs == 0


def test_polynomial_keeps_its_own_equality_and_hash(F3):
    P = Polynomial.make(F3, 2, {(1, 0): 1, (0, 2): 2})
    Q = Polynomial.make(F3, 2, {(0, 2): 2, (1, 0): 1, (1, 1): 0})
    assert P == Q and not P != Q and hash(P) == hash(Q) and len({P, Q}) == 1
    assert P != Polynomial.make(F3, 2, {(1, 0): 1})
    # a plain tuple of the same fields is not a polynomial
    assert not P == tuple(P) and P != tuple(P)
