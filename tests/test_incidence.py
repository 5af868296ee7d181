import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from flab import geometry, incidence
from flab.errors import BudgetExceeded, FlabError
from flab.geometry import (Flat, PointSet, Subspace, all_points,
                           enumerate_flats, enumerate_subspaces, flat_points,
                           q_flat_count, qbinomial)
from flab.gf import field_build
from flab.incidence import (FlatFamily, count_incidences, haemers_check,
                            contained_subflats, heavy_flats_lower_bound,
                            kakeya_becks_census, poor_flat_census)
from reference import flat_contains, span


def all_lines(F, n):
    return list(enumerate_flats(F, n, 1))


def test_count_incidences_full_plane(F2):
    S = PointSet.of(F2, 2, all_points(F2, 2))
    L = FlatFamily.of(F2, 2, all_lines(F2, 2))
    assert len(L) == 6
    assert count_incidences(S, L) == 12     # 6 lines x 2 points each


def test_count_incidences_single_line(F3):
    line = span(F3, [(0, 0), (1, 1)])
    S = PointSet.of(F3, 2, [(0, 0), (1, 1), (2, 2), (1, 0)])
    L = FlatFamily.of(F3, 2, [line])
    assert count_incidences(S, L) == 3


def test_flat_family_validation(F2):
    line = span(F2, [(0, 0), (1, 0)])
    plane = span(F2, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(FlabError, match=r"^mixed flat ranks \[1, 2\]$"):
        FlatFamily.of(F2, 3, [plane,
                              span(F2, [(0, 0, 0), (1, 0, 0)])])
    with pytest.raises(FlabError, match="^ambient dimension mismatch$"):
        FlatFamily.of(F2, 3, [line])
    # duplicates collapse
    fam = FlatFamily.of(F2, 2, [line, line])
    assert len(fam) == 1


def test_count_incidences_ambient_mismatch(F2, F3):
    S = PointSet.of(F3, 2, [(0, 0)])
    L = FlatFamily.of(F2, 2, all_lines(F2, 2))
    with pytest.raises(FlabError,
                       match="^point set and flats in different ambients$"):
        count_incidences(S, L)


# -- first-moment incidence bound -------------------------------------------


def test_haemers_full_plane_tight_first_term(F2):
    S = PointSet.of(F2, 2, all_points(F2, 2))
    L = FlatFamily.of(F2, 2, all_lines(F2, 2))
    r = haemers_check(S, L)
    assert r.incidences == 12
    # first term |S||L| q^{k-n} = 4*6/2 = 12 is already met exactly
    assert r.ok and r.rhs >= 12
    # radicand q^k binom(1,1)_q |S||L| = 48, rounded up to sqrt(49) = 7
    assert r.radicand == 48 and r.rhs == 12 + 7


def test_haemers_exhaustive_f2_plane(F2):
    pts = all_points(F2, 2)
    lines = all_lines(F2, 2)
    cases = 0
    for spts in itertools.chain.from_iterable(
            itertools.combinations(pts, r) for r in range(1, 5)):
        S = PointSet.of(F2, 2, spts)
        for lr in range(1, 7):
            for lsub in itertools.combinations(lines, lr):
                r = haemers_check(S, FlatFamily.of(F2, 2, lsub))
                assert r.ok
                cases += 1
    assert cases == 15 * 63


def test_haemers_random_f3_plane(F3):
    rng = random.Random(42)
    pts = all_points(F3, 2)
    lines = all_lines(F3, 2)
    for _ in range(200):
        S = PointSet.of(F3, 2,
                        rng.sample(pts, rng.randint(1, len(pts))))
        L = FlatFamily.of(F3, 2,
                          rng.sample(lines, rng.randint(1, len(lines))))
        assert haemers_check(S, L).ok


def test_haemers_random_f2_cube_planes(F2):
    rng = random.Random(7)
    pts = all_points(F2, 3)
    planes = list(enumerate_flats(F2, 3, 2))
    for _ in range(100):
        S = PointSet.of(F2, 3, rng.sample(pts, rng.randint(1, len(pts))))
        L = FlatFamily.of(F2, 3,
                          rng.sample(planes, rng.randint(1, len(planes))))
        assert haemers_check(S, L).ok


# -- poor-flat census --------------------------------------------------------


def test_poor_flat_census_full_space(F3):
    S = PointSet.of(F3, 2, all_points(F3, 2))
    r = poor_flat_census(S, 1, Fraction(1, 2))
    # every line holds 3 >= threshold 5/2 points, so no line is poor
    assert r.incidences == 0 and r.ok
    assert r.extra["threshold"] == Fraction(5, 2)


def test_poor_flat_census_exhaustive_f2_plane(F2):
    # the census counts against the "fewer than delta m q^{l-k} + 1"
    # threshold; its count must agree with a direct recount, and the same
    # bound with the un-shifted threshold delta m q^{l-k} always holds
    pts = all_points(F2, 2)
    lines = all_lines(F2, 2)
    for r in range(1, 5):
        for spts in itertools.combinations(pts, r):
            S = PointSet.of(F2, 2, spts)
            for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                rep = poor_flat_census(S, 1, delta)
                counts = [sum(1 for p in spts if flat_contains(F2, f, p))
                          for f in lines]
                mu = Fraction(len(spts), 2)
                assert rep.incidences == sum(
                    1 for c in counts if c < delta * mu + 1)
                assert rep.ok == (rep.incidences <= rep.rhs)
                unshifted = sum(1 for c in counts if c < delta * mu)
                assert unshifted <= rep.rhs


def test_poor_flat_census_plus_one_threshold_counterexamples(F2):
    # the shifted threshold admits flats holding exactly one point, and the
    # census then exceeds the stated bound; the report says so honestly
    single = poor_flat_census(PointSet.of(F2, 2, [(0, 0)]),
                              1, Fraction(1, 2))
    assert single.incidences == 6
    assert single.rhs == Fraction(16, 3)
    assert not single.ok
    S = PointSet.of(F2, 3, [(1, 0, 1), (1, 1, 0), (1, 0, 0),
                            (0, 0, 1), (1, 1, 1)])
    r = poor_flat_census(S, 1, Fraction(1, 4))
    assert r.incidences == 18
    assert r.rhs == Fraction(1792, 109)
    assert not r.ok


def test_poor_flat_census_validation(F3):
    S = PointSet.of(F3, 2, [(0, 0)])
    with pytest.raises(FlabError, match=r"^l = 2 outside \[1, 1\]$"):
        poor_flat_census(S, 2, Fraction(1, 2))
    with pytest.raises(FlabError, match=r"^delta = 3/2 outside \(0,1\)$"):
        poor_flat_census(S, 1, Fraction(3, 2))


# -- contained sub-flats -----------------------------------------------------


def _direction_family(F, n, k, pick):
    """One flat per rank-k direction; pick(i, cosets) chooses the shift."""
    flats = []
    for i, d in enumerate(enumerate_subspaces(F, n, k)):
        shifts = sorted({f.shift for f in enumerate_flats(F, n, k)
                         if f.direction == d})
        flats.append(Flat(d, pick(i, shifts)))
    return FlatFamily.of(F, n, flats)


def test_contained_subflats_through_origin(F2):
    fam = _direction_family(F2, 3, 2, lambda i, s: s[0])
    r = contained_subflats(fam, 1)
    assert r.extra["k_factor"] == 3
    assert r.rhs == 21                     # 3 * binom(3,1)_2
    assert r.incidences >= 21 and r.ok


def test_contained_subflats_all_128_families(F2):
    subs = list(enumerate_subspaces(F2, 3, 2))
    assert len(subs) == 7
    cosets = [sorted({f.shift for f in enumerate_flats(F2, 3, 2)
                      if f.direction == d}) for d in subs]
    assert all(len(c) == 2 for c in cosets)
    for mask in range(128):
        flats = [Flat(d, c[(mask >> i) & 1])
                 for i, (d, c) in enumerate(zip(subs, cosets))]
        r = contained_subflats(FlatFamily.of(F2, 3, flats), 1)
        assert r.ok and r.rhs == 21


def test_contained_subflats_of_the_whole_space(F2, F3):
    # a family of n-flats is the whole space, which holds every l-flat;
    # its K factor is q^(n-l), with no sub-instance searched
    for F, n, l in [(F2, 2, 1), (F3, 2, 1), (F2, 3, 1), (F2, 3, 2)]:
        r = contained_subflats(FlatFamily.of(F, n, enumerate_flats(F, n, n)),
                               l)
        assert r.extra["k_factor"] == F.q ** (n - l)
        assert r.incidences == r.rhs == F.q ** (n - l) * qbinomial(n, l, F.q)


def test_contained_subflats_requires_direction_family(F2):
    planes = list(enumerate_flats(F2, 3, 2))
    with pytest.raises(FlabError,
                       match="^need exactly one flat per rank-2 direction$"):
        contained_subflats(FlatFamily.of(F2, 3, planes[:3]), 1)
    fam = _direction_family(F2, 3, 2, lambda i, s: s[0])
    with pytest.raises(FlabError, match=r"^l = 2 outside \(0, 2\)$"):
        contained_subflats(fam, 2)


# -- rich-flat census --------------------------------------------------------


def test_becks_census_full_cube(F2):
    S = PointSet.of(F2, 3, all_points(F2, 3))
    r = kakeya_becks_census(S, 2, Fraction(1, 2))
    assert r.extra["m"] == 4
    assert r.extra["threshold"] == 2
    assert r.incidences == 28              # every line holds 2 points
    assert r.rhs == Fraction(28, 8)
    assert r.ok
    # largeness hypothesis needs m >= 2^4 * 2 / (1/2)^2 = 128
    assert not r.extra["hypothesis_met"]


def test_becks_census_delta_validation(F2):
    S = PointSet.of(F2, 3, [(0, 0, 0)])
    with pytest.raises(FlabError, match=r"^delta = 0 outside \(0,1\)$"):
        kakeya_becks_census(S, 2, Fraction(0))


# -- heavy-flats covering bound ----------------------------------------------


def test_heavy_flats_delta_one_exact(F3):
    b = heavy_flats_lower_bound(Fraction(1), Fraction(1), 1, 2, 3)
    assert b.radicand == 0
    # kappa = 3: bound is exactly (3/4) q^n with no sqrt loss
    assert b.lower_value == b.rational_part == Fraction(3, 4) * 9


def test_heavy_flats_lower_value_is_conservative(F3):
    # the subtracted root is at least sqrt(radicand) q^n, so lower_value is
    # at most the exact bound
    b = heavy_flats_lower_bound(Fraction(1, 2), Fraction(1, 3), 1, 3, 3)
    assert ((b.rational_part - b.lower_value) / 3 ** 3) ** 2 >= b.radicand


def test_heavy_flats_validation():
    with pytest.raises(FlabError, match="^delta and gamma must be positive$"):
        heavy_flats_lower_bound(Fraction(0), Fraction(1), 1, 2, 3)
    with pytest.raises(FlabError, match="^delta and gamma must be positive$"):
        heavy_flats_lower_bound(Fraction(1, 2), Fraction(0), 1, 2, 3)
    with pytest.raises(FlabError,
                       match="^delta > 1 makes the radicand negative$"):
        heavy_flats_lower_bound(Fraction(3, 2), Fraction(1), 1, 2, 3)


# -- coset-kernel censuses against point-set oracles -------------------------

FIELDS = [field_build(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1))]


@st.composite
def point_sets(draw, min_n=1):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_n, 3))
    pts = draw(st.lists(st.sampled_from(all_points(F, n)), max_size=20,
                        unique=True))
    return PointSet.of(F, n, pts)


def _counts(S, rank):
    """Points of S on every rank-`rank` flat, by intersecting point sets."""
    return [len(S.points.intersection(flat_points(S.field, f)))
            for f in enumerate_flats(S.field, S.n, rank)]


@given(point_sets(), st.data())
@settings(max_examples=40, deadline=None)
def test_count_incidences_matches_point_sets(S, data):
    F, n = S.field, S.n
    rank = data.draw(st.integers(0, n))
    flats = data.draw(st.lists(st.sampled_from(list(
        enumerate_flats(F, n, rank))), min_size=1, max_size=15))
    L = FlatFamily.of(F, n, flats)
    assert count_incidences(S, L) == sum(
        len(S.points.intersection(flat_points(F, f))) for f in L.flats)


@given(point_sets(min_n=2), st.data())
@settings(max_examples=40, deadline=None)
def test_poor_census_matches_point_sets(S, data):
    l = data.draw(st.integers(1, S.n - 1))
    delta = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2),
                                       Fraction(3, 4)]))
    rep = poor_flat_census(S, l, delta)
    assert rep.incidences == sum(1 for c in _counts(S, l)
                                 if c < rep.extra["threshold"])


@given(point_sets(min_n=2), st.data())
@settings(max_examples=40, deadline=None)
def test_rich_census_matches_point_sets(S, data):
    k = data.draw(st.integers(1, S.n))
    rep = kakeya_becks_census(S, k, Fraction(1, 2))
    assert rep.incidences == sum(1 for c in _counts(S, k - 1)
                                 if c >= rep.extra["threshold"])


@st.composite
def direction_families(draw):
    """(F, n, k, l, seed): one k-flat per rank-k direction of F_q^n, each
    through a point drawn from Random(seed), or through the origin when
    seed is None; 2 <= k < n, as the K factor's instance needs k - l < n - l,
    and 1 <= l < k."""
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(3, 4 if F.q == 2 else 3))
    k = draw(st.integers(2, n - 1))
    return F, n, k, draw(st.integers(1, k - 1)), draw(st.integers(0, 2 ** 16))


# every plane of F_2^4 through the origin, where each line through it lies in
# seven family planes; a family over F_4; a family over F_9
@given(direction_families())
@example((FIELDS[0], 4, 2, 1, None))
@example((FIELDS[2], 3, 2, 1, 1))
@example((field_build(3, 2), 3, 2, 1, 1))
@settings(max_examples=25, deadline=None)
def test_contained_subflats_matches_point_sets(case):
    # shifts come from one drawn seed, so a failure shrinks in few steps
    F, n, k, l, seed = case
    rng = random.Random(seed)
    pts = all_points(F, n) if seed is not None else [(0,) * n]
    fam = FlatFamily.of(F, n, [Flat.through(F, d, rng.choice(pts))
                               for d in enumerate_subspaces(F, n, k)])
    holders: dict = {}      # point -> the family flats through it
    for i, f in enumerate(fam.flats):
        for p in flat_points(F, f):
            holders.setdefault(p, set()).add(i)
    expected = sum(1 for g in enumerate_flats(F, n, l)
                   if set.intersection(*(holders.get(p, set())
                                         for p in flat_points(F, g))))
    assert contained_subflats(fam, l).incidences == expected


def _no_scan(*args):
    raise AssertionError("scanned before the budget check")


def _spy_walk(monkeypatch, step):
    """Calls step(direction) on each direction the direction walk steps to,
    before it is handed on: with _no_scan, the first direction fails."""
    walk = geometry._walk

    def spied(*args):
        for d, hist in walk(*args):
            step(d)
            yield d, hist
    monkeypatch.setattr(geometry, "_walk", spied)


@pytest.mark.parametrize("n, k", [(15000, 0), (240, 120)])
def test_haemers_refuses_huge_terms_before_any_power(F2, monkeypatch, n, k):
    # q^(n-k) = 2^15000, and q^k binom(n-1,k)_q >= 2^14400, are past
    # CAP_BITS bits: refused on bit length, before any power or qbinomial
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(k))
    L = FlatFamily.of(F2, n, [Flat(Subspace(n, k, basis), (0,) * n)])
    monkeypatch.setattr(incidence, "qbinomial", _no_scan)
    with pytest.raises(FlabError, match="more than 4300 digits"):
        haemers_check(PointSet.of(F2, n, [(0,) * n]), L)


def test_censuses_check_budget_before_scanning(F3, monkeypatch):
    S = PointSet.of(F3, 3, all_points(F3, 3))
    lines = q_flat_count(3, 3, 1)                       # 117
    pairs = 13 * q_flat_count(3, 2, 1)      # 13 planes x 12 lines of F_3^2
    fam = _direction_family(F3, 3, 2, lambda i, s: s[0])
    _spy_walk(monkeypatch, _no_scan)
    monkeypatch.setattr(incidence, "flat_points", _no_scan)
    with pytest.raises(BudgetExceeded, match=f"{lines} flats exceed"):
        poor_flat_census(S, 1, Fraction(1, 2), budget=lines - 1)
    with pytest.raises(BudgetExceeded,
                       match=f"^{pairs} subflat pairs exceed budget 155$"):
        contained_subflats(fam, 1, budget=pairs - 1)


# (p, e, n, k, l): a family of each field whose K factor's search fits in
# the pair count, and a whole space (k = n), which takes no search
SUBFLAT_BUDGETS = [(2, 1, 3, 2, 1), (2, 1, 4, 3, 1), (2, 1, 4, 3, 2),
                   (3, 1, 3, 2, 1), (5, 1, 3, 2, 1), (2, 1, 3, 3, 1),
                   (2, 2, 3, 3, 2)]


def _seeded_family(p, e, n, k):
    rng = random.Random(24)
    return _direction_family(field_build(p, e), n, k,
                             lambda i, s: rng.choice(s))


@pytest.mark.parametrize("p, e, n, k, l", SUBFLAT_BUDGETS)
def test_subflats_charge_is_the_pair_count(monkeypatch, p, e, n, k, l):
    # |family| binom(k,l)_q q^(k-l) (l-flat, family flat) pairs: one short
    # is refused before any walk or flat point, and the count itself runs
    fam = _seeded_family(p, e, n, k)
    pairs = len(fam) * q_flat_count(p ** e, k, l)
    want = contained_subflats(fam, l)
    assert contained_subflats(fam, l, budget=pairs) == want
    _spy_walk(monkeypatch, _no_scan)
    monkeypatch.setattr(incidence, "flat_points", _no_scan)
    with pytest.raises(BudgetExceeded, match=(
            f"^{pairs} subflat pairs exceed budget {pairs - 1}$")):
        contained_subflats(fam, l, budget=pairs - 1)


def test_subflats_refuses_huge_pair_counts_on_bit_length(F2):
    # the whole of F_2^240 with l = 120: binom(240,120)_2 2^120 pairs, at
    # least 2^(121 * 120) = 2^14520, past CAP_BITS, so refused as a power
    n = 240
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    fam = FlatFamily.of(F2, n, [Flat(Subspace(n, n, basis), (0,) * n)])
    with pytest.raises(BudgetExceeded, match=(
            r"^2\^14520 or more subflat pairs exceed budget 10000000$")):
        contained_subflats(fam, 120)


@pytest.mark.parametrize("p, e, n, k, l", SUBFLAT_BUDGETS)
def test_subflats_store_one_image_per_charged_pair(monkeypatch, p, e, n, k,
                                                   l):
    # the images handed to the coset histograms are the work the charge
    # counts: one per (l-flat of F_q^k, family flat) pair
    fam = _seeded_family(p, e, n, k)
    stored = []
    histogram = incidence.coset_histogram

    def spied(F, items, direction):
        items = list(items)
        stored.append(len(items))
        return histogram(F, items, direction)
    monkeypatch.setattr(incidence, "coset_histogram", spied)
    contained_subflats(fam, l)
    assert sum(stored) == len(fam) * q_flat_count(p ** e, k, l)


def test_becks_checks_rich_budget_before_scanning(F3, monkeypatch):
    # the m-loop over the 13 planes fits a budget of 116 and runs; the
    # rich census over the 117 lines must stop before its first scan
    S = PointSet.of(F3, 3, all_points(F3, 3))
    calls = []
    _spy_walk(monkeypatch, calls.append)
    with pytest.raises(BudgetExceeded, match="117 flats exceed budget 116"):
        kakeya_becks_census(S, 2, Fraction(1, 2), budget=116)
    assert len(calls) == qbinomial(3, 2, 3)
    assert all(d.k == 2 for d in calls)


def test_becks_charges_its_direction_scan_as_flats(F3, monkeypatch):
    # the m-loop is a full verification scan over the 39 planes of F_3^3
    S = PointSet.of(F3, 3, all_points(F3, 3))
    planes = q_flat_count(3, 3, 2)
    _spy_walk(monkeypatch, _no_scan)
    with pytest.raises(BudgetExceeded,
                       match=f"{planes} flats exceed budget {planes - 1}"):
        kakeya_becks_census(S, 2, Fraction(1, 2), budget=planes - 1)


@pytest.mark.parametrize("k", [0, 4])
def test_becks_checks_k_range_first(F2, monkeypatch, k):
    S = PointSet.of(F2, 3, all_points(F2, 3))
    _spy_walk(monkeypatch, _no_scan)
    with pytest.raises(FlabError, match=rf"k = {k} outside \[1, 3\]"):
        kakeya_becks_census(S, k, Fraction(0), budget=0)
