import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from flab.entropy import (EntropyValue, QExponent, RationalDistribution,
                          ab_constants, best_projection, check_entropic_bound,
                          check_recursion, min_entropy, norm_bound_check,
                          pushforward)
from flab.errors import FlabError
from flab.geometry import (Flat, Subspace, all_points, enumerate_subspaces,
                           flat_points)
from flab.gf import field_build


def uniform(F, n, pts):
    return RationalDistribution.uniform_on(F, n, pts)


def test_min_entropy_uniform_on_power(F2):
    d = uniform(F2, 3, all_points(F2, 3)[:4])   # support size q^2
    ev = min_entropy(d)
    assert ev.equals_log(2, 2)


def test_min_entropy_point_mass(F3):
    ev = min_entropy(uniform(F3, 2, [(1, 2)]))
    assert ev.equals_log(3, 0)


def test_min_entropy_full_uniform(F3):
    ev = min_entropy(uniform(F3, 2, all_points(F3, 2)))
    assert ev.equals_log(3, 2)


def test_pushforward_uniform_stays_uniform(F3):
    d = uniform(F3, 2, all_points(F3, 2))
    kernel = next(iter(enumerate_subspaces(F3, 2, 1)))
    pushed = pushforward(d, kernel)
    assert set(pushed.weights.values()) == {3}
    assert pushed.total == d.total


def test_pushforward_kernel_aligned_mass(F2):
    kernel = Subspace.from_vectors(F2, 2, [(1, 1)])
    d = uniform(F2, 2, [(0, 0), (1, 1)])
    pushed = pushforward(d, kernel)
    assert min_entropy(pushed).equals_log(2, 0)


def test_pushforward_fiber_sums(F2):
    kernel = Subspace.from_vectors(F2, 2, [(1, 1)])
    d = uniform(F2, 2, [(0, 0), (1, 0), (0, 1)])
    pushed = pushforward(d, kernel)
    assert sorted(pushed.weights.values()) == [1, 2]


def test_best_projection_uniform(F2):
    d = uniform(F2, 3, all_points(F2, 3))
    for k in (1, 2):
        _, ev = best_projection(d, k)
        assert ev.equals_log(2, 3 - k)


def test_best_projection_three_point_set(F2):
    d = uniform(F2, 2, [(0, 0), (1, 0), (0, 1)])
    wit, ev = best_projection(d, 1)
    assert ev.max_weight == 2 and ev.total == 3


def test_best_projection_product_distribution(F2):
    # uniform on axis 0 x point mass on axis 1
    d = uniform(F2, 2, [(0, 0), (1, 0)])
    wit, ev = best_projection(d, 1)
    assert ev.equals_log(2, 1)
    # the point-mass coordinate axis attains the optimum (ties broken by
    # enumeration order, so the returned kernel may be another optimizer)
    axis = Subspace.from_vectors(F2, 2, [(0, 1)])
    pushed = pushforward(d, axis)
    assert min_entropy(pushed).max_weight == ev.max_weight


def test_best_projection_bad_k(F2):
    d = uniform(F2, 2, [(0, 0)])
    with pytest.raises(FlabError, match=r"^k = 2 outside \[1, 2\)$"):
        best_projection(d, 2)


def test_entropic_bound_point_mass(F3):
    for k in (1,):
        assert check_entropic_bound(uniform(F3, 2, [(0, 0)]), k).ok


def test_entropic_bound_uniform_positive_margin(F2):
    r = check_entropic_bound(uniform(F2, 3, all_points(F2, 3)), 1)
    assert r.ok and r.margin > 0


def test_entropic_bound_three_point_exact_sides(F2):
    r = check_entropic_bound(uniform(F2, 2, [(0, 0), (1, 0), (0, 1)]), 1)
    assert r.ok
    assert r.lhs == 16 and r.rhs == 27      # 2^2*2^2 <= 1*3*3^2


def test_recursion_k1_matches_direct(F2):
    rng = random.Random(11)
    d = RationalDistribution.of(
        F2, 2, {p: rng.randint(1, 6) for p in all_points(F2, 2)})
    r = check_recursion(d, 1)
    assert r.composed.max_weight == r.direct.max_weight


def test_recursion_uniform(F2):
    d = uniform(F2, 3, all_points(F2, 3))
    r = check_recursion(d, 2)
    assert r.composed.equals_log(2, 1) and r.direct.equals_log(2, 1)
    assert r.composed_le_direct and r.composed_ok and r.direct_ok


def test_recursion_random_f2_cubed(F2):
    rng = random.Random(23)
    for _ in range(30):
        d = RationalDistribution.of(
            F2, 3, {p: rng.randint(0, 4) for p in all_points(F2, 3)
                    if rng.random() < 0.9} or {(0, 0, 0): 1})
        r = check_recursion(d, 2)
        assert r.composed_le_direct
        assert r.composed_ok and r.direct_ok


def test_norm_bound_all_ones(F3):
    vals = {p: 1 for p in all_points(F3, 2)}
    r = norm_bound_check(F3, 2, vals, 3)
    assert r.hypothesis_ok and r.ok
    assert r.lhs == 25 * 9 and r.rhs == 9 * 9


def test_norm_bound_three_point_indicator(F2):
    vals = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    r = norm_bound_check(F2, 2, vals, 2)
    assert r.hypothesis_ok
    assert r.lhs == 27 and r.rhs == 16 and r.ok


def test_norm_bound_hypothesis_failure_path(F2):
    vals = {(0, 0): 1}
    r = norm_bound_check(F2, 2, vals, 2)
    assert not r.hypothesis_ok
    assert r.failing_direction is not None


def test_norm_bound_negative_values_use_abs(F3):
    vals = {p: -1 for p in all_points(F3, 2)}
    r = norm_bound_check(F3, 2, vals, 3)
    assert r.hypothesis_ok and r.ok


# -- constant transforms ----------------------------------------------------


def test_ab_constants_c_equals_one(F2):
    d = ab_constants("AtoB", 0, 3, 1, 2)    # C = q^0 = 1
    assert d.alpha == 0 and d.beta == 0


def test_ab_constants_c_power(F3):
    # C = q^{-n} gives D = k
    n, k, q = 3, 2, 3
    d = ab_constants("AtoB", n, n, k, q)
    assert d == QExponent.make(q, Fraction(k))


def test_ab_constants_paper_pipeline():
    # D = k log_q 2 maps back to C = 2^{-n}
    n, k, q = 4, 2, 3
    d = QExponent.make(q, 0, k)
    t = ab_constants("BtoA", d, n, k, q)
    assert t == QExponent.make(q, 0, n)     # C = q^{-t} = 2^{-n}


def test_ab_constants_round_trip_grid():
    for q in (2, 3, 5):
        for n in (2, 3, 4):
            for k in range(1, n):
                for num in range(0, 2 * n + 1):
                    t = QExponent.make(q, Fraction(num, 2))
                    back = ab_constants(
                        "BtoA", ab_constants("AtoB", t, n, k, q), n, k, q)
                    assert back == t


def test_ab_constants_range_checks():
    with pytest.raises(FlabError, match="^AtoB needs C <= 1"):
        ab_constants("AtoB", -1, 3, 1, 2)
    with pytest.raises(FlabError, match="^BtoA needs D >= 0$"):
        ab_constants("BtoA", QExponent.make(3, -2, 1), 3, 1, 3)
    with pytest.raises(FlabError, match="^unknown direction 'sideways'$"):
        ab_constants("sideways", 0, 3, 1, 2)


def test_qexponent_sign_mixed():
    # 2 - 1*log_3 2 > 0 ; 1/2 - 2 log_3 2 < 0
    assert QExponent.make(3, 2, -1).sign() == 1
    assert QExponent.make(3, Fraction(1, 2), -2).sign() == -1
    assert QExponent.make(3, -1, 2).sign() > 0       # 2 log_3 2 = log_3 4 > 1
    assert QExponent.make(2, 0, 0).sign() == 0


_ratio = st.fractions(min_value=-40, max_value=40, max_denominator=40)


@given(st.sampled_from([2, 3, 4, 5, 7, 9, 11, 13, 16, 27]), _ratio, _ratio)
@settings(max_examples=300)
def test_qexponent_sign_matches_float_oracle(q, alpha, beta):
    t = QExponent.make(q, alpha, beta)
    real = float(alpha) + float(beta) * math.log(2) / math.log(q)
    assume(abs(real) > 1e-9)
    assert t.sign() == (1 if real > 0 else -1)


@given(st.sampled_from([2, 3, 5, 8]), _ratio, _ratio)
@settings(max_examples=100)
def test_qexponent_scaled_by_minus_one_flips_sign(q, alpha, beta):
    t = QExponent.make(q, alpha, beta)
    assert t.scaled(Fraction(-1)).sign() == -t.sign()


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=40)
def test_pushforward_preserves_total(seed):
    F = field_build(2, 1)
    rng = random.Random(seed)
    d = RationalDistribution.of(
        F, 3, {p: rng.randint(1, 9) for p in all_points(F, 3)})
    for kernel in enumerate_subspaces(F, 3, 1):
        pushed = pushforward(d, kernel)
        assert pushed.total == d.total
        assert sum(pushed.weights.values()) == d.total


FIELDS = [field_build(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1))]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pushforward_matches_coset_grouping(data):
    # weight 1 << i on the i-th support point makes every pushed weight the
    # bitmask of its fiber, so equal weight sets mean equal fibers
    F = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, n))
    kernel = data.draw(st.sampled_from(list(enumerate_subspaces(F, n, k))))
    support = data.draw(st.lists(st.sampled_from(all_points(F, n)),
                                 min_size=1, max_size=12, unique=True))
    d = RationalDistribution.of(
        F, n, {x: 1 << i for i, x in enumerate(support)})
    pushed = pushforward(d, kernel)
    fibers: dict = {}
    for x, w in d.weights.items():
        key = frozenset(flat_points(F, Flat.through(F, kernel, x)))
        fibers[key] = fibers.get(key, 0) + w
    assert sorted(pushed.weights.values()) == sorted(fibers.values())
    assert pushed.n == n - k and pushed.total == d.total
    assert all(len(y) == n - k and all(0 <= c < F.q for c in y)
               for y in pushed.weights)


@given(st.sampled_from(FIELDS), st.integers(1, 3), st.data())
@settings(max_examples=20, deadline=None)
def test_pushforward_is_onto(F, n, data):
    # the uniform distribution pushes forward onto all q^(n-k) images
    k = data.draw(st.integers(0, n))
    kernel = data.draw(st.sampled_from(list(enumerate_subspaces(F, n, k))))
    pushed = pushforward(uniform(F, n, all_points(F, n)), kernel)
    assert set(pushed.weights) == set(all_points(F, n - k))
    assert set(pushed.weights.values()) == {F.q ** k}


def test_entropy_value_orders_by_entropy():
    # H = log_q(total/max_weight): EntropyValue(1, 8) has the higher entropy
    # though its field tuple (1, 8) is the smaller
    hi, lo = EntropyValue(1, 8), EntropyValue(2, 4)
    assert hi >= lo and hi > lo and lo <= hi and lo < hi
    assert not (lo >= hi or lo > hi or hi <= lo or hi < lo)
    pairs = list(itertools.product(range(1, 4), range(3, 7)))
    for (a, b), (c, d) in itertools.product(pairs, repeat=2):
        x, y, hx, hy = EntropyValue(a, b), EntropyValue(c, d), \
            Fraction(b, a), Fraction(d, c)
        assert (x <= y, x < y, x >= y, x > y) \
            == (hx <= hy, hx < hy, hx >= hy, hx > hy)
