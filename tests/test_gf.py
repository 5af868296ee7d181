import itertools

import pytest
from hypothesis import given, settings, strategies as st

from flab.errors import FlabError
from flab.gf import (ExtensionField, _poly_mod, _smallest_irreducible,
                     base_vector_iso, field_build, is_prime)
from flab.geometry import Subspace


ALL_Q_UPTO_64 = sorted(
    p ** e
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    for e in range(1, 7)
    if p ** e <= 64
)


def _spec_for_q(q):
    for p in range(2, q + 1):
        if is_prime(p):
            e = 0
            x = q
            while x % p == 0:
                x //= p
                e += 1
            if p ** e == q:
                return field_build(p, e)
    raise AssertionError(q)


def test_known_moduli():
    assert field_build(2, 1).modulus == ()
    assert field_build(2, 2).modulus == (1, 1, 1)      # x^2 + x + 1
    assert field_build(3, 2).modulus == (1, 0, 1)      # x^2 + 1


def _trial_division_irreducible(base, degree):
    """The modulus search by trial division: the least candidate, low
    degree first, that no monic polynomial of degree up to degree/2
    divides."""
    divisors = [list(low) + [1] for d in range(1, degree // 2 + 1)
                for low in itertools.product(base.elements(), repeat=d)]
    for low in itertools.product(base.elements(), repeat=degree):
        cand = list(low) + [1]
        if all(_poly_mod(base, cand, div) for div in divisors):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")


SMALL_EXTENSIONS = [(p, e) for p in range(2, 55) if is_prime(p)
                    for e in range(2, 12) if p ** e <= 3000]


@pytest.mark.parametrize("p,e", SMALL_EXTENSIONS)
def test_rabin_modulus_matches_trial_division(p, e):
    base = field_build(p, 1)
    assert _smallest_irreducible(base, e) == \
        _trial_division_irreducible(base, e)


@pytest.mark.parametrize("q,e", [(4, 2), (4, 3), (4, 5), (8, 2), (8, 3),
                                 (9, 2), (9, 3)])
def test_rabin_modulus_matches_trial_division_over_towers(q, e):
    base = _spec_for_q(q)
    assert _smallest_irreducible(base, e) == \
        _trial_division_irreducible(base, e)


def test_largest_moduli_frozen():
    # frozen from the trial-division search
    assert _smallest_irreducible(field_build(2, 1), 16) == (
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)
    assert _smallest_irreducible(field_build(3, 1), 10) == (
        1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)


def test_build_is_deterministic():
    a = field_build(2, 4)
    b = field_build(2, 4)
    assert a.modulus == b.modulus
    assert a == b


def test_build_is_shared_and_its_tables_are_tuples():
    # one field per (p, e) in a process: a table a caller could change in
    # place would change every later field_build(p, e)
    for p, e in [(2, 1), (5, 1), (2, 2), (3, 2), (2, 8), (3, 7)]:
        F = field_build(p, e)
        assert field_build(p, e) is F
        if e > 1:
            assert type(F._exp) is type(F._log) is tuple
            assert F._zech is None if p == 2 else type(F._zech) is tuple


def test_build_errors():
    with pytest.raises(FlabError, match="^p = 4 is not prime$"):
        field_build(4, 1)
    with pytest.raises(FlabError, match=r"^q = 2\^17 exceeds 65536$"):
        field_build(2, 17)


def test_f4_multiplication():
    F4 = field_build(2, 2)
    x = F4.undigits((0, 1))
    assert F4.mul(x, x) == F4.undigits((1, 1))      # x^2 = x + 1


def test_f5_example():
    F5 = field_build(5, 1)
    assert F5.mul(2, 3) == 1


@pytest.mark.parametrize("q", ALL_Q_UPTO_64)
def test_field_axioms_exhaustive(q):
    F = _spec_for_q(q)
    els = list(F.elements())
    add = F.add
    mul = F.mul
    for a in els:
        assert add(a, 0) == a and mul(a, 1) == a
        assert add(a, F.neg(a)) == 0
        if a:
            assert mul(a, F.inv(a)) == 1
        for b in els:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in els:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_iso_trivial_identity():
    F4 = field_build(2, 2)
    F16_over_F4 = ExtensionField(F4, 2)
    # r=1 over the tower: F_16 maps one to one onto F_4^2
    images = {base_vector_iso(F16_over_F4, (a,))
              for a in F16_over_F4.elements()}
    assert images == set(itertools.product(F4.elements(), repeat=2))


def test_iso_coefficient_flattening():
    F2 = field_build(2, 1)
    F4 = ExtensionField(F2, 2)
    x = F4.undigits((0, 1))
    assert base_vector_iso(F4, (1, x)) == (1, 0, 0, 1)


def test_iso_linear_and_bijective():
    F2 = field_build(2, 1)
    F4 = ExtensionField(F2, 2)
    seen = set()
    vs = list(itertools.product(F4.elements(), repeat=2))
    for v in vs:
        seen.add(base_vector_iso(F4, v))
    assert len(seen) == 16
    for v in vs:
        for u in vs:
            s = tuple(F4.add(a, b) for a, b in zip(v, u))
            assert base_vector_iso(F4, s) == tuple(
                F2.add(a, b) for a, b in zip(base_vector_iso(F4, v),
                                             base_vector_iso(F4, u)))
        for c in F2.elements():
            cv = tuple(F4.mul(c, a) for a in v)
            assert base_vector_iso(F4, cv) == tuple(
                F2.mul(c, a) for a in base_vector_iso(F4, v))


@pytest.mark.parametrize("p, e", [(5, 1), (2, 2), (3, 2)])
def test_inverse_of_zero_is_a_bug_not_a_refusal(p, e):
    # no input reaches inv(0), so it raises a builtin the CLI reports as an
    # internal error (exit 1), not a FlabError (exit 2)
    with pytest.raises(ZeroDivisionError, match="^inverse of 0$") as exc:
        field_build(p, e).inv(0)
    assert not isinstance(exc.value, FlabError)


def test_iso_needs_an_extension_field():
    with pytest.raises(FlabError,
                       match="^big field must be an extension field$"):
        base_vector_iso(field_build(3, 1), (1,))


def test_lines_lift_to_rank_k_subspaces():
    # the geometric fact behind the divisible-case bound: every line through
    # the origin of F_4^2 flattens to a rank-2 subspace of F_2^4
    F2 = field_build(2, 1)
    F4 = ExtensionField(F2, 2)
    nonzero = [v for v in itertools.product(F4.elements(), repeat=2)
               if any(v)]
    seen = set()
    for d in nonzero:
        vecs = [base_vector_iso(F4, tuple(F4.mul(c, x) for x in d))
                for c in F4.elements()]
        sub = Subspace.from_vectors(F2, 4, vecs)
        assert sub.k == 2
        seen.add(sub)
    assert len(seen) == 5   # the 5 lines of F_4^2 through the origin


def test_prime_tower_matches_field_build():
    F2 = field_build(2, 1)
    assert ExtensionField(F2, 3).modulus == field_build(2, 3).modulus
    F8a = ExtensionField(F2, 3)
    F8b = field_build(2, 3)
    for a in F8a.elements():
        for b in F8a.elements():
            assert F8a.mul(a, b) == F8b.mul(a, b)


@given(st.integers(min_value=0, max_value=2 ** 20))
@settings(max_examples=200)
def test_is_prime_matches_trial_division(n):
    naive = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert is_prime(n) == naive


# -- log/antilog kernels against independent references -----------------

TABLE_FIELDS = [field_build(p, e) for p, e in [(2, 2), (2, 3), (3, 2), (5, 2),
                                               (3, 3), (2, 8), (2, 10),
                                               (3, 7)]]
TABLE_FIELDS += [ExtensionField(field_build(2, 2), 2),
                 ExtensionField(field_build(3, 2), 2)]


def _digitwise(F, op, *xs):
    """Digit-by-digit base-field arithmetic: the reference for add/sub/neg."""
    return F.undigits([getattr(F.base, op)(*ds)
                       for ds in zip(*(F.digits(x) for x in xs))])


def _pow_reference(F, a, k):
    r = 1
    while k:
        if k & 1:
            r = F._mul_slow(r, a)
        a = F._mul_slow(a, a)
        k >>= 1
    return r


def _element(F):
    # 0 and 1 are the edge cases of every table; draw them often
    return st.one_of(st.sampled_from([0, 1, F.q - 1]),
                     st.integers(min_value=0, max_value=F.q - 1))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_table_arithmetic_matches_references(data):
    F = data.draw(st.sampled_from(TABLE_FIELDS), label="F")
    a = data.draw(_element(F), label="a")
    b = data.draw(_element(F), label="b")
    k = data.draw(st.integers(min_value=0, max_value=3 * F.q), label="k")
    assert F.add(a, b) == _digitwise(F, "add", a, b)
    assert F.sub(a, b) == _digitwise(F, "sub", a, b)
    assert F.neg(a) == _digitwise(F, "neg", a)
    assert F.mul(a, b) == F._mul_slow(a, b)
    assert F.pow(a, k) == _pow_reference(F, a, k)
    assert F.pow(a, 0) == 1
    if a:
        assert F._mul_slow(a, F.inv(a)) == 1
    else:
        with pytest.raises(ZeroDivisionError, match="^inverse of 0$"):
            F.inv(a)


@pytest.mark.parametrize("F", TABLE_FIELDS, ids=repr)
def test_log_tables_are_a_bijection(F):
    n = F.q - 1
    assert sorted(F._exp[:n]) == list(range(1, F.q))
    assert all(F._log[F._exp[i]] == i for i in range(n))
    assert F._exp[n:2 * n] == F._exp[:n]


@pytest.mark.parametrize("p, e", [(2, 16), (3, 10), (251, 2)])
def test_largest_fields_build_and_multiply(p, e):
    F = field_build(p, e)
    for a, b in [(2, 3), (F.q - 1, F.q - 2), (12345, 54321)]:
        assert F.mul(a, b) == F._mul_slow(a, b)
        assert F._mul_slow(a, F.inv(a)) == 1
        assert F.add(a, b) == _digitwise(F, "add", a, b)


def test_reducible_modulus_is_rejected():
    with pytest.raises(FlabError, match=r"^modulus \(1, 0, 1\) is not irr"):
        ExtensionField(field_build(2, 1), 2, (1, 0, 1))    # x^2 + 1
