import itertools
import math
import random

import pytest

from conftest import mult_oracle, random_poly
from flab.errors import BudgetExceeded, FlabError
from flab.geometry import all_points
from flab.gf import field_build
from flab.polymethod import (NoSolutionCertificate, Polynomial, _HasseTable,
                             exponents_of_weight, find_vanishing_poly,
                             monomials_upto, multiplicity, poly_mul,
                             sz_mult_audit, vanishing_hypothesis_holds)
from reference import evaluate, hasse_coefficient, hasse_derivative


def poly_scale(P: Polynomial, c: int) -> Polynomial:
    return Polynomial.make(P.field, P.n,
                           {e: P.field.mul(c, v) for e, v in P.terms.items()})


def _power_table(F, x, d):
    """Per coordinate x_j of the point, the powers x_j^0, ..., x_j^d."""
    table = []
    for xj in x:
        pw = [1]
        for _ in range(d):
            pw.append(F.mul(pw[-1], xj))
        table.append(pw)
    return table


def _hasse_values(F, monos, i, powers):
    """Reference for _HasseTable.values, entry by entry: D^i(x^a) at the
    point of the power table is binom(a, i) mod p times x^(a-i)."""
    out = []
    for a in monos:
        v = hasse_coefficient(a, i, F.p)
        if v:
            v = F.from_int(v)
            for pw, aj, ij in zip(powers, a, i):
                if aj != ij:
                    v = F.mul(v, pw[aj - ij])
        out.append(v)
    return out


def _field_power_poly(F, n, j, power=4):
    """(x_j^q - x_j)^power: sparse, and multiplicity `power` everywhere."""
    e_q = tuple(F.q if k == j else 0 for k in range(n))
    e_1 = tuple(1 if k == j else 0 for k in range(n))
    P = Polynomial.make(F, n, {e_q: 1, e_1: F.neg(1)})
    Q = P
    for _ in range(power - 1):
        Q = poly_mul(Q, P)
    return Q


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (13, 1)]


@pytest.mark.parametrize("p,e", FIELDS)
def test_hasse_table_matches_entrywise_reference(p, e):
    """Every order of weight <= 4 at random points, on dense monomial lists
    of low degree and on the sparse terms of (x_j^q - x_j)^4, so that some
    orders exceed every exponent used at a coordinate: the table's values
    equal the entry-by-entry reference, and it skips exactly the orders
    whose reference row is zero for that reason."""
    F = field_build(p, e)
    rng = random.Random(F.q)
    for n in (1, 2, 3):
        lists = [monomials_upto(n, d) for d in (0, 2, 3)]
        lists += [list(_field_power_poly(F, n, j).terms) for j in range(n)]
        for monos in lists:
            tops = [max(a[j] for a in monos) for j in range(n)]
            for _ in range(3):
                x = tuple(rng.randrange(F.q) for _ in range(n))
                table = _HasseTable(F, x, monos)
                powers = _power_table(F, x, max(sum(a) for a in monos))
                for w in range(5):
                    for i in exponents_of_weight(n, w):
                        ref = _hasse_values(F, monos, i, powers)
                        got = table.values(i)
                        if any(ij > t for ij, t in zip(i, tops)):
                            assert got is None and not any(ref)
                        else:
                            assert got == ref, (monos, x, i)


@pytest.mark.parametrize("p,e", FIELDS)
def test_multiplicity_of_sparse_power_polys_matches_shift_oracle(p, e):
    F = field_build(p, e)
    rng = random.Random(7 * F.q)
    for n in (1, 2, 3):
        for j in range(n):
            P = _field_power_poly(F, n, j)
            Q = poly_mul(P, random_poly(rng, F, n, 3))
            for _ in range(4):
                a = tuple(rng.randrange(F.q) for _ in range(n))
                assert multiplicity(P, a) == mult_oracle(F, P, a) == 4
                assert multiplicity(Q, a) == mult_oracle(F, Q, a)


def test_hasse_weight_zero_is_identity(F3):
    rng = random.Random(1)
    for _ in range(20):
        P = random_poly(rng, F3, 2, 4)
        assert hasse_derivative(P, (0, 0)) == P


def test_hasse_char2_square(F2):
    P = Polynomial.make(F2, 1, {(2,): 1})
    assert hasse_derivative(P, (1,)).is_zero()
    assert dict(hasse_derivative(P, (2,)).terms) == {(0,): 1}


def test_hasse_chain_rule_cube(F5):
    # (x^3)^{(1)(1)} = binom(2,1) x^3^{(2)}
    P = Polynomial.make(F5, 1, {(3,): 1})
    lhs = hasse_derivative(hasse_derivative(P, (1,)), (1,))
    rhs = poly_scale(hasse_derivative(P, (2,)), 2)
    assert lhs == rhs


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 1)])
def test_hasse_chain_rule_random(q, n):
    F = field_build(q, 1)
    rng = random.Random(q * 10 + n)
    for _ in range(30):
        P = random_poly(rng, F, n, 4)
        for i in itertools.product(range(3), repeat=n):
            for j in itertools.product(range(3), repeat=n):
                if sum(i) + sum(j) > 4:
                    continue
                lhs = hasse_derivative(hasse_derivative(P, i), j)
                scal = 1
                for ik, jk in zip(i, j):
                    scal = scal * math.comb(ik + jk, ik) % F.p
                ij = tuple(a + b for a, b in zip(i, j))
                rhs = poly_scale(hasse_derivative(P, ij), F.from_int(scal))
                assert lhs == rhs


def test_hasse_expansion_identity(F3):
    # P(x+z) = sum_i P^{(i)}(x) z^i checked pointwise on the full grid
    rng = random.Random(5)
    for _ in range(10):
        P = random_poly(rng, F3, 2, 3)
        d = P.degree
        for x in all_points(F3, 2):
            for z in all_points(F3, 2):
                xz = tuple(F3.add(a, b) for a, b in zip(x, z))
                total = 0
                for w in range(d + 1):
                    for i in exponents_of_weight(2, w):
                        v = evaluate(hasse_derivative(P, i), x)
                        for zj, ij in zip(z, i):
                            if ij:
                                v = F3.mul(v, F3.pow(zj, ij))
                        total = F3.add(total, v)
                assert total == evaluate(P, xz)


def test_multiplicity_lowest_monomial(F2):
    P = Polynomial.make(F2, 2, {(2, 1): 1})
    assert multiplicity(P, (0, 0)) == 3


def test_multiplicity_nonvanishing_is_zero(F3):
    P = Polynomial.make(F3, 2, {(0, 0): 1, (1, 1): 1})
    assert multiplicity(P, (0, 0)) == 0


def test_multiplicity_shifted_square(F5):
    # (x-1)^2 = x^2 + 3x + 1 over F_5
    P = Polynomial.make(F5, 1, {(2,): 1, (1,): 3, (0,): 1})
    assert multiplicity(P, (1,)) == 2


def test_multiplicity_zero_poly_infinite(F2):
    # the zero polynomial vanishes to every order: no finite int answers
    with pytest.raises(FlabError, match="^the zero polynomial has no finite"):
        multiplicity(Polynomial.make(F2, 2, {}), (0, 0))


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 2), (3, 3)])
def test_multiplicity_agrees_with_shift_oracle(q, n):
    F = field_build(q, 1)
    rng = random.Random(100 * q + n)
    for _ in range(60):
        P = random_poly(rng, F, n, 4)
        a = tuple(rng.randrange(q) for _ in range(n))
        assert multiplicity(P, a) == mult_oracle(F, P, a)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
def test_extension_field_multiplicities_match_shift_oracle(p, e):
    """F_4, F_8 and F_9: multiplicities read off the per-point Hasse tables
    agree with the binomial expansion of P(y + a), for random polynomials
    and for a found interpolant at its targets."""
    F = field_build(p, e)
    rng = random.Random(10 * F.q)
    for n in (1, 2, 3):
        for _ in range(40):
            P = random_poly(rng, F, n, 2 * F.q)
            a = tuple(rng.randrange(F.q) for _ in range(n))
            assert multiplicity(P, a) == mult_oracle(F, P, a)
            # times (x_1 - a_1)^2, which vanishes to order 2 at a
            line = Polynomial.make(F, n, {(1,) + (0,) * (n - 1): 1,
                                          (0,) * n: F.neg(a[0])})
            Q = poly_mul(P, poly_mul(line, line))
            assert multiplicity(Q, a) == mult_oracle(F, Q, a) >= 2
    targets = {(rng.randrange(F.q), rng.randrange(F.q)): N
               for N in (1, 2, 2, 3)}
    d = next(d for d in itertools.count()
             if vanishing_hypothesis_holds(targets, 2, d))
    P = find_vanishing_poly(F, 2, targets, d)
    assert isinstance(P, Polynomial) and not P.is_zero()
    for x, N in targets.items():
        assert multiplicity(P, x) == mult_oracle(F, P, x) >= N


def test_sz_audit_constant(F3):
    audit = sz_mult_audit(Polynomial.make(F3, 2, {(0, 0): 2}), [0, 1, 2])
    assert audit.sum == 0 and audit.bound == 0 and audit.ok


def test_sz_audit_product_tight(F3):
    audit = sz_mult_audit(Polynomial.make(F3, 2, {(1, 1): 1}), [0, 1, 2])
    assert audit.sum == 6 and audit.bound == 6 and audit.ok


def test_sz_audit_frobenius_tight(F5):
    # x^q - x vanishes simply at every point of F_q
    P = Polynomial.make(F5, 1, {(5,): 1, (1,): 4})
    audit = sz_mult_audit(P, list(F5.elements()))
    assert audit.sum == 5 and audit.bound == 5 and audit.ok


def test_sz_audit_charges_points_times_derivatives(F3):
    # 3^2 points, each with the C(2+2, 2) = 6 derivatives of weight <= 2
    P = Polynomial.make(F3, 2, {(1, 1): 1})
    assert sz_mult_audit(P, [0, 1, 2], budget=54).sum == 6
    with pytest.raises(BudgetExceeded):
        sz_mult_audit(P, [0, 1, 2], budget=53)


def test_sz_audit_rejects_zero(F2):
    with pytest.raises(FlabError,
                       match="^audit requires a nonzero polynomial$"):
        sz_mult_audit(Polynomial.make(F2, 1, {}), [0, 1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exponents_of_weight_in_lexicographic_order(n):
    for w in range(5):
        assert list(exponents_of_weight(n, w)) == sorted(
            e for e in itertools.product(range(w + 1), repeat=n)
            if sum(e) == w)


def test_find_vanishing_unique_monic(F5):
    P = find_vanishing_poly(F5, 1, {(0,): 2}, 2)
    assert isinstance(P, Polynomial)
    assert dict(P.terms) == {(2,): 1}


def test_find_vanishing_grid(F2):
    targets = {p: 1 for p in all_points(F2, 2)}
    assert vanishing_hypothesis_holds(targets, 2, 2)
    P = find_vanishing_poly(F2, 2, targets, 2)
    assert isinstance(P, Polynomial) and not P.is_zero()
    for p in targets:
        assert multiplicity(P, p) >= 1


def test_find_vanishing_boundary_certificate(F2):
    targets = {(0, 0): 3}
    assert not vanishing_hypothesis_holds(targets, 2, 2)
    res = find_vanishing_poly(F2, 2, targets, 2)
    assert isinstance(res, NoSolutionCertificate)
    assert res.unknowns == 6 and res.rank == 6


def test_find_vanishing_charges_the_system_size(F2):
    # the charge is the full system, equations times unknowns
    targets = {(0, 0): 3}
    res = find_vanishing_poly(F2, 2, targets, 2, budget=36)
    assert res.equations * res.unknowns == 36
    with pytest.raises(BudgetExceeded):
        find_vanishing_poly(F2, 2, targets, 2, budget=35)


def test_find_vanishing_rejects_a_negative_multiplicity(F5):
    # before the budget charge, which a budget of 0 would fail
    with pytest.raises(FlabError, match=r"-3 < 0 at point \(1, 2\)"):
        find_vanishing_poly(F5, 2, {(0, 0): 1, (1, 2): -3}, 2, budget=0)


def test_find_vanishing_rejects_a_negative_degree(F5):
    # before the budget charge; degree 0 is the constant polynomials
    with pytest.raises(FlabError, match=r"^degree -1 < 0$"):
        find_vanishing_poly(F5, 2, {(1, 2): 1}, -1, budget=0)
    cert = find_vanishing_poly(F5, 2, {(1, 2): 1}, 0)
    assert (cert.unknowns, cert.rank) == (1, 1)
    assert dict(find_vanishing_poly(F5, 2, {(1, 2): 0}, 0).terms) == {
        (0, 0): 1}


def test_find_vanishing_multiplicity_zero_is_vacuous(F5):
    # no condition at (1, 2): the constant 1 is the canonical interpolant
    P = find_vanishing_poly(F5, 2, {(1, 2): 0}, 1)
    assert dict(P.terms) == {(0, 0): 1}
    Q = find_vanishing_poly(F5, 2, {(1, 2): 0, (0, 0): 1}, 1)
    assert Q == find_vanishing_poly(F5, 2, {(0, 0): 1}, 1)


def test_find_vanishing_mixed_multiplicities(F3):
    targets = {(0, 0): 2, (1, 1): 1}
    P = find_vanishing_poly(F3, 2, targets, 3)
    assert isinstance(P, Polynomial)
    for x, N in targets.items():
        assert multiplicity(P, x) >= N


def test_find_vanishing_deterministic(F3):
    targets = {(0, 0): 1, (1, 2): 1}
    a = find_vanishing_poly(F3, 2, targets, 2)
    b = find_vanishing_poly(F3, 2, targets, 2)
    assert a == b


def test_monomial_order_graded_lex():
    ms = monomials_upto(2, 2)
    assert ms == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
