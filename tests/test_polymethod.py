import itertools
import math
import random

import pytest

from conftest import mult_oracle, random_poly
from flab import polymethod
from flab.errors import BudgetExceeded, FlabError
from flab.geometry import all_points
from flab.gf import field_build
from flab.polymethod import (BLOCK, NoSolutionCertificate, Polynomial, _Block,
                             _blocks, _multiplicities,
                             exponents_of_weight, find_vanishing_poly,
                             monomials_upto, multiplicity, poly_mul,
                             sz_mult_audit, vanishes_to,
                             vanishing_hypothesis_holds)
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
    """Reference for the kernel's Hasse columns, entry by entry: D^i(x^a)
    at the point of the power table is binom(a, i) mod p times x^(a-i)."""
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


def _kernel_rows(F, points, monos, orders):
    """{i: [[D^i(x^a) for a in monos] for x in points]}, read off one kernel
    per block of points, each block checked to fit BLOCK."""
    rows = {i: [] for i in orders}
    for block in _blocks(points):
        assert 0 < len(block) <= BLOCK
        kernel = _Block(F, block)
        for i in orders:
            cols = [kernel.column({a: 1}, i) for a in monos]
            rows[i] += map(list, zip(*cols))
    return rows


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (13, 1)]


@pytest.mark.parametrize("p,e", FIELDS)
def test_hasse_table_matches_entrywise_reference(p, e):
    """Every order of weight <= 4, on dense monomial lists of low degree and
    on the sparse terms of (x_j^q - x_j)^4, so that some orders exceed every
    exponent used at a coordinate, over one point and over a list with
    repeated points; and the orders of weight <= 2 of the degree-2
    monomials over more points than one block: the kernel's columns equal
    the entry-by-entry reference at every point."""
    F = field_build(p, e)
    rng = random.Random(F.q)

    def check(n, monos, points, top_weight):
        orders = [i for w in range(top_weight + 1)
                  for i in exponents_of_weight(n, w)]
        got = _kernel_rows(F, points, monos, orders)
        d = max(sum(a) for a in monos)
        for k, x in enumerate(points):
            powers = _power_table(F, x, d)
            for i in orders:
                assert got[i][k] == _hasse_values(F, monos, i, powers), (
                    monos, x, i)

    for n in (1, 2, 3):
        lists = [monomials_upto(n, d) for d in (0, 2, 3)]
        lists += [list(_field_power_poly(F, n, j).terms) for j in range(n)]
        for monos in lists:
            x, y = (tuple(rng.randrange(F.q) for _ in range(n))
                    for _ in range(2))
            check(n, monos, [x], 4)
            check(n, monos, [x, y, x, x, y], 4)
    points = [tuple(rng.randrange(F.q) for _ in range(2))
              for _ in range(BLOCK + 5)]
    check(2, monomials_upto(2, 2), points, 2)


def _dense_poly(rng, F, n, d):
    """Every monomial of degree <= d with a random coefficient, one of them
    nonzero."""
    monos = monomials_upto(n, d)
    terms = {a: rng.randrange(F.q) for a in monos}
    terms[rng.choice(monos)] = rng.randrange(1, F.q)
    return Polynomial.make(F, n, terms)


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 2), (3, 1, 3),
                                   (2, 2, 2), (5, 1, 2), (2, 3, 2),
                                   (3, 2, 2), (23, 1, 2)])
def test_kernel_multiplicities_match_shift_oracle_everywhere(p, e, n):
    """At every point of F_q^n (529 of them, more than one block, over
    F_23^2), dense random polynomials and their products with x_1^q - x_1
    have the oracle's multiplicities; capped at N_x, the kernel reads
    min(multiplicity, N_x), and vanishes_to holds exactly where every
    multiplicity reaches its N_x, for N_x in 0..3."""
    F = field_build(p, e)
    rng = random.Random(F.q * 10 + n)
    points = all_points(F, n)
    frob = _field_power_poly(F, n, 0, power=1)
    for P in (_dense_poly(rng, F, n, 2), _dense_poly(rng, F, n, 3)):
        for Q in (P, poly_mul(P, frob)):
            want = [mult_oracle(F, Q, x) for x in points]
            got = [m for block in _blocks(points) for m in _multiplicities(
                Q, block, [Q.degree + 1] * len(block))]
            assert got == want
            caps = [rng.randrange(4) for _ in points]
            got = [m for block in _blocks(zip(points, caps))
                   for m in _multiplicities(Q, *zip(*block))]
            assert got == list(map(min, want, caps))
            met = {x: N for x, N, m in zip(points, caps, want) if m >= N}
            assert vanishes_to(Q, met)
            short = next((x for x, m in zip(points, want) if m < 3), None)
            if short is not None:
                met[short] = want[points.index(short)] + 1
                assert not vanishes_to(Q, met)


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
    """F_4, F_8 and F_9: multiplicities read off the kernel's Hasse columns
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


def test_sz_audit_streams_its_points_in_blocks(monkeypatch):
    """Over F_23^2 the audit hands the kernel blocks of at most BLOCK
    points whose sizes sum to q^n: U^n is never held at once."""
    F = field_build(23, 1)
    sizes = []

    def recording(P, points, caps):
        sizes.append(len(points))
        return _multiplicities(P, points, caps)

    monkeypatch.setattr(polymethod, "_multiplicities", recording)
    P = _field_power_poly(F, 2, 1, power=2)
    assert sz_mult_audit(P, list(F.elements())).sum == 2 * 23 ** 2
    assert sizes and max(sizes) <= BLOCK and sum(sizes) == 23 ** 2


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
