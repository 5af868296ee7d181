"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they happen; under default capture they appear in the captured output.
"""

import itertools
import random
from fractions import Fraction

from conftest import mult_oracle, random_poly
from flab.entropy import (QExponent, RationalDistribution, ab_constants,
                          check_entropic_bound, norm_bound_check)
from flab.furstenberg import (FurstenbergInstance, bound_table,
                              coverage_over_directions, is_furstenberg,
                              lift_construction, lifted_direction_subspaces,
                              search_extremal, trivial_construction)
from flab.geometry import (PointSet, Subspace, all_points, coset_histogram,
                           enumerate_flats, enumerate_subspaces, qbinomial)
from flab.gf import ExtensionField, base_vector_iso, field_build
from flab.incidence import FlatFamily, contained_subflats, haemers_check
from flab.polymethod import (Polynomial, find_vanishing_poly, multiplicity,
                             sz_mult_audit)


def _verdict(num, label):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {num} ({label}): {status}")
            return False
    return _Ctx()


FROZEN_K = {
    (2, 2, 1, 1): 1,
    (2, 2, 1, 2): 3,
    (2, 3, 1, 1): 1,
    (2, 3, 1, 2): 5,
}


def _exact_values():
    out = {}
    for (q, n, k, m), expected in FROZEN_K.items():
        F = field_build(q, 1)
        res = search_extremal(FurstenbergInstance(field=F, n=n, k=k, m=m))
        assert res.exact == expected, (q, n, k, m)
        out[(q, n, k, m)] = res
    return out


def test_criterion_1_exact_extremal_values():
    with _verdict(1, "exact extremal values"):
        for (q, n, k, m), res in _exact_values().items():
            F = field_build(q, 1)
            ok, _ = is_furstenberg(res.witness, k, m)
            assert ok and len(res.witness) == res.exact
            report = bound_table(
                FurstenbergInstance(field=F, n=n, k=k, m=m))
            for row in report.lower_rows():
                assert row.satisfied_by(res.exact), row.source
            assert res.exact <= m * q ** (n - k)


def test_criterion_2_main_theorem_never_violated():
    with _verdict(2, "main lower bound holds on exact values"):
        for (q, n, k, m), res in _exact_values().items():
            assert res.exact ** k * 2 ** (n * k) >= m ** n


def test_criterion_3_entropic_bound_sweep():
    with _verdict(3, "entropic bound sweep"):
        F2 = field_build(2, 1)
        F3 = field_build(3, 1)
        for r in range(1, 5):
            for pts in itertools.combinations(all_points(F2, 2), r):
                d = RationalDistribution.uniform_on(F2, 2, pts)
                assert check_entropic_bound(d, 1).ok
        pts9 = all_points(F3, 2)
        for r in range(1, 6):
            for pts in itertools.combinations(pts9, r):
                d = RationalDistribution.uniform_on(F3, 2, pts)
                assert check_entropic_bound(d, 1).ok
        rng = random.Random(2024)
        cube = all_points(F2, 3)
        for _ in range(10_000):
            weights = {p: rng.randint(0, 8) for p in cube}
            if not any(weights.values()):
                weights[cube[0]] = 1
            d = RationalDistribution.of(
                F2, 3, {p: w for p, w in weights.items() if w})
            for k in (1, 2):
                assert check_entropic_bound(d, k).ok


def test_criterion_4_norm_bound_sweep():
    with _verdict(4, "power-sum norm bound sweep"):
        F2 = field_build(2, 1)
        F3 = field_build(3, 1)
        pts4 = all_points(F2, 2)
        for entries in itertools.product(range(-3, 4), repeat=4):
            vals = dict(zip(pts4, entries))
            for r in range(1, 13):
                rep = norm_bound_check(F2, 2, vals, r)
                if rep.hypothesis_ok:
                    assert rep.ok
        rng = random.Random(99)
        pts9 = all_points(F3, 2)
        for _ in range(10_000):
            vals = {p: rng.randint(-3, 3) for p in pts9}
            for r in range(1, 10):
                rep = norm_bound_check(F3, 2, vals, r)
                if rep.hypothesis_ok:
                    assert rep.ok


def test_criterion_5_polynomial_method_oracles():
    with _verdict(5, "multiplicity oracle equivalence"):
        for q in (2, 3, 5):
            F = field_build(q, 1)
            for n in (1, 2, 3):
                rng = random.Random(1000 * q + n)
                for _ in range(1000):
                    P = random_poly(rng, F, n, 4)
                    a = tuple(rng.randrange(q) for _ in range(n))
                    assert multiplicity(P, a) == mult_oracle(F, P, a)
                # one audit per seed family keeps the sweep inside minutes
                for _ in range(50):
                    P = random_poly(rng, F, n, 4)
                    assert sz_mult_audit(P, list(F.elements())).ok
                targets = {tuple(rng.randrange(q) for _ in range(n)): 1
                           for _ in range(2)}
                res = find_vanishing_poly(F, n, targets, q)
                if isinstance(res, Polynomial):
                    for x, N in targets.items():
                        assert multiplicity(res, x) >= N


def test_criterion_6_incidence_lemma_audit():
    with _verdict(6, "incidence lemma exhaustive audit"):
        F2 = field_build(2, 1)
        F3 = field_build(3, 1)
        pts = all_points(F2, 2)
        lines = list(enumerate_flats(F2, 2, 1))
        cases = 0
        for r in range(0, 5):
            for spts in itertools.combinations(pts, r):
                S = PointSet.of(F2, 2, spts)
                for lr in range(0, 7):
                    for lsub in itertools.combinations(lines, lr):
                        assert haemers_check(
                            S, FlatFamily.of(F2, 2, lsub)).ok
                        cases += 1
        assert cases == 1024
        rng = random.Random(77)
        for F, n, rank, reps in ((F3, 2, 1, 500), (F2, 3, 2, 500)):
            apts = all_points(F, n)
            aflats = list(enumerate_flats(F, n, rank))
            for _ in range(reps):
                S = PointSet.of(
                    F, n, rng.sample(apts, rng.randint(0, len(apts))))
                L = FlatFamily.of(
                    F, n, rng.sample(aflats, rng.randint(1, len(aflats))))
                assert haemers_check(S, L).ok
        subs = list(enumerate_subspaces(F2, 3, 2))
        cosets = [sorted({f.shift for f in enumerate_flats(F2, 3, 2)
                          if f.direction == d}) for d in subs]
        from flab.geometry import Flat
        for mask in range(128):
            flats = [Flat(d, c[(mask >> i) & 1])
                     for i, (d, c) in enumerate(zip(subs, cosets))]
            rep = contained_subflats(FlatFamily.of(F2, 3, flats), 1)
            assert rep.rhs == 21 and rep.ok


def test_criterion_7_qbinomial_identities():
    with _verdict(7, "q-binomial identities and enumeration counts"):
        for q in (2, 3, 4, 5):
            for n in range(0, 9):
                for k in range(0, n + 1):
                    b = qbinomial(n, k, q)
                    assert b == qbinomial(n, n - k, q)
                    if 1 <= k <= n - 1:
                        assert b == q ** k * qbinomial(n - 1, k, q) \
                            + qbinomial(n - 1, k - 1, q)
                        assert b == qbinomial(n - 1, k, q) \
                            + q ** (n - k) * qbinomial(n - 1, k - 1, q)
        for q, e in ((2, 1), (3, 1), (4, 2), (5, 1)):
            F = field_build(2, 2) if q == 4 else field_build(q, 1)
            n = 1
            while q ** (n + 1) <= 4096:
                n += 1
            for nn in range(1, n + 1):
                for k in range(0, nn + 1):
                    want = qbinomial(nn, k, q)
                    if want > 50_000:
                        continue
                    got = sum(1 for _ in enumerate_subspaces(F, nn, k))
                    assert got == want, (q, nn, k)


def test_criterion_8_extension_lift():
    with _verdict(8, "field-extension lifting"):
        F2 = field_build(2, 1)
        F4 = ExtensionField(F2, 2)
        pairs = list(itertools.product(F4.elements(), repeat=2))
        lifted_subs = set()
        for d in (p for p in pairs if any(p)):
            vecs = [base_vector_iso(F4, tuple(F4.mul(c, x) for x in d))
                    for c in F4.elements()]
            sub = Subspace.from_vectors(F2, 4, vecs)
            assert sub.k == 2
            lifted_subs.add(sub)
        assert len(lifted_subs) == 5
        inst = FurstenbergInstance(field=F4, n=2, k=1, m=4)
        S_big = trivial_construction(inst)
        ok, _ = is_furstenberg(S_big, 1, 4)
        assert ok
        lifted = lift_construction(F4, S_big)
        dirs = lifted_direction_subspaces(F4, 2)
        assert set(dirs) == lifted_subs
        unit = [(p, 1) for p in lifted.points]
        ok2, wit = coverage_over_directions(
            ((d, coset_histogram(lifted.field, unit, d)) for d in dirs), 4)
        assert ok2 and all(c >= 4 for c in wit.coverage.values())


def test_criterion_9_constant_transform_round_trip():
    with _verdict(9, "constant transform round trip"):
        for q in (2, 3, 5):
            for n in (2, 3, 4):
                for k in range(1, n):
                    for twice_t in range(0, 2 * n + 1):
                        t = QExponent.make(q, Fraction(twice_t, 2))
                        back = ab_constants(
                            "BtoA", ab_constants("AtoB", t, n, k, q),
                            n, k, q)
                        assert back == t
                    d = QExponent.make(q, 0, k)
                    assert ab_constants("BtoA", d, n, k, q) \
                        == QExponent.make(q, 0, n)
