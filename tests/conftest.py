import math
import random

import pytest

from flab.gf import field_build
from flab.polymethod import Polynomial
from reference import reduce_mod_subspace


@pytest.fixture(scope="session")
def F2():
    return field_build(2, 1)


@pytest.fixture(scope="session")
def F3():
    return field_build(3, 1)


@pytest.fixture(scope="session")
def F4():
    return field_build(2, 2)


@pytest.fixture(scope="session")
def F5():
    return field_build(5, 1)


def random_poly(rng: random.Random, F, n: int, max_deg: int,
                max_terms: int = 6) -> Polynomial:
    """Random sparse nonzero polynomial of total degree <= max_deg."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = []
            left = max_deg
            for _ in range(n):
                k = rng.randint(0, left)
                e.append(k)
                left -= k
            terms[tuple(e)] = rng.randrange(F.q)
        P = Polynomial.make(F, n, terms)
        if not P.is_zero():
            return P


def mult_oracle(F, P: Polynomial, a) -> float | int:
    """Independent multiplicity oracle: expand P(y + a) monomial by monomial
    via the binomial theorem and take the minimal weight of a surviving term.

    Deliberately avoids Hasse derivatives so it cross-checks that path.
    """
    if P.is_zero():
        return math.inf
    shifted: dict[tuple, int] = {}
    for e, c in P.terms.items():
        # expand prod_j (y_j + a_j)^{e_j}
        partial = {(): c}
        for aj, kj in zip(a, e):
            nxt: dict[tuple, int] = {}
            for tail, v in partial.items():
                for t in range(kj + 1):
                    scal = F.from_int(math.comb(kj, t) % F.p)
                    w = F.mul(v, F.mul(scal, F.pow(aj, kj - t)))
                    if w == 0:
                        continue
                    key = tail + (t,)
                    s = F.add(nxt.get(key, 0), w)
                    if s == 0:
                        nxt.pop(key, None)
                    else:
                        nxt[key] = s
            partial = nxt
        for key, v in partial.items():
            s = F.add(shifted.get(key, 0), v)
            if s == 0:
                shifted.pop(key, None)
            else:
                shifted[key] = s
    if not shifted:
        return math.inf
    return min(sum(e) for e in shifted)


def pointwise_histogram(F, items, direction) -> dict:
    """Reference coset histogram: one reduce_mod_subspace per point, its
    weight summed per shift, each shift listed where it first appears.

    Independent of the column ops (geometry._column_op) that
    geometry.coset_histogram and the direction walk under
    geometry.scan_directions make.
    """
    hist: dict = {}
    for p, w in items:
        shift = reduce_mod_subspace(F, p, direction)
        hist[shift] = hist.get(shift, 0) + w
    return hist
