import random

import pytest

from flab import formats
from flab.entropy import RationalDistribution
from flab.errors import FlabError
from flab.geometry import Flat, PointSet, Subspace, enumerate_flats
from flab.gf import field_build
from flab.incidence import FlatFamily
from flab.polymethod import Polynomial


def test_pointset_round_trip_prime(F3):
    S = PointSet.of(F3, 2, [(0, 0), (1, 2), (2, 1)])
    text = formats.serialize_pointset(S)
    assert text.splitlines()[0] == "3 1 2"
    assert formats.parse_pointset(text) == S


@pytest.mark.parametrize("p,e,modulus", [(2, 2, "1 1 1"), (3, 2, "1 0 1"),
                                          (2, 4, "1 0 0 1 1")],
                         ids=["F4", "F9", "F16"])
def test_pointset_round_trip_extension(p, e, modulus):
    F = field_build(p, e)
    S = PointSet.of(F, 2, [(0, 1), (2, 3), (F.q - 1, 1)])
    text = formats.serialize_pointset(S)
    lines = text.splitlines()
    assert lines[0] == f"{p} {e} 2"
    assert lines[1] == modulus             # canonical modulus as digits
    assert formats.parse_pointset(text) == S


def test_pointset_rejects_wrong_modulus():
    F4 = field_build(2, 2)
    S = PointSet.of(F4, 1, [(1,)])
    text = formats.serialize_pointset(S).replace("1 1 1", "1 0 1")
    with pytest.raises(FlabError,
                       match="^modulus differs from the canonical one$"):
        formats.parse_pointset(text)


def test_pointset_serialization_sorted_deterministic(F2):
    a = PointSet.of(F2, 2, [(1, 1), (0, 0), (1, 0)])
    b = PointSet.of(F2, 2, [(1, 0), (1, 1), (0, 0)])
    assert formats.serialize_pointset(a) == formats.serialize_pointset(b)


def test_distribution_round_trip(F3):
    d = RationalDistribution.of(F3, 2, {(0, 0): 3, (1, 2): 1, (2, 2): 5})
    text = formats.serialize_distribution(d)
    assert formats.parse_distribution(text) == d


def test_distribution_bad_line(F2):
    text = "2 1 2\n0 | 1\n"                # missing weight field
    with pytest.raises(FlabError, match="^expected 2 coords [+] weight: "):
        formats.parse_distribution(text)


def test_polynomial_round_trip(F5):
    P = Polynomial.make(F5, 2, {(0, 0): 1, (2, 1): 4, (1, 1): 2})
    text = formats.serialize_polynomial(P)
    assert formats.parse_polynomial(F5, 2, text) == P
    # graded lex line order
    assert [ln.split(":")[1].strip() for ln in text.splitlines()] \
        == ["0 0", "1 1", "2 1"]


def test_polynomial_bad_term(F2):
    with pytest.raises(FlabError, match="^bad term line '1 , 0 0'$"):
        formats.parse_polynomial(F2, 2, "1 , 0 0\n")
    with pytest.raises(FlabError, match="^expected 2 exponents >= 0: "):
        formats.parse_polynomial(F2, 2, "1 : 0\n")


def test_flat_round_trip(F3):
    for f in enumerate_flats(F3, 2, 1):
        line = formats.serialize_flat(F3, f)
        assert formats.parse_flat(F3, 2, line) == f


def test_flat_round_trip_rank0(F2):
    f = Flat(Subspace.from_vectors(F2, 2, []), (1, 0))
    assert formats.parse_flat(F2, 2, formats.serialize_flat(F2, f)) == f


def test_flat_family_round_trip(F2):
    fam = FlatFamily.of(F2, 3, enumerate_flats(F2, 3, 2))
    text = formats.serialize_flat_family(fam)
    assert formats.parse_flat_family(text) == fam


def test_targets_round_trip(F3):
    targets = {(0, 0): 2, (1, 1): 1, (2, 0): 3}
    text = formats.serialize_targets(F3, 2, targets)
    TF, n, parsed = formats.parse_targets(text)
    assert TF == F3 and n == 2 and parsed == targets


@pytest.mark.parametrize("p,e", [(2, 1), (31, 1), (2, 2), (3, 2)],
                         ids=["F2", "F31", "F4", "F9"])
def test_point_str_joins_each_coordinate_digits(p, e):
    F = field_build(p, e)
    coord = formats._coord_strs(F)
    for pt in [(0,), (F.q - 1, 0, 1), tuple(range(F.q))]:
        assert formats._point_str(coord, pt) == " | ".join(
            " ".join(map(str, F.coeffs(a))) for a in pt)


TABLE_FIELDS = pytest.mark.parametrize(
    "p,e", [(2, 2), (2, 3), (3, 2), (2, 10), (3, 7)],
    ids=["F4", "F8", "F9", "F1024", "F2187"])


@TABLE_FIELDS
def test_coordinate_table_spells_every_element(p, e):
    F = field_build(p, e)
    coord = formats._coord_strs(F)
    assert [coord(a) for a in F.elements()] == [
        " ".join(map(str, F.coeffs(a))) for a in F.elements()]


@TABLE_FIELDS
def test_serializers_round_trip_over_extension_fields(p, e):
    F = field_build(p, e)
    rng = random.Random(F.q)
    pts = [(0, 0), (F.q - 1, 1)] + [(rng.randrange(F.q), rng.randrange(F.q))
                                    for _ in range(20)]
    S = PointSet.of(F, 2, pts)
    assert formats.parse_pointset(formats.serialize_pointset(S)) == S
    dist = RationalDistribution.of(F, 2, {x: rng.randint(1, 9) for x in pts})
    assert formats.parse_distribution(
        formats.serialize_distribution(dist)) == dist
    fam = FlatFamily.of(F, 2, [
        Flat.through(F, Subspace.from_vectors(F, 2, [(1, a)]), x)
        for a, x in zip([0, F.q - 1] + [rng.randrange(F.q)
                                        for _ in range(8)], pts)])
    assert formats.parse_flat_family(formats.serialize_flat_family(fam)) \
        == fam


def test_coord_digit_count_enforced():
    F4 = field_build(2, 2)
    with pytest.raises(FlabError, match=r"^expected 2 digits in \[0, 2\)"):
        formats.parse_pointset("2 2 1\n1 1 1\n1\n")   # one digit, need two
