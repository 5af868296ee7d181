"""Malformed files and flags never make the CLI exit 1 ("internal error"),
valid point sets verify as a per-point reference says, and the incidence
(subflats too), polycert --poly, polycert --targets, entropy and exact
search reports of valid input match a brute-force recount, and drawn
nested reports render to the JSON bytes of a walk-then-dump reference and
of json.dumps itself.

Half the fuzz cases are malformed: every input is small (q <= 5, n <= 2,
multiplicities and degrees below 8), so no case starts a large
enumeration, and the files mix random tokens with lines in the right
shape.  A file may also be a bare header of dimension 25 to 10^9: 2^25 is
past the default budget, so every scan of it must be refused, and refused
without counting the flats of F_q^(10^9) in full.  The other half are the
valid runs of the report tests below, as drawn or with one flag value,
header token or coordinate replaced, so about a quarter of all cases run
an algorithm to exit 0.  Now and then a weight, a --delta or an --epsilon
has 4000 to 4400 digits, so a report path that cannot print a long number
shows up as exit 1.
"""

import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction
from typing import NamedTuple

from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import pointwise_histogram
from flab import formats
from flab.cli import _ratio, emit_report, main
from flab.entropy import RationalDistribution
from flab.furstenberg import FurstenbergInstance
from flab.geometry import (DIGIT_CAP, Flat, PointSet, all_points,
                           enumerate_flats, enumerate_subspaces, flat_points)
from flab.gf import field_build
from flab.incidence import FlatFamily
from flab.polymethod import Polynomial, poly_mul, vanishing_hypothesis_holds
from reference import (entropy_report, incidence_report, interpolation_report,
                       json_report, polycert_report, search_report,
                       subflats_report)

HEADERS = ["2 1 2", "3 1 1", "5 1 2", "2 2 2\n1 1 1", "3 1 2", "2 1 1",
           "", "x 1 2", "2 1", "2 1 2 7", "4 1 2", "2 2 2", "2 2 2\n1 0 1",
           "5 0 2", "5 1 0", "5 1 -1", "2 17 1"]
TOKENS = ["0", "1", "2", "4", "7", "-1", "x", "1.5", "|", ";", ",", ":",
          "1 0", ""]
DIGITS = ["0", "1", "2", "4", "-1", "x", "1 0", "0 1", ""]
SMALL = ["-1", "0", "1", "2", "3", "7", "x"]
FIELDS = [("2", "1"), ("3", "1"), ("5", "1"), ("2", "2"), ("4", "1"),
          ("1", "1"), ("2", "0"), ("x", "1"), ("3", "-1")]
RATIONALS = ["1/2", "2/3", "0", "1", "-1", "1/0", "abc", "zz", ""]


# a number of 4000 to 4400 digits: a default Python parses 4300 digits and
# no more, and a report refuses a number of more
long_number = st.tuples(st.integers(4000, 4400), st.integers(1, 9)).map(
    lambda lc: str(lc[1]) * lc[0])


def _now_and_then_long(tokens, spell):
    """One of the tokens, or one time in len(tokens) + 1 a long number
    spelled by spell."""
    return st.sampled_from([*tokens, None]).flatmap(
        lambda t: st.just(t) if t is not None else long_number.map(spell))


weight = _now_and_then_long(SMALL, str)
rational = _now_and_then_long(RATIONALS, lambda digits: f"1/{digits}")

coords = st.lists(st.sampled_from(DIGITS), min_size=1, max_size=3)
point = coords.map(" | ".join)
line = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=8).map(" ".join),
    point,
    st.tuples(point, weight).map(" | ".join),
    st.tuples(st.lists(point, max_size=2).map(" , ".join), point)
    .map(" ; ".join),
    st.tuples(st.sampled_from(DIGITS), st.lists(st.sampled_from(SMALL),
                                                max_size=3).map(" ".join))
    .map(" : ".join),
)
text = st.one_of(
    st.tuples(st.sampled_from(HEADERS), st.lists(line, max_size=6)).map(
        lambda hb: "\n".join([hb[0]] + hb[1]) + "\n"),
    st.tuples(st.sampled_from(["2 1 {}", "3 1 {}", "5 1 {}",
                               "2 2 {}\n1 1 1"]),
              st.integers(25, 10 ** 9)).map(
        lambda hn: hn[0].format(hn[1]) + "\n"))
flag = st.sampled_from(SMALL)


@st.composite
def malformed_invocations(draw):
    """(argv with @a/@b placeholders, text of file a, text of file b)."""
    cmd = draw(st.sampled_from(["verify", "entropy", "targets", "poly",
                                "incidence", "search", "bounds"]))
    p, e = draw(st.sampled_from(FIELDS))
    n = draw(st.sampled_from(["0", "1", "2", "-1", "x"]))
    field = ["--p", p, "--e", e, "--n", n]
    if cmd == "verify":
        argv = ["verify", "--points", "@a", "--k", draw(flag),
                "--m", draw(flag)]
    elif cmd == "entropy":
        argv = ["entropy", "--dist", "@a", "--k", draw(flag), "--check",
                draw(st.sampled_from(["bound", "recursion", "none"]))]
    elif cmd == "targets":
        argv = ["polycert", *field, "--targets", "@a",
                "--degree", draw(flag)]
    elif cmd == "poly":
        argv = ["polycert", *field, "--poly", "@a"]
    elif cmd == "incidence":
        argv = ["incidence", "--points", "@a", "--flats", "@b", "--check",
                draw(st.sampled_from(["count", "haemers", "poor", "becks",
                                      "subflats"])),
                "--k", draw(flag), "--l", draw(flag),
                "--delta", draw(rational)]
    elif cmd == "search":
        argv = ["search", *field, "--k", draw(flag), "--m", draw(flag)]
    else:
        argv = ["bounds", *field, "--k", draw(flag), "--m", draw(flag),
                "--epsilon", draw(rational)]
    # bounds takes no --budget, so adding one would stop every bounds case
    # at the argument parser
    if cmd != "bounds" and draw(st.booleans()):
        argv += ["--budget", draw(st.sampled_from(["-1", "0", "50", "x"]))]
    return argv, draw(text), draw(text)


# -- valid input ------------------------------------------------------------

VALID_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@st.composite
def verify_cases(draw):
    """(point set over F_2, F_3, F_4, F_5 or F_9 in dimension <= 3, k, m)."""
    F = field_build(*draw(st.sampled_from(VALID_FIELDS)))
    n = draw(st.integers(min_value=1, max_value=3))
    # up to all of F_2^3, so some sets pass the first directions
    space = all_points(F, n)
    size = draw(st.integers(min_value=0, max_value=min(len(space), 30)))
    pts = draw(st.randoms(use_true_random=False)).sample(space, size)
    k = draw(st.integers(min_value=0, max_value=n))
    m = draw(st.integers(min_value=1, max_value=3))
    return PointSet.of(F, n, pts), k, m


def _spelled(F, p):
    """A point as the format spells it, one F.coeffs call per coordinate."""
    return " | ".join(" ".join(map(str, F.coeffs(a))) for a in p)


def reference_verify(S, k, m) -> dict:
    """The verify report, from one reference reduction per point and
    direction: the first direction whose best coset has fewer than m
    points fails; otherwise each direction's witness is its lex-least
    coset of largest count, listed by basis."""
    F = S.field
    unit = [(p, 1) for p in S.points]
    witnesses = []
    for d in enumerate_subspaces(F, S.n, k):
        hist = pointwise_histogram(F, unit, d)
        best = max(hist.values(), default=0)
        rows = " , ".join(_spelled(F, r) for r in d.basis)
        if best < m:
            return {"ok": False, "size": len(S), "failing_direction": rows}
        shift = min(s for s, c in hist.items() if c == best)
        witnesses.append((d.basis, {"direction": rows,
                                    "flat": f"{rows} ; {_spelled(F, shift)}",
                                    "count": best}))
    return {"ok": True, "size": len(S),
            "witnesses": [w for _, w in sorted(witnesses,
                                               key=lambda bw: bw[0])]}


# random sets mostly fail at the first direction or pass; these two cover
# the first direction (1, 0) only, so they fail at the second
@given(verify_cases())
@example((PointSet.of(field_build(2, 1), 2, [(0, 0), (1, 0)]), 1, 2))
@example((PointSet.of(field_build(2, 2), 2, [(0, 0), (1, 0), (3, 2)]), 1, 2))
@settings(max_examples=150, deadline=None)
def test_verify_report_matches_pointwise_reference(case):
    S, k, m = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.pts")
        with open(path, "w") as fh:
            fh.write(formats.serialize_pointset(S))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--points", path, "--k", str(k),
                         "--m", str(m), "--format", "json"])
    assert code == 0
    assert json.loads(out.getvalue()) == reference_verify(S, k, m)


# (lowest, highest) flat rank, --l or --k of each check in F_q^n
RANKS = {"count": lambda n: (0, n), "haemers": lambda n: (0, n),
         "poor": lambda n: (1, n - 1), "becks": lambda n: (1, n)}


@st.composite
def incidence_cases(draw):
    """(point set over F_2, F_3, F_4 or F_5 in dimension <= 3, check, rank
    r, distinct r-flats for count and haemers, delta, a Random)."""
    F = field_build(*draw(st.sampled_from(VALID_FIELDS[:4])))
    check = draw(st.sampled_from(sorted(RANKS)))
    n = draw(st.integers(min_value=2 if check == "poor" else 1, max_value=3))
    rnd = draw(st.randoms(use_true_random=False))
    space = all_points(F, n)
    S = PointSet.of(F, n, rnd.sample(space, draw(st.integers(0, len(space)))))
    r = draw(st.integers(*RANKS[check](n)))
    flats = []
    if check in ("count", "haemers"):
        every = list(enumerate_flats(F, n, r))
        flats = rnd.sample(every, draw(st.integers(0, min(len(every), 8))))
    # 1 - 1/q for q = 2, 3, 4: the lines of a full space F_q^n then hold
    # exactly becks' threshold at k = 2
    delta = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2),
                                  Fraction(2, 3), Fraction(3, 4)]))
    return S, check, r, flats, delta, rnd


def _respelled(F, flat, rnd):
    """The flat as another file line would give it: its basis rows scaled
    by nonzero constants, in reverse order, through any of its points."""
    scales = [rnd.randrange(1, F.q) for _ in flat.direction.basis]
    rows = tuple(tuple(F.mul(c, x) for x in row)
                 for c, row in zip(scales, reversed(flat.direction.basis)))
    return Flat(flat.direction._replace(basis=rows),
                rnd.choice(flat_points(F, flat)))


FULL_PLANE = PointSet.of(field_build(2, 1), 2,
                          all_points(field_build(2, 1), 2))


# every line of F_2^2 holds exactly threshold 2 points, which is rich but
# not poor; one point leaves three lines empty, and those are poor too
@given(incidence_cases())
@example((FULL_PLANE, "poor", 1, [], Fraction(1, 2), random.Random(0)))
@example((FULL_PLANE, "becks", 2, [], Fraction(1, 2), random.Random(0)))
@example((PointSet.of(FULL_PLANE.field, 2, [(0, 0)]), "poor", 1, [],
          Fraction(1, 2), random.Random(0)))
@settings(max_examples=200, deadline=None)
def test_incidence_report_matches_brute_force_reference(case):
    S, check, r, flats, delta, rnd = case
    F = S.field
    argv = ["incidence", "--check", check, "--format", "json"]
    argv += {"poor": ["--l", str(r), "--delta", str(delta)],
             "becks": ["--k", str(r), "--delta", str(delta)]}.get(check, [])
    # the distinct flats, some written twice, each through another point
    lines = [_respelled(F, f, rnd) for f in flats + flats[:len(flats) // 2]]
    with tempfile.TemporaryDirectory() as tmp:
        files = {"--points": formats.serialize_pointset(S)}
        if check in ("count", "haemers"):
            files["--flats"] = formats.serialize_flat_family(
                FlatFamily(F, S.n, r, tuple(lines)))
        for flag, body in files.items():
            path = os.path.join(tmp, flag[2:])
            with open(path, "w") as fh:
                fh.write(body)
            argv += [flag, path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code == 0
    want = incidence_report(S, check, flats, r, delta)
    assert json.loads(out.getvalue()) == {
        key: f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction)
        else v for key, v in want.items()}


@st.composite
def subflats_cases(draw):
    """(F_2, F_3, F_4 or F_9, n, one k-flat per rank-k direction, l, a
    Random, whether to pass --points) with k = n - 1 and l = n - 2: lines
    in planes of F_q^3, or planes in hyperplanes of F_2^4, so the K factor
    is a planar Kakeya minimum that the exact search reaches; or with
    k = n, the whole space, whose K factor is q^(n-l).  F_9 comes only as
    the whole plane: for k < n its instance is past the search's limit, so
    the K factor is not the planar Kakeya value."""
    F = field_build(*draw(st.sampled_from(VALID_FIELDS[:3] + [(3, 2)])))
    n = 2 if F.q == 9 else draw(st.integers(3, 4 if F.q == 2 else 3))
    k = n if F.q == 9 else draw(st.sampled_from([n - 1, n]))
    l = n - 2 if k < n else draw(st.integers(1, n - 1))
    rnd = draw(st.randoms(use_true_random=False))
    by_direction: dict = {}
    for f in enumerate_flats(F, n, k):
        by_direction.setdefault(f.direction, []).append(f)
    flats = [rnd.choice(fs) for fs in by_direction.values()]
    return F, n, flats, l, rnd, draw(st.booleans())


# subflats reads no points, so --points may be given or left out; the
# examples are the one 2-flat of F_2^2, which holds all six lines, and of
# F_9^2, which holds all ninety
@given(subflats_cases())
@example((FULL_PLANE.field, 2, list(enumerate_flats(FULL_PLANE.field, 2, 2)),
          1, random.Random(0), False))
@example((field_build(3, 2), 2, list(enumerate_flats(field_build(3, 2), 2, 2)),
          1, random.Random(0), True))
@settings(max_examples=60, deadline=None)
def test_subflats_report_matches_brute_force_reference(case):
    F, n, flats, l, rnd, points = case
    lines = [_respelled(F, f, rnd) for f in flats]
    argv = ["incidence", "--check", "subflats", "--l", str(l), "--format",
            "json"]
    with tempfile.TemporaryDirectory() as tmp:
        files = {"--points": formats.serialize_pointset(PointSet.of(F, n, [])),
                 "--flats": formats.serialize_flat_family(
                     FlatFamily(F, n, flats[0].direction.k, tuple(lines)))}
        if not points:
            del files["--points"]
        for flag, body in files.items():
            path = os.path.join(tmp, flag[2:])
            with open(path, "w") as fh:
                fh.write(body)
            argv += [flag, path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code == 0
    want = subflats_report(F, n, flats, l)
    want["bound"] = f"{want['bound'].numerator}/{want['bound'].denominator}"
    assert json.loads(out.getvalue()) == want


@st.composite
def search_cases(draw):
    """An exact instance: q in {2, 3, 4}, q^n <= 16, 1 <= k < n and
    1 <= m <= q^k."""
    p, e = draw(st.sampled_from(VALID_FIELDS[:3]))
    q = p ** e
    n = draw(st.integers(2, {2: 4, 3: 2, 4: 2}[q]))
    k = draw(st.integers(1, n - 1))
    return p, e, n, k, draw(st.integers(1, q ** k))


@given(search_cases())
@settings(max_examples=40, deadline=None)
def test_search_report_matches_combinations_reference(case):
    p, e, n, k, m = case
    F = field_build(p, e)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["search", "--p", str(p), "--e", str(e), "--n", str(n),
                     "--k", str(k), "--m", str(m), "--format", "json"])
    assert code == 0
    want = search_report(FurstenbergInstance(F, n, k, m))
    want["witness"] = [_spelled(F, x) for x in want["witness"]]
    assert json.loads(out.getvalue()) == want


def _report(argv, name, text) -> dict:
    """The JSON report of the CLI run argv + [path], path a file of text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + [path, "--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())


@st.composite
def audit_cases(draw):
    """A nonzero polynomial of degree <= 4 over F_2, F_3, F_4 or F_5 in at
    most 3 variables: a power of a polynomial of degree <= 1 times a
    cofactor, so some points have multiplicity past 1."""
    F = field_build(*draw(st.sampled_from(VALID_FIELDS[:4])))
    n = draw(st.integers(1, 3))

    def drawn(deg):
        expo = st.tuples(*[st.integers(0, deg)] * n).filter(
            lambda e: sum(e) <= deg)
        return Polynomial.make(F, n, draw(st.dictionaries(
            expo, st.integers(1, F.q - 1), min_size=1, max_size=4)))

    power = draw(st.integers(0, 4))
    base, P = drawn(1), drawn(4 - power)
    for _ in range(power):
        P = poly_mul(P, base)
    return P


@given(audit_cases())
@settings(max_examples=150, deadline=None)
def test_polycert_audit_report_matches_hasse_reference(P):
    F = P.field
    argv = ["polycert", "--p", str(F.p), "--e", str(F.e), "--n", str(P.n),
            "--poly"]
    got = _report(argv, "p.poly", formats.serialize_polynomial(P))
    assert got == polycert_report(P)


@st.composite
def interpolation_cases(draw):
    """(field F_2, F_3, F_4, F_5 or F_9, n <= 3, 1 to 4 targets with N_x
    in 0..3, a degree from 2 below to 1 above the least one meeting the
    dimension-count hypothesis, so both found and full-rank reports
    occur)."""
    F = field_build(*draw(st.sampled_from(VALID_FIELDS)))
    n = draw(st.integers(1, 3))
    space = all_points(F, n)
    rnd = draw(st.randoms(use_true_random=False))
    points = rnd.sample(space, draw(st.integers(1, min(len(space), 4))))
    targets = {x: draw(st.integers(0, 3)) for x in points}
    least = next(d for d in range(20)
                 if vanishing_hypothesis_holds(targets, n, d))
    return F, n, targets, draw(st.integers(max(least - 2, 0), least + 1))


@given(interpolation_cases())
@settings(max_examples=150, deadline=None)
def test_polycert_targets_report_matches_entrywise_reference(case):
    F, n, targets, d = case
    argv = ["polycert", "--p", str(F.p), "--e", str(F.e), "--n", str(n),
            "--degree", str(d), "--targets"]
    got = _report(argv, "t.targets", formats.serialize_targets(F, n, targets))
    want = interpolation_report(F, n, targets, d)
    if want["found"]:
        want["polynomial"] = formats.serialize_polynomial(
            want["polynomial"]).rstrip("\n")
    assert got == want


@st.composite
def entropy_cases(draw):
    """(distribution over F_2, F_3, F_4 or F_5 in dimension 2 or 3 with
    small weights, so kernels tie, check, k with 1 <= k < n)."""
    F = field_build(*draw(st.sampled_from(VALID_FIELDS[:4])))
    n = draw(st.integers(2, 3))
    space = all_points(F, n)
    rnd = draw(st.randoms(use_true_random=False))
    support = rnd.sample(space, draw(st.integers(1, min(len(space), 12))))
    weights = {x: draw(st.integers(1, 3)) for x in support}
    return (RationalDistribution.of(F, n, weights),
            draw(st.sampled_from(["bound", "recursion"])),
            draw(st.integers(1, n - 1)))


# the chain's first kernel ties with later ones, and the first in walk
# order leads to a composed max weight of 4, the last to 5
@given(entropy_cases())
@example((RationalDistribution.of(field_build(2, 1), 3, {
    (0, 0, 0): 3, (0, 1, 0): 1, (0, 1, 1): 3, (1, 0, 1): 1}), "recursion", 2))
@settings(max_examples=150, deadline=None)
def test_entropy_report_matches_pointwise_reference(case):
    dist, check, k = case
    argv = ["entropy", "--check", check, "--k", str(k), "--dist"]
    got = _report(argv, "d.dist", formats.serialize_distribution(dist))
    assert got == entropy_report(dist, check, k)


# -- valid runs, at most one token changed ----------------------------------

def _field_flags(F, n: int) -> list[str]:
    return ["--p", str(F.p), "--e", str(F.e), "--n", str(n)]


def _verify_run(case):
    S, k, m = case
    return (["verify", "--points", "@a", "--k", str(k), "--m", str(m)],
            formats.serialize_pointset(S), "")


def _incidence_run(case):
    S, check, r, flats, delta, _ = case
    argv = ["incidence", "--check", check, "--points", "@a"]
    if check not in ("count", "haemers"):
        return (argv + ["--l" if check == "poor" else "--k", str(r),
                        "--delta", str(delta)],
                formats.serialize_pointset(S), "")
    return (argv + ["--flats", "@b"], formats.serialize_pointset(S),
            formats.serialize_flat_family(
                FlatFamily(S.field, S.n, r, tuple(flats))))


def _subflats_run(case):
    F, n, flats, l, _, points = case
    argv = ["incidence", "--check", "subflats", "--l", str(l), "--flats", "@b"]
    return (argv + ["--points", "@a"] * points,
            formats.serialize_pointset(PointSet.of(F, n, [])),
            formats.serialize_flat_family(
                FlatFamily(F, n, flats[0].direction.k, tuple(flats))))


def _search_run(case):
    p, e, n, k, m = case
    return (["search", *_field_flags(field_build(p, e), n), "--k", str(k),
             "--m", str(m)], "", "")


def _audit_run(P):
    return (["polycert", *_field_flags(P.field, P.n), "--poly", "@a"],
            formats.serialize_polynomial(P), "")


def _targets_run(case):
    F, n, targets, d = case
    return (["polycert", *_field_flags(F, n), "--degree", str(d),
             "--targets", "@a"], formats.serialize_targets(F, n, targets), "")


def _entropy_run(case):
    dist, check, k = case
    return (["entropy", "--dist", "@a", "--check", check, "--k", str(k)],
            formats.serialize_distribution(dist), "")


valid_runs = st.one_of(
    verify_cases().map(_verify_run), incidence_cases().map(_incidence_run),
    subflats_cases().map(_subflats_run), search_cases().map(_search_run),
    audit_cases().map(_audit_run), interpolation_cases().map(_targets_run),
    entropy_cases().map(_entropy_run))
SEPARATORS = ("|", ";", ",", ":")


@st.composite
def mutated_runs(draw):
    """A valid run as (argv, text of a, text of b): as it is in half the
    draws, else with one flag value, or one header token or one coordinate
    (a token of a later line) of a file it reads, replaced, or with its
    --delta, or one weight of a file it reads, made a long number."""
    argv, *texts = draw(valid_runs)
    if draw(st.booleans()):
        return argv, *texts
    read = [f for f, key in enumerate(("@a", "@b")) if key in argv]
    f = draw(st.sampled_from(read)) if read else None
    lines = texts[f].split("\n") if read else []
    body = [i for i, ln in enumerate(lines[1:], 1)
            if set(ln.split()) - set(SEPARATORS)]
    delta = [i for i in range(1, len(argv)) if argv[i - 1] == "--delta"]
    weighted = body if {"--dist", "--targets"} & set(argv) else []
    where = draw(st.sampled_from(["flag", "header", "coordinate"][
        :1 + bool(read) + bool(body)] + ["long"] * bool(delta or weighted)))
    if where == "long":
        number = draw(long_number)
        if delta:
            return (argv[:delta[0]] + [f"1/{number}"] + argv[delta[0] + 1:],
                    *texts)
        i = draw(st.sampled_from(weighted))
        lines[i] = f"{lines[i].rpartition('|')[0]}| {number}"
        texts[f] = "\n".join(lines)
        return argv, *texts
    if where == "flag":
        i = draw(st.sampled_from([i for i in range(1, len(argv))
                                  if argv[i - 1].startswith("--")
                                  and not argv[i].startswith("@")]))
        return (argv[:i] + [draw(st.sampled_from(SMALL + RATIONALS))]
                + argv[i + 1:], *texts)
    i = 0 if where == "header" else draw(st.sampled_from(body))
    toks = lines[i].split()
    j = draw(st.sampled_from([j for j, t in enumerate(toks)
                              if t not in SEPARATORS]))
    toks[j] = draw(st.sampled_from(SMALL if where == "header" else DIGITS))
    lines[i] = " ".join(toks)
    texts[f] = "\n".join(lines)
    return argv, *texts


invocations = st.one_of(malformed_invocations(), mutated_runs())


@given(invocations)
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_malformed_input_exits_0_or_2(case):
    argv, a, b = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"@a": os.path.join(tmp, "a"), "@b": os.path.join(tmp, "b")}
        for key, body in (("@a", a), ("@b", b)):
            with open(paths[key], "w") as fh:
                fh.write(body)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(t, t) for t in argv])
    assert code in (0, 2), (argv, a, b, err.getvalue())


class _Pair(NamedTuple):
    left: object
    right: object


# every CLI report key is a str; int keys are drawn too, never beside a str
# key that spells the same number (the walk would merge the two)
keys = st.one_of(st.text(max_size=4), st.integers(-99, 99))
# ints of up to 63 digits, and fractions of such ints
huge = st.tuples(st.integers(-999, 999), st.integers(0, 60)).map(
    lambda cd: cd[0] * 10 ** cd[1])
leaves = st.one_of(st.booleans(), st.none(), st.text(max_size=6), huge,
                   st.tuples(huge, st.integers(1, 10 ** 60)).map(
                       lambda nd: Fraction(*nd)))


@st.composite
def _dicts(draw, values):
    return {k: draw(values)
            for k in draw(st.lists(keys, max_size=4, unique_by=str))}


reports = _dicts(st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.tuples(inner, inner).map(lambda lr: _Pair(*lr)), _dicts(inner)),
    max_leaves=16))


@given(reports)
@example({"rhs": Fraction(-7, 3), 5: [(-10 ** 4000, None), True],
          "\u00e9t\u00e9": _Pair(Fraction(4, 1), {-1: "\u2200"})})
@settings(max_examples=100, deadline=None)
def test_json_report_matches_walked_reference(report):
    assert emit_report(report, "json") == json_report(report)


# ints of 1 to DIGIT_CAP digits, the longest a report prints; text with
# non-ASCII and control characters, which json escapes
long_ints = st.tuples(st.integers(1, DIGIT_CAP), st.booleans()).flatmap(
    lambda ds: st.integers(10 ** (ds[0] - 1), 10 ** ds[0] - 1).map(
        lambda v: -v if ds[1] else v))
strange = st.one_of(st.text(max_size=6), st.sampled_from(
    ["", "\x00\x1f\x7f", "\"\\\n\t", "\u00e9\u2200", "\U0001f600\ud7ff"]))
all_leaves = st.one_of(st.booleans(), st.none(), strange, long_ints,
                       st.integers(-99, 99),
                       st.tuples(long_ints, long_ints.map(abs)).map(
                           lambda nd: Fraction(*nd)))
any_keys = st.one_of(strange, st.integers(-99, 99))
any_reports = st.dictionaries(any_keys, st.recursive(
    all_leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
        st.tuples(inner, inner).map(lambda lr: _Pair(*lr)),
        st.dictionaries(any_keys, inner, max_size=3)),
    max_leaves=12), max_size=4)


@given(any_reports)
@example({"": [], 0: {}, "\x00\u00e9": (), "p": _Pair(None, (True, [{}])),
          -1: Fraction(-10 ** (DIGIT_CAP - 1), 3), "n": 10 ** DIGIT_CAP - 1})
@settings(max_examples=150, deadline=None)
def test_json_render_is_the_bytes_of_json_dumps(report):
    # emit_report renders JSON itself, to the bytes json.dumps gives with
    # its indent and a Fraction as "num/den"
    assert emit_report(report, "json") == json.dumps(
        report, indent=2, default=_ratio) + "\n"
