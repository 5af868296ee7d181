"""Normative text formats for CLI round-trips.

Point sets: header ``p e n``, optional modulus line when e > 1, then one
point per line with each coordinate written as e space-separated base-p
digits (low digit first) and coordinates separated by ``|``.  Distributions
append one extra ``|``-separated field holding the integer weight.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Callable, Iterable, Sequence

from .errors import FlabError
from .geometry import DIGIT_CAP, Flat, PointSet, Subspace
from .gf import field_build


def _coord_strs(F) -> Callable[[int], str]:
    """Each coordinate's string, its base-p digits low digit first, joined
    from tables of the low e // 2 and the high digits (sqrt(q) strings)."""
    if F.e == 1:    # a prime-field coordinate is its own digit
        return str
    digits = [str(d) for d in range(F.p)]
    h = F.e // 2
    low, high = ([" ".join(reversed(t)) for t in product(digits, repeat=r)]
                 for r in (h, F.e - h))
    base = F.p ** h
    return lambda a: f"{low[a % base]} {high[a // base]}"


def _digits_past_cap(tok: str) -> int:
    """The digits of tok's longest number if they are more than DIGIT_CAP,
    else 0.  A number is a run of decimal digits, its underscores not
    counted, as int() and Fraction() count them: a caller refuses a long
    one before they read it, so Python's own limit (PYTHONINTMAXSTRDIGITS)
    never decides.  A token of at most DIGIT_CAP characters is let through
    on its length."""
    if len(tok) <= DIGIT_CAP:
        return 0
    longest = max(len(r) - r.count("_") for r in re.split(r"[^\d_]+", tok))
    return longest if longest > DIGIT_CAP else 0


def _int(tok: str) -> int:
    digits = _digits_past_cap(tok)
    if digits:
        raise FlabError(f"expected an integer of at most {DIGIT_CAP} digits, "
                        f"got {digits} digits")
    try:
        return int(tok)
    except ValueError:
        raise FlabError(f"expected an integer, got {tok!r}") from None


def _coord_parse(F, tok: str) -> int:
    """The element whose e base-p digits, low digit first, tok spells: the
    encoding gf defines and _coord_strs prints, read high digit first."""
    digits = [_int(t) for t in tok.split()]
    p, a = F.p, 0
    for d in reversed(digits):
        if not 0 <= d < p:
            break
        a = a * p + d
    else:       # every digit in range
        if len(digits) == F.e:
            return a
    raise FlabError(f"expected {F.e} digits in [0, {p}), got {tok!r}")


def _point_str(coord: Callable[[int], str], p: Sequence[int]) -> str:
    return " | ".join(map(coord, p))


def _point_parse(F, line: str) -> tuple[int, ...]:
    return tuple(_coord_parse(F, tok) for tok in line.split("|"))


def _file(F, n: int, body: Iterable[str]) -> str:
    """The 'p e n' header, the modulus line when e > 1, then the body."""
    lines = [f"{F.p} {F.e} {n}"]
    if F.e > 1:
        lines.append(" ".join(str(c) for c in F.modulus))
    return "\n".join([*lines, *body]) + "\n"


def _parse_header(text: str):
    """Field, dimension and body lines of a file that opens with a 'p e n'
    header, and a modulus line when e > 1; blank lines are dropped."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FlabError("empty file: expected a 'p e n' header")
    toks = lines[0].split()
    if len(toks) != 3:
        raise FlabError(f"expected a 'p e n' header: {lines[0]!r}")
    p, e, n = (_int(t) for t in toks)
    if n < 1:
        raise FlabError(f"dimension n = {n} < 1")
    F = field_build(p, e)
    body = 1
    if e > 1:
        if len(lines) < 2:
            raise FlabError("missing the modulus line")
        given = tuple(_int(t) for t in lines[1].split())
        if given != F.modulus:
            raise FlabError("modulus differs from the canonical one")
        body = 2
    return F, n, lines[body:]


def serialize_pointset(S: PointSet) -> str:
    coord = _coord_strs(S.field)
    return _file(S.field, S.n, (_point_str(coord, p) for p in S.sorted()))


def parse_pointset(text: str) -> PointSet:
    F, n, body = _parse_header(text)
    pts = [_point_parse(F, ln) for ln in body]
    if len(set(pts)) != len(pts):
        raise FlabError("duplicate point")
    return PointSet.of(F, n, pts)


def serialize_targets(F, n: int, weights) -> str:
    """A point-plus-weight file, the format of multiplicity targets and of
    distributions: point format plus a trailing integer."""
    coord = _coord_strs(F)
    return _file(F, n, (f"{_point_str(coord, p)} | {weights[p]}"
                        for p in sorted(weights)))


def serialize_distribution(dist: RationalDistribution) -> str:
    return serialize_targets(dist.field, dist.n, dist.weights)


def parse_targets(text: str):
    """Field, dimension and {point: integer} of a point-plus-weight file."""
    F, n, body = _parse_header(text)
    weights = {}
    for ln in body:
        toks = ln.split("|")
        if len(toks) != n + 1:
            raise FlabError(f"expected {n} coords + weight: {ln!r}")
        x = tuple(_coord_parse(F, t) for t in toks[:n])
        if x in weights:
            raise FlabError(f"duplicate point: {ln!r}")
        weights[x] = _int(toks[n])
    return F, n, weights


def parse_distribution(text: str) -> RationalDistribution:
    from .entropy import RationalDistribution
    return RationalDistribution.of(*parse_targets(text))


def serialize_polynomial(P: Polynomial) -> str:
    """One term per line: ``coeff : e1 e2 ... en`` in graded lex order."""
    coord = _coord_strs(P.field)
    lines = []
    for e in sorted(P.terms, key=lambda t: (sum(t), t)):
        lines.append(f"{coord(P.terms[e])} : "
                     + " ".join(str(x) for x in e))
    return "\n".join(lines) + "\n"


def parse_polynomial(F, n: int, text: str) -> Polynomial:
    from .polymethod import Polynomial
    if n < 1:
        raise FlabError(f"dimension n = {n} < 1")
    terms = {}
    for ln in filter(str.strip, text.splitlines()):
        try:
            coeff_s, expo_s = ln.split(":")
        except ValueError:
            raise FlabError(f"bad term line {ln!r}")
        expo = tuple(_int(t) for t in expo_s.split())
        if len(expo) != n or min(expo, default=0) < 0:
            raise FlabError(f"expected {n} exponents >= 0: {ln!r}")
        if expo in terms:
            raise FlabError(f"duplicate monomial: {ln!r}")
        terms[expo] = _coord_parse(F, coeff_s.strip())
    return Polynomial.make(F, n, terms)


def serialize_flat(F, flat: Flat, coord=None) -> str:
    """One flat; callers that print many pass coord = _coord_strs(F)."""
    coord = coord or _coord_strs(F)
    rows = " , ".join(_point_str(coord, r) for r in flat.direction.basis)
    return f"{rows} ; {_point_str(coord, flat.shift)}"


def parse_flat(F, n: int, line: str) -> Flat:
    try:
        rows_s, shift_s = line.split(";")
    except ValueError:
        raise FlabError(f"expected 'rows ; shift': {line!r}") from None
    rows = [_point_parse(F, r) for r in rows_s.split(",")] \
        if rows_s.strip() else []
    shift = _point_parse(F, shift_s)
    if any(len(v) != n for v in (*rows, shift)):
        raise FlabError(f"expected {n} coordinates per row and shift: "
                        f"{line!r}")
    return Flat.through(F, Subspace.from_vectors(F, n, rows), shift)


def serialize_flat_family(fam) -> str:
    coord = _coord_strs(fam.field)
    return _file(fam.field, fam.n,
                 (serialize_flat(fam.field, f, coord) for f in fam.flats))


def parse_flat_family(text: str):
    from .incidence import FlatFamily
    F, n, body = _parse_header(text)
    return FlatFamily.of(F, n, [parse_flat(F, n, ln) for ln in body])
