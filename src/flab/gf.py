"""Exact arithmetic in prime fields F_p and extension fields F_{p^e}.

Elements are plain Python ints in ``[0, q)`` encoding the coefficient vector
of the element in the polynomial basis, least-significant digit first
(digit i is the coefficient of x^i).  All operations are pure; field objects
are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .errors import CompositeP, DivisionByZero, FieldTooLarge, IncompatibleFields

MAX_FIELD_SIZE = 1 << 16

# mul/inv tables are precomputed below this size; above it, arithmetic is
# done on the fly (still exact, just slower)
_TABLE_LIMIT = 512


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(K, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = K.add(out[i + j], K.mul(ai, bj))
    return _poly_trim(out)


def _poly_mod(K, a: Sequence[int], mod: Sequence[int]) -> list[int]:
    # mod must be monic
    r = list(a)
    dm = len(mod) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        shift = len(r) - 1 - dm
        if lead:
            for i, mi in enumerate(mod):
                if mi:
                    r[shift + i] = K.sub(r[shift + i], K.mul(lead, mi))
        r.pop()
        _poly_trim(r)
    return r


class PrimeField:
    """F_p with elements represented as residues in [0, p)."""

    __slots__ = ("p", "e", "q", "modulus")

    def __init__(self, p: int):
        if not is_prime(p):
            raise CompositeP(f"p = {p} is not prime")
        if p > MAX_FIELD_SIZE:
            raise FieldTooLarge(f"q = {p} exceeds {MAX_FIELD_SIZE}")
        self.p = p
        self.e = 1
        self.q = p
        self.modulus: tuple[int, ...] = ()

    def elements(self) -> range:
        return range(self.p)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, k: int) -> int:
        return pow(a, k, self.p)

    def from_int(self, c: int) -> int:
        return c % self.p

    def coeffs(self, a: int) -> tuple[int, ...]:
        return (a % self.p,)

    def from_coeffs(self, cs: Sequence[int]) -> int:
        return cs[0] % self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"F_{self.p}"


class ExtensionField:
    """A degree-``degree`` extension of ``base``, as base[x]/(modulus).

    Elements are ints encoding base-``base.q`` digit vectors (low digit =
    constant coefficient).  When ``base`` is a prime field this matches the
    FieldSpec contract exactly; towers over non-prime bases carry the same
    interface and are used for the field-extension lifting argument.
    """

    __slots__ = ("base", "degree", "p", "e", "q", "modulus",
                 "_mul_table", "_inv_table")

    def __init__(self, base, degree: int, modulus: tuple[int, ...] | None = None):
        if degree < 2:
            raise FieldTooLarge("extension degree must be >= 2")
        q = base.q ** degree
        if q > MAX_FIELD_SIZE:
            raise FieldTooLarge(f"q = {q} exceeds {MAX_FIELD_SIZE}")
        self.base = base
        self.degree = degree
        self.p = base.p
        self.e = base.e * degree
        self.q = q
        if modulus is None:
            modulus = _smallest_irreducible(base, degree)
        self.modulus = tuple(modulus)
        self._mul_table = None
        self._inv_table = None
        if q <= _TABLE_LIMIT:
            self._build_tables()

    # -- digit packing ------------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        Q = self.base.q
        out = []
        for _ in range(self.degree):
            out.append(a % Q)
            a //= Q
        return tuple(out)

    def undigits(self, ds: Sequence[int]) -> int:
        Q = self.base.q
        a = 0
        for d in reversed(ds):
            a = a * Q + d
        return a

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        return self.undigits([self.base.add(x, y) for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        return self.undigits([self.base.sub(x, y) for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self.undigits([self.base.neg(x) for x in self.digits(a)])

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_slow(a, b)

    def _mul_slow(self, a: int, b: int) -> int:
        da = _poly_trim(list(self.digits(a)))
        db = _poly_trim(list(self.digits(b)))
        prod = _poly_mul(self.base, da, db)
        prod = _poly_mod(self.base, prod, self.modulus)
        prod += [0] * (self.degree - len(prod))
        return self.undigits(prod)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, k: int) -> int:
        r = 1
        base = a
        while k:
            if k & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            k >>= 1
        return r

    def from_int(self, c: int) -> int:
        return c % self.p

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Flatten to an F_p coefficient vector of length e."""
        out: list[int] = []
        for d in self.digits(a):
            out.extend(self.base.coeffs(d))
        return tuple(out)

    def from_coeffs(self, cs: Sequence[int]) -> int:
        eb = self.base.e
        ds = [self.base.from_coeffs(cs[i * eb:(i + 1) * eb])
              for i in range(self.degree)]
        return self.undigits(ds)

    def _build_tables(self) -> None:
        q = self.q
        tab = [0] * (q * q)
        for a in range(q):
            for b in range(a, q):
                v = self._mul_slow(a, b)
                tab[a * q + b] = v
                tab[b * q + a] = v
        self._mul_table = tab
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if tab[a * q + b] == 1:
                    inv[a] = b
                    break
        self._inv_table = inv

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtensionField)
                and other.base == self.base
                and other.degree == self.degree
                and other.modulus == self.modulus)

    def __hash__(self) -> int:
        return hash(("ExtensionField", self.base, self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"F_{self.q}"


def _smallest_irreducible(base, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree.

    Coefficient tuples are compared low-degree-first.  Irreducibility is
    decided by trial division against every monic polynomial of degree
    up to degree/2 (tiny search spaces at desk scale).
    """
    divisors: list[list[int]] = []
    for d in range(1, degree // 2 + 1):
        for low in itertools.product(base.elements(), repeat=d):
            divisors.append(list(low) + [1])
    for cand_low in itertools.product(base.elements(), repeat=degree):
        cand = list(cand_low) + [1]
        if all(_poly_mod(base, cand, div) for div in divisors):
            return tuple(cand_low) + (1,)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def field_build(p: int, e: int):
    """Deterministic field constructor per the FieldSpec contract."""
    if e < 1:
        raise FieldTooLarge(f"extension degree {e} < 1")
    if not is_prime(p):
        raise CompositeP(f"p = {p} is not prime")
    if p ** e > MAX_FIELD_SIZE:
        raise FieldTooLarge(f"q = {p ** e} exceeds {MAX_FIELD_SIZE}")
    if e == 1:
        return PrimeField(p)
    return ExtensionField(PrimeField(p), e)


FieldSpec = PrimeField | ExtensionField


def base_vector_iso(spec_big: ExtensionField, v: Sequence[int],
                    base=None) -> tuple[int, ...]:
    """Flatten a vector over F_{q^k} to a vector over the base field F_q.

    The map is a bijection and F_q-linear (addition is digitwise; scaling by
    a base-field element scales every digit).
    """
    if not isinstance(spec_big, ExtensionField):
        raise IncompatibleFields("big field must be an extension field")
    if base is not None and base != spec_big.base:
        raise IncompatibleFields(
            f"{base!r} is not the declared base of {spec_big!r}")
    out: list[int] = []
    for a in v:
        out.extend(spec_big.digits(a))
    return tuple(out)


def base_vector_iso_inv(spec_big: ExtensionField, w: Sequence[int],
                        base=None) -> tuple[int, ...]:
    if not isinstance(spec_big, ExtensionField):
        raise IncompatibleFields("big field must be an extension field")
    if base is not None and base != spec_big.base:
        raise IncompatibleFields(
            f"{base!r} is not the declared base of {spec_big!r}")
    k = spec_big.degree
    if len(w) % k != 0:
        raise IncompatibleFields("vector length not a multiple of the degree")
    return tuple(spec_big.undigits(w[i * k:(i + 1) * k])
                 for i in range(len(w) // k))


def serialize_field(spec) -> str:
    lines = [f"{spec.p} {spec.e}"]
    if spec.e > 1:
        if not isinstance(spec, ExtensionField) or spec.base.e != 1:
            raise IncompatibleFields("only prime-base fields serialize")
        lines.append(" ".join(str(c) for c in spec.modulus))
    return "\n".join(lines) + "\n"


def parse_field(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    p, e = (int(t) for t in lines[0].split())
    spec = field_build(p, e)
    if e > 1:
        given = tuple(int(t) for t in lines[1].split())
        if given != spec.modulus:
            raise IncompatibleFields("modulus does not match the canonical one")
    return spec
