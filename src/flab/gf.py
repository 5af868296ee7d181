"""Exact arithmetic in prime fields F_p and extension fields F_{p^e}.

Elements are plain Python ints in ``[0, q)`` encoding the coefficient vector
of the element in the polynomial basis, least-significant digit first
(digit i is the coefficient of x^i).  All operations are pure; field objects
are immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .errors import FlabError

MAX_FIELD_SIZE = 1 << 16

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
            raise FlabError(f"p = {p} is not prime")
        if p > MAX_FIELD_SIZE:
            raise FlabError(f"q = {p} exceeds {MAX_FIELD_SIZE}")
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
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, k: int) -> int:
        return pow(a, k, self.p)

    def from_int(self, c: int) -> int:
        return c % self.p

    def coeffs(self, a: int) -> tuple[int, ...]:
        return (a % self.p,)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"F_{self.p}"


class ExtensionField:
    """A degree-``degree`` extension of ``base``, as base[x]/(modulus).

    Elements are ints encoding base-``base.q`` digit vectors (low digit =
    constant coefficient).  When ``base`` is a prime field this is the
    module's encoding exactly; towers over non-prime bases carry the same
    interface and are used for the field-extension lifting argument.

    Arithmetic runs on log/antilog tables over a primitive element g, built
    once at construction: ``_log[a]`` is the discrete log of a != 0 and
    ``_exp[i]`` is g^i for 0 <= i < 2(q-1), so the sum of two logs needs no
    reduction.  ``_log[0]`` is ``2(q-1)`` and ``_exp`` is zero from there on,
    so a product with a zero factor reads a zero without a branch.  Addition
    is XOR of the encodings when p = 2; otherwise it goes through the Zech
    table ``_zech[i] = log(1 + g^i)`` (periodic over two periods, and
    ``2(q-1)`` where 1 + g^i = 0).
    """

    __slots__ = ("base", "degree", "p", "e", "q", "modulus",
                 "_exp", "_log", "_zech", "_half")

    def __init__(self, base, degree: int, modulus: tuple[int, ...] | None = None):
        if degree < 2:
            raise FlabError("extension degree must be >= 2")
        q = base.q ** degree
        if q > MAX_FIELD_SIZE:
            raise FlabError(f"q = {q} exceeds {MAX_FIELD_SIZE}")
        self.base = base
        self.degree = degree
        self.p = base.p
        self.e = base.e * degree
        self.q = q
        if modulus is None:
            modulus = _smallest_irreducible(base, degree)
        self.modulus = tuple(modulus)
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
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not b:
            return a
        log = self._log
        if not a:
            return self._exp[log[b] + self._half]
        la = log[a]
        return self._exp[la + self._zech[log[b] + self._half - la]]

    def neg(self, a: int) -> int:
        # -1 = g^half, with half = (q-1)/2 for odd p and 0 for p = 2
        return self._exp[self._log[a] + self._half]

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            return 1 if k == 0 else 0
        return self._exp[self._log[a] * k % (self.q - 1)]

    def _mul_slow(self, a: int, b: int) -> int:
        da = _poly_trim(list(self.digits(a)))
        db = _poly_trim(list(self.digits(b)))
        prod = _poly_mul(self.base, da, db)
        prod = _poly_mod(self.base, prod, self.modulus)
        prod += [0] * (self.degree - len(prod))
        return self.undigits(prod)

    def from_int(self, c: int) -> int:
        return c % self.p

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Flatten to an F_p coefficient vector of length e."""
        out: list[int] = []
        for d in self.digits(a):
            out.extend(self.base.coeffs(d))
        return tuple(out)

    # -- table construction -------------------------------------------------

    def _power(self, a: int, k: int) -> list[int]:
        """The digits of a^k, k >= 1, by powering a's digit list modulo the
        modulus: no tables needed."""
        return _poly_powmod(self.base, _poly_trim(list(self.digits(a))), k,
                            self.modulus)

    def _is_primitive(self, g: int, primes: Sequence[int]) -> bool:
        """g has order q - 1 (so the modulus is irreducible, too): g^(q-1)
        is 1 and g^((q-1)/r) is not, for every prime r dividing q - 1."""
        n = self.q - 1
        return (self._power(g, n) == [1]
                and all(self._power(g, n // r) != [1] for r in primes))

    def _times_x(self):
        """a -> a * x on encodings: shift the digits up one place and fold
        the top digit back in through the monic modulus."""
        base, Q = self.base, self.base.q
        top_w = Q ** (self.degree - 1)
        low = [(Q ** i, base.neg(m))
               for i, m in enumerate(self.modulus[:-1]) if m]

        def times_x(a: int) -> int:
            top, rest = divmod(a, top_w)
            b = rest * Q
            if top:
                for w, m in low:
                    d = b // w % Q
                    b += (base.add(d, base.mul(top, m)) - d) * w
            return b
        return times_x

    def _build_tables(self) -> None:
        """Log/antilog and Zech tables over the first primitive element g.

        Multiplying by x is cheap but x need not be primitive.  Its powers
        form the subgroup of order d = ord(x), the only one of that order,
        so g^k = x^t for k = (q-1)/d and some t prime to d; hence x = g^L
        with L = k t^-1 mod d, and g^j x^i = g^(j + iL).  The table fills
        with one x-step per element and one slow product per j < k.
        """
        q = self.q
        n = q - 1
        primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        g = next((g for g in range(self.base.q, q)
                  if self._is_primitive(g, primes)), None)
        if g is None:
            raise FlabError(f"modulus {self.modulus} is not irreducible")
        times_x = self._times_x()
        xs = [1]
        while len(xs) < n and (a := times_x(xs[-1])) != 1:
            xs.append(a)
        d = len(xs)
        k = n // d
        t = xs.index(self.undigits(self._power(g, k)))
        L = k * pow(t, -1, d)
        cycle = [0] * n
        s = 1
        for j in range(k):
            a, i = s, j
            for _ in range(d):
                cycle[i] = a
                a = times_x(a)
                i = (i + L) % n
            s = self._mul_slow(s, g)
        log = [0] * q
        for i, a in enumerate(cycle):
            log[a] = i
        log[0] = 2 * n
        self._exp = tuple(cycle + cycle + [0] * (2 * n + 1))
        self._log = tuple(log)
        if self.p == 2:
            self._half = 0
            self._zech = None
            return
        self._half = n // 2
        Q = self.base.q
        zech = [0] * n
        for i, a in enumerate(cycle):
            # 1 + a changes only digit 0 of a; log[0] is the zero sentinel
            d0 = a % Q
            zech[i] = log[a - d0 + self.base.add(d0, 1)]
        self._zech = tuple(zech + zech)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtensionField)
                and other.base == self.base
                and other.degree == self.degree
                and other.modulus == self.modulus)

    def __hash__(self) -> int:
        return hash(("ExtensionField", self.base, self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"F_{self.q}"


def _poly_powmod(K, a: list[int], k: int, mod: Sequence[int]) -> list[int]:
    """a^k modulo the monic mod, for k >= 1 and a reduced: left-to-right
    binary powering."""
    r = a
    for bit in bin(k)[3:]:
        r = _poly_mod(K, _poly_mul(K, r, r), mod)
        if bit == "1":
            r = _poly_mod(K, _poly_mul(K, r, a), mod)
    return r


def _coprime(K, a: Sequence[int], b: Sequence[int]) -> bool:
    """gcd(a, b) is a nonzero constant (Euclid, a nonzero)."""
    a, b = list(a), _poly_trim(list(b))
    while b:
        inv = K.inv(b[-1])
        a, b = b, _poly_mod(K, a, [K.mul(inv, c) for c in b])
    return len(a) == 1


def _is_irreducible(K, f: Sequence[int]) -> bool:
    """Rabin's test ("Probabilistic algorithms in finite fields", 1980):
    monic f of degree e over F_Q is irreducible iff x^(Q^e) = x mod f and
    gcd(x^(Q^(e/r)) - x, f) = 1 for every prime r dividing e."""
    e = len(f) - 1
    x = _poly_mod(K, [0, 1], f)
    frob = [x]                  # frob[k] = x^(Q^k) mod f
    for _ in range(e):
        frob.append(_poly_powmod(K, frob[-1], K.q, f))
    if frob[e] != x:
        return False
    return all(_coprime(K, f, [K.sub(u, v) for u, v in
                               itertools.zip_longest(frob[e // r], x,
                                                     fillvalue=0)])
               for r in range(2, e + 1) if e % r == 0 and is_prime(r))


def _smallest_irreducible(base, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree.

    Coefficient tuples are compared low-degree-first.  A zero constant term
    means the factor x; every other candidate goes through Rabin's test.
    """
    for cand_low in itertools.product(base.elements(), repeat=degree):
        if cand_low[0] and _is_irreducible(base, list(cand_low) + [1]):
            return tuple(cand_low) + (1,)
    raise AssertionError("no irreducible polynomial found")  # unreachable


@functools.cache
def field_build(p: int, e: int):
    """Deterministic F_p, or F_p[x] modulo the least monic irreducible.

    Built once per (p, e) in a process and shared: a field's tables are
    tuples, so no caller can change what the next one reads.  The keys
    that build are finite, q <= MAX_FIELD_SIZE; a refusal is not kept."""
    if e < 1:
        raise FlabError(f"extension degree {e} < 1")
    # size checks first: trial division of a huge p, or p ** e for a huge
    # e, would not finish
    if p > MAX_FIELD_SIZE or e >= MAX_FIELD_SIZE.bit_length():
        raise FlabError(f"q = {p}^{e} exceeds {MAX_FIELD_SIZE}")
    if not is_prime(p):
        raise FlabError(f"p = {p} is not prime")
    if p ** e > MAX_FIELD_SIZE:
        raise FlabError(f"q = {p ** e} exceeds {MAX_FIELD_SIZE}")
    if e == 1:
        return PrimeField(p)
    return ExtensionField(PrimeField(p), e)


def base_vector_iso(spec_big: ExtensionField,
                    v: Sequence[int]) -> tuple[int, ...]:
    """Flatten a vector over F_{q^k} to a vector over the base field F_q.

    The map is a bijection and F_q-linear (addition is digitwise; scaling by
    a base-field element scales every digit).
    """
    if not isinstance(spec_big, ExtensionField):
        raise FlabError("big field must be an extension field")
    out: list[int] = []
    for a in v:
        out.extend(spec_big.digits(a))
    return tuple(out)
