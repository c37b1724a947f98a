"""Exact coefficient rings: integers, rationals, and prime fields.

Ring elements are plain Python values: arbitrary-precision ``int`` for the
integers, ``fractions.Fraction`` for the rationals (auto-reduced, positive
denominator), and ``int`` residues in ``[0, p)`` for a prime field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable

from .errors import DivisibilityError, InvalidRing

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to the first 13 prime bases
# (Sorenson and Webster, Math. Comp. 86, 2017): Miller-Rabin with _MR_BASES
# is exact below it, and no base set is proven at or above it
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is a prime below _PRIME_BOUND, by deterministic
    Miller-Rabin; False at or above the bound, where no prime is proven."""
    if n < 2 or n >= _PRIME_BOUND:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingTag:
    """Which coefficient ring a value lives in: "Z", "Q", or "F" mod p.
    ZZ, QQ and GF(p) are the canonical tags, one per ring, which pickling
    keeps; equality tries identity before comparing fields."""

    kind: str
    p: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "Q", "F"):
            raise InvalidRing(f"unknown ring kind {self.kind!r}")
        if type(self.p) is not int:
            raise InvalidRing(f"modulus {self.p!r} is not an integer")
        if self.kind == "F" and self.p >= _PRIME_BOUND:
            raise InvalidRing(f"modulus {self.p} is outside the proven primality range p < {_PRIME_BOUND}")
        if self.kind == "F" and not is_prime(self.p):
            raise InvalidRing(f"modulus {self.p} is not prime")
        if self.kind != "F" and self.p != 0:
            raise InvalidRing("only prime fields carry a modulus")

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def __str__(self) -> str:
        return f"F{self.p}" if self.kind == "F" else self.kind

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not RingTag:
            return NotImplemented
        return self.kind == other.kind and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __reduce__(self):
        return parse_ring, (str(self),)


ZZ = RingTag("Z")
QQ = RingTag("Q")


@lru_cache(maxsize=None, typed=True)
def GF(p: int) -> RingTag:
    """The canonical tag of the prime field of order p."""
    return RingTag("F", p)


def canonical_int(text: str) -> int | None:
    """The integer text spells in canonical decimal form: ASCII digits with
    no leading zero, after a '-' for a negative one.  None for any other
    spelling ("+1", "01", "-0", " 1", "1_0", non-ASCII digits)."""
    try:
        n = int(text)
    except ValueError:
        return None
    return n if str(n) == text else None


def parse_ring(text: str) -> RingTag:
    """The ring a tag names: "Z", "Q", or "F" and a prime in canonical
    decimal form; InvalidRing for any other tag."""
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    p = canonical_int(text[1:]) if text.startswith("F") else None
    if p is None:
        raise InvalidRing(f"unknown ring tag {text!r}")
    return GF(p)


@dataclass(frozen=True)
class RingOps:
    """Arithmetic table for one ring."""

    tag: RingTag
    zero: Any
    one: Any
    canon: Callable[[Any], Any]
    add: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    mul: Callable[[Any, Any], Any]
    divide_exact: Callable[[Any, Any], Any]


def _canon_int(x) -> int:
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise DivisibilityError(f"{x} is not an integer")
        return int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"not an integer scalar: {x!r}")
    return x


def _div_int(a: int, b: int) -> int:
    if b == 0 or a % b != 0:
        raise DivisibilityError(f"{b} does not divide {a}")
    return a // b


def _div_frac(a: Fraction, b: Fraction) -> Fraction:
    if b == 0:
        raise DivisibilityError("division by zero")
    return a / b


@lru_cache(maxsize=None)
def ring_ops(tag: RingTag) -> RingOps:
    """The arithmetic table (canon, add, neg, mul, divide_exact) for ``tag``."""
    if tag.kind == "Z":
        return RingOps(
            tag=tag,
            zero=0,
            one=1,
            canon=_canon_int,
            add=lambda a, b: a + b,
            neg=lambda a: -a,
            mul=lambda a, b: a * b,
            divide_exact=_div_int,
        )
    if tag.kind == "Q":
        return RingOps(
            tag=tag,
            zero=Fraction(0),
            one=Fraction(1),
            canon=lambda x: Fraction(x),
            add=lambda a, b: a + b,
            neg=lambda a: -a,
            mul=lambda a, b: a * b,
            divide_exact=_div_frac,
        )
    p = tag.p

    def canon_mod(x) -> int:
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise DivisibilityError(f"{x} has no image mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"not a residue: {x!r}")
        return x % p

    def div_mod(a: int, b: int) -> int:
        if b % p == 0:
            raise DivisibilityError(f"{b} is not invertible mod {p}")
        return a * pow(b, -1, p) % p

    return RingOps(
        tag=tag,
        zero=0,
        one=1,
        canon=canon_mod,
        add=lambda a, b: (a + b) % p,
        neg=lambda a: (-a) % p,
        mul=lambda a, b: a * b % p,
        divide_exact=div_mod,
    )


def scalar_to_json(tag: RingTag, x):
    """JSON form of one scalar: ints and residues as numbers, rationals "a/b"."""
    if tag.kind == "Q":
        return str(x)
    return x


_SCALAR = re.compile(r"\s*[-+]?[0-9]+(?:[./][0-9]+)?\s*", re.ASCII)


def scalar_from_json(tag: RingTag, value):
    """Parse a scalar from JSON: accepts integers, and strings of an integer,
    a decimal fraction ("1.25") or a quotient ("a/b") with an optional sign
    and surrounding spaces. Fraction alone would also take an exponent
    ("1e100000000" builds a 10^8-digit integer) and digit separators."""
    ops = ring_ops(tag)
    if isinstance(value, str):
        if not _SCALAR.fullmatch(value):
            raise ValueError(f"not an integer, decimal or quotient string (no exponent or '_'): {value!r}")
        return ops.canon(Fraction(value))
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"bad scalar in JSON: {value!r}")
    return ops.canon(value)
