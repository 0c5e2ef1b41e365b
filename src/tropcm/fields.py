"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are either ``fractions.Fraction`` (always in lowest terms with a
positive denominator) or :class:`GFElement` carrying its modulus.  A field
object coerces ints and fractions into its scalars and is attached to every
ring; mixing scalars from different prime fields raises :class:`FieldError`.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Raised for bad moduli, coercion failures, or mixed-field arithmetic."""


def _ascii(text, what):
    """``text``, refused unless ASCII: int() and Fraction() also read digits
    such as '١', which no number read from outside may hold."""
    if not text.isascii():
        raise FieldError(f"bad {what} {text!r}: digits must be ASCII")
    return text


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _BASES (Sorenson and Webster, 2015)
_PSEUDOPRIME = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Miller-Rabin to the prime bases up to 41, exact below _PSEUDOPRIME
    (about 3.3 * 10^24); a larger p raises FieldError."""
    if p >= _PSEUDOPRIME:
        raise FieldError(f"modulus {p} is beyond the exact primality test")
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class GFElement:
    """An element of F_p.  Arithmetic partners must share the modulus."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _check(self, other: "GFElement") -> None:
        if self.p != other.p:
            raise FieldError(f"mixed prime-field moduli {self.p} and {other.p}")

    def __add__(self, other):
        if isinstance(other, GFElement):
            self._check(other)
            return GFElement(self.val + other.val, self.p)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, GFElement):
            self._check(other)
            return GFElement(self.val - other.val, self.p)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return GFElement(other - self.val, self.p)
        return NotImplemented

    def __neg__(self):
        return GFElement(-self.val, self.p)

    def __mul__(self, other):
        if isinstance(other, GFElement):
            self._check(other)
            return GFElement(self.val * other.val, self.p)
        if isinstance(other, int):
            return GFElement(self.val * other, self.p)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, GFElement):
            self._check(other)
            if other.val == 0:
                raise ZeroDivisionError("division by zero in F_p")
            return GFElement(self.val * pow(other.val, -1, self.p), self.p)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return str(self.val)


class Rationals:
    """The field Q.  A single shared instance is exported as ``QQ``."""

    name = "Q"
    char = 0
    _zero, _one = Fraction(0), Fraction(1)

    def zero(self) -> Fraction:
        return self._zero

    def one(self) -> Fraction:
        return self._one

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """The field F_p for a prime modulus p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"
        self.char = p

    def zero(self) -> GFElement:
        return GFElement(0, self.p)

    def one(self) -> GFElement:
        return GFElement(1, self.p)

    def coerce(self, x) -> GFElement:
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise FieldError(f"mixed prime-field moduli {x.p} and {self.p}")
            return x
        if isinstance(x, int):
            return GFElement(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldError(f"denominator of {x} vanishes mod {self.p}")
            return GFElement(x.numerator, self.p) / GFElement(x.denominator, self.p)
        raise FieldError(f"cannot coerce {x!r} into F_{self.p}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()


def field_from_name(name: str):
    """Parse a field descriptor: ``Q`` or ``Fp:<p>``."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("Fp:") and name[3:].strip().isdecimal():
        return PrimeField(int(_ascii(name, "field descriptor")[3:]))
    raise FieldError(f"unknown field descriptor {name!r}")
