"""Monomial orders: grevlex, lex, weight refinements, block elimination.

All comparisons use the min convention for weights: among monomials of a
fixed degree the leading one has the *smallest* inner product with the
weight vector, ties broken by the base order.  ``key`` returns a flat
tuple of integers where a bigger key means closer to leading;
``linear_key`` folds it into one integer vector for the Groebner engine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import mul, neg


def grevlex_key(exps):
    return (sum(exps), *map(neg, reversed(exps)))


def lex_key(exps):
    return tuple(exps)


def integer_weight(w):
    """``(iw, scale)``: ``w`` scaled by the lcm of its denominators.

    ``iw[i] == w[i] * scale`` are integers, so integer dot products with
    ``iw`` order monomials as the exact values do, and the exact value of
    a dot product ``s`` is ``Fraction(s, scale)``.
    """
    w = [x if isinstance(x, Fraction) else Fraction(x) for x in w]
    scale = lcm(*(x.denominator for x in w))
    return tuple(x.numerator * (scale // x.denominator) for x in w), scale


class MonomialOrder:
    """A total order on monomials of each degree, identified by a descriptor.

    Kinds: ``grevlex``, ``lex``, ``weight`` (weight-refined, min convention)
    and ``elim`` (block order eliminating a variable subset).  Only the
    degree-compatible kinds (grevlex, lex, elim over a global base) are
    well-orders on all monomials; weight refinements are total only within
    a fixed degree, which suffices for homogeneous computation.
    """

    __slots__ = ("kind", "weight", "tiebreak", "block", "_desc", "iweight")

    def __init__(self, kind, weight=None, tiebreak=None, block=None):
        self.kind = kind
        self.weight = tuple(Fraction(x) for x in weight) if weight is not None else None
        # integer sums in ``key``, and the same order (see integer_weight)
        self.iweight = (integer_weight(self.weight)[0]
                        if self.weight is not None else None)
        self.tiebreak = tiebreak
        self.block = frozenset(block) if block is not None else None
        self._desc = None

    @classmethod
    def grevlex(cls):
        return cls("grevlex")

    @classmethod
    def lex(cls):
        return cls("lex")

    @classmethod
    def weighted(cls, w, tiebreak=None):
        return cls("weight", weight=w, tiebreak=tiebreak or cls.grevlex())

    @classmethod
    def elimination(cls, block, tiebreak=None):
        """Block order ranking monomials by total degree in ``block`` first."""
        return cls("elim", block=block, tiebreak=tiebreak or cls.grevlex())

    def key(self, exps):
        if self.kind == "grevlex":
            return grevlex_key(exps)
        if self.kind == "lex":
            return lex_key(exps)
        if self.kind == "weight":
            return (-sum(map(mul, self.iweight, exps)),) + self.tiebreak.key(exps)
        if self.kind == "elim":
            bd = sum(exps[i] for i in self.block)
            return (bd,) + self.tiebreak.key(exps)
        raise ValueError(f"unknown order kind {self.kind!r}")

    def linear_key(self, n, bits):
        """Integer vector ``v`` of length ``n``: ``v . a < v . b`` exactly
        when ``key(a) < key(b)``, for exponents below ``2**bits``.

        Every ``key`` is a tuple of linear forms compared left to right.
        Within the bound each form after the first varies by less than a
        known span, so the forms fold into one mixed-radix sum.
        """
        if self.kind == "lex":
            return tuple(1 << (bits * (n - 1 - i)) for i in range(n))
        if self.kind == "grevlex":
            top = 1 << (bits * n)
            return tuple(top - (1 << (bits * i)) for i in range(n))
        inner = self.tiebreak.linear_key(n, bits)
        if self.kind == "weight":
            outer = tuple(map(neg, self.iweight[:n]))
        elif self.kind == "elim":
            outer = tuple(int(i in self.block) for i in range(n))
        else:
            raise ValueError(f"unknown order kind {self.kind!r}")
        span = ((1 << bits) - 1) * sum(map(abs, inner)) + 1
        return tuple(o * span + v for o, v in zip_longest(outer, inner, fillvalue=0))

    def compare(self, a, b) -> int:
        """-1, 0, or 1 as ``a`` is below, equal to, or above ``b``."""
        if len(a) != len(b):
            raise ValueError("monomials from rings of different sizes")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def descriptor(self) -> str:
        if self._desc is None:
            if self.kind in ("grevlex", "lex"):
                self._desc = self.kind
            elif self.kind == "weight":
                ws = ",".join(str(w) for w in self.weight)
                self._desc = f"weight({ws});{self.tiebreak.descriptor()}"
            else:
                bs = ",".join(str(i + 1) for i in sorted(self.block))
                self._desc = f"elim({bs});{self.tiebreak.descriptor()}"
        return self._desc

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return f"MonomialOrder({self.descriptor()})"


GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()
