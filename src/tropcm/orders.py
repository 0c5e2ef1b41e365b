"""Monomial orders: grevlex, lex and grevlex-refined weights.

All comparisons use the min convention for weights: among monomials of a
fixed degree the leading one has the *smallest* inner product with the
weight vector, ties broken by grevlex.  So the weight -1 on the variables
of A and 0 elsewhere is the order that eliminates them.  ``key`` returns a
flat tuple of integers where a bigger key means closer to leading;
``linear_key`` folds it into one integer vector for the Groebner engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul, neg


def grevlex_key(exps):
    return (sum(exps), *map(neg, reversed(exps)))


def integer_weight(w):
    """``(iw, scale)``: rationals ``w`` scaled by the lcm of their denominators.

    ``iw[i] == w[i] * scale`` are integers, so integer dot products with
    ``iw`` order monomials as the exact values do, and the exact value of
    a dot product ``s`` is ``Fraction(s, scale)``.
    """
    w = [x if isinstance(x, (Fraction, int)) else Fraction(x) for x in w]
    # lists: a tuple made from a generator is resized, then kept on a free list
    scale = lcm(*[x.denominator for x in w])
    return tuple([x.numerator * (scale // x.denominator) for x in w]), scale


class MonomialOrder:
    """A total order on monomials of each degree, identified by a descriptor.

    Kinds: ``grevlex``, ``lex`` and ``weight`` (min convention, ties broken
    by grevlex).  Grevlex and lex are well-orders on all monomials; a
    weight order is total only within a fixed degree, which suffices for
    homogeneous computation.
    """

    __slots__ = ("kind", "weight", "iweight", "_desc")

    def __init__(self, kind, weight=None):
        self.kind = self._desc = kind
        self.weight = self.iweight = None
        if kind == "weight":
            self.weight = tuple(Fraction(x) for x in weight)
            # integer sums in ``key``, and the same order (see integer_weight)
            self.iweight = integer_weight(self.weight)[0]
            self._desc = f"weight({','.join(map(str, self.weight))});grevlex"

    @classmethod
    def weighted(cls, w):
        """The weight order of ``w``: one shared object per weight."""
        w = tuple(w)
        if w not in _WEIGHTED:
            _WEIGHTED[w] = cls("weight", w)
        return _WEIGHTED[w]

    def key(self, exps):
        if self.kind == "grevlex":
            return grevlex_key(exps)
        if self.kind == "lex":
            return tuple(exps)
        return (-sum(map(mul, self.iweight, exps)), *grevlex_key(exps))

    def linear_key(self, n, bits):
        """Integer vector ``v`` of length ``n``: ``v . a < v . b`` exactly
        when ``key(a) < key(b)``, for exponents below ``2**bits``.

        Every ``key`` is a tuple of linear forms compared left to right.
        Within the bound the grevlex forms of a weight key vary by less
        than a known span, so they fold under the weight into one
        mixed-radix sum.
        """
        if self.kind == "lex":
            return tuple(1 << (bits * (n - 1 - i)) for i in range(n))
        top = 1 << (bits * n)
        grevlex = tuple(top - (1 << (bits * i)) for i in range(n))
        if self.kind == "grevlex":
            return grevlex
        span = ((1 << bits) - 1) * sum(grevlex) + 1
        return tuple(v - w * span for w, v in zip(self.iweight, grevlex))

    def descriptor(self) -> str:
        return self._desc

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self._desc == other._desc

    def __hash__(self):
        return hash(self._desc)


_WEIGHTED = {}
GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
