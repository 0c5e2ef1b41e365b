"""Quasivaluations on k[x]/I, given by I: weight, adic, degree, and sums.

Weight quasivaluations are evaluated through normal forms: the value of f
is the minimal weight over the monomials of its remainder against the
reduced basis under the w-refined order.  This is exactly evaluation in
the adapted standard-monomial basis, so it realizes the defining
maximum-over-preimages without optimization.  INFINITY is the value of
the kernel (elements of the ideal) and nothing else.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .groebner import (Ideal, buchberger_reduced, ideal_membership,
                       initial_ideal, normal_form)
from .orders import GREVLEX, MonomialOrder, integer_weight
from .polynomials import mono_divides, monomials_of_degree


class ConeShareError(ValueError):
    """The inputs of a sum do not share a Groebner cone; refusing to combine."""


class _Infinity:
    """Distinguished top value; min/plus conventions."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("tropcm-infinity")

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def _power_generators(ring, A, r):
    """Monomial generators of <x_i : i in A>^r."""
    A = sorted(A)
    if not A or r == 0:
        return []
    gens = []
    for m in monomials_of_degree(len(A), r):
        exps = [0] * ring.nvars
        for pos, e in zip(A, m):
            exps[pos] = e
        gens.append(ring.monomial(tuple(exps)))
    return gens


def adic_order(A, f, ideal):
    """Largest r with f in <x_i : i in A>^r + I; INFINITY on the kernel.

    Bounded linear search downward from deg(f): the ideal is generated in
    degree one, so the order of a degree-m element never exceeds m.
    """
    if f.is_zero():
        return INFINITY
    if not f.is_homogeneous():
        raise ValueError("adic order is defined degreewise; split f first")
    if ideal_membership(f, ideal):
        return INFINITY
    ring = f.ring
    A = sorted(set(A))
    m = f.degree()
    for r in range(m, 0, -1):
        K = Ideal(ring, _power_generators(ring, A, r) + list(ideal.generators))
        if ideal_membership(f, K):
            return r
    return 0


def standard_basis_slice(ideal, order, degree):
    """Degree-d monomials outside the leading-term ideal, grevlex-descending."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    gb = buchberger_reduced(ideal, order)
    lms = gb.leading_monomials()
    return [m for m in monomials_of_degree(ideal.ring.nvars, degree)
            if not any(mono_divides(l, m) for l in lms)]


class Quasivaluation:
    """Evaluable quasivaluation on k[x]/I, given by the ideal I.

    Weight, degree and sum kinds carry a weight ``w`` and evaluate through
    normal forms; adic and scaled kinds do not.  Immutable after
    construction.
    """

    __slots__ = ("kind", "ideal", "w", "subset", "factor", "inner", "parts",
                 "_order", "_iw", "_scale")

    def __init__(self, kind, ideal, w=None, subset=None, factor=None,
                 inner=None, parts=None):
        self.kind = kind
        self.ideal = ideal
        self.w = tuple(Fraction(x) for x in w) if w is not None else None
        if w is not None:
            # built once for every evaluation; the degree reads grevlex
            # normal forms, which the all-ones refinement has too
            self._order = (GREVLEX if kind == "degree"
                           else MonomialOrder.weighted(self.w))
            self._iw, self._scale = integer_weight(self.w)
        self.subset = frozenset(subset) if subset is not None else None
        self.factor = Fraction(factor) if factor is not None else None
        self.inner = inner
        self.parts = tuple(parts) if parts is not None else None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def weight(cls, ideal, w):
        if len(w) != ideal.ring.nvars:
            raise ValueError("weight vector length mismatch")
        return cls("weight", ideal, w=w)

    @classmethod
    def adic(cls, ideal, A):
        return cls("adic", ideal, subset=A)

    @classmethod
    def degree(cls, ideal):
        return cls("degree", ideal, w=(1,) * ideal.ring.nvars)

    # -- evaluation --------------------------------------------------------------

    def effective_weight(self):
        """The weight vector this quasivaluation evaluates through, if any."""
        if self.kind != "scaled":
            return self.w
        inner = self.inner.effective_weight()
        if inner is None:
            return None
        return tuple(self.factor * x for x in inner)

    def evaluate(self, f):
        if f.ring != self.ideal.ring:
            raise ValueError("element from a different ring")
        if self.w is not None:
            return self._evaluate_weight(f)
        if self.kind == "adic":
            if f.is_zero():
                return INFINITY
            vals = [adic_order(self.subset, comp, self.ideal)
                    for comp in f.homogeneous_components().values()]
            lo = min(vals)
            return lo if lo is INFINITY else Fraction(lo)
        if self.kind == "scaled":
            val = self.inner.evaluate(f)
            if val is INFINITY:
                return INFINITY
            return self.factor * val
        raise ValueError(f"unknown quasivaluation kind {self.kind!r}")

    def _evaluate_weight(self, f):
        """min <w, alpha> over the normal form's support, one Fraction."""
        gb = buchberger_reduced(self.ideal, self._order)
        nf = normal_form(f, gb)
        if nf.is_zero():
            return INFINITY
        iw = self._iw
        return Fraction(min(sum(map(mul, iw, m)) for m in nf.terms),
                        self._scale)

    # -- bookkeeping ---------------------------------------------------------------

    def descriptor(self):
        if self.kind == "weight":
            return "v_w(" + ",".join(str(x) for x in self.w) + ")"
        if self.kind == "degree":
            return "deg"
        if self.kind == "adic":
            inside = ",".join(str(i + 1) for i in sorted(self.subset))
            return f"ord_{{{inside}}}"
        if self.kind == "scaled":
            return f"{self.factor} (.) {self.inner.descriptor()}"
        if self.kind == "oplus":
            return " (+) ".join(p.descriptor() for p in self.parts)
        return self.kind

    def __repr__(self):
        return f"Quasivaluation({self.descriptor()})"


def scale(c, v: Quasivaluation) -> Quasivaluation:
    """c (.) v, scaling every value; c must be non-negative."""
    try:
        c = Fraction(c)
    except ZeroDivisionError:
        raise ValueError(f"scaling factor {c} has a zero denominator") from None
    if c < 0:
        raise ValueError("scaling factor must be non-negative")
    return Quasivaluation("scaled", v.ideal, factor=c, inner=v)


def oplus_in_cone(vs) -> Quasivaluation:
    """Sum of weight quasivaluations sharing one Groebner cone.

    The shared-cone hypothesis is verified against the order refined by
    the total weight: every summand's initial ideal must have the same
    leading-term ideal there as the ideal itself.  Without the hypothesis
    the sum is refused (it is not associative in general).
    """
    vs = list(vs)
    if not vs:
        raise ValueError("empty sum")
    ideal = vs[0].ideal
    weights = []
    for v in vs:
        if v.ideal is not ideal and (
                v.ideal.ring != ideal.ring
                or buchberger_reduced(v.ideal, GREVLEX).basis
                != buchberger_reduced(ideal, GREVLEX).basis):
            raise ValueError("summands live on different algebras")
        u = v.effective_weight()
        if u is None:
            raise ConeShareError(
                f"{v.descriptor()} is not a weight-type quasivaluation")
        weights.append(u)
    total = tuple(sum(col) for col in zip(*weights))
    order = MonomialOrder.weighted(total)
    base_lt = sorted(buchberger_reduced(ideal, order).leading_monomials())
    for v, u in zip(vs, weights):
        inu = initial_ideal(u, ideal)
        if sorted(buchberger_reduced(inu, order).leading_monomials()) != base_lt:
            raise ConeShareError(
                f"{v.descriptor()} does not share the Groebner cone of the sum")
    return Quasivaluation("oplus", ideal, w=total, parts=vs)
