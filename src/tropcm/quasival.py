"""Quasivaluations on k[x]/I, given by I: weight-type and adic.

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

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

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
    """Largest r with f in K_r = <x_i : i in A>^r + I; INFINITY on the kernel.

    Linear search upward from the least A-degree of a term of f, where f
    lies in K_r already.  In degree m = deg(f), K_(m+1) is I, so f in K_m is
    in the kernel exactly when it is in I.  The ideal keeps its K_r.
    """
    if f.is_zero():
        return INFINITY
    if not f.is_homogeneous():
        raise ValueError("adic order is defined degreewise; split f first")
    ring = f.ring
    A = tuple(sorted(set(A)))
    m = f.degree()
    for r in range(min(sum(t[i] for i in A) for t in f.terms) + 1, m + 1):
        truncation = ideal.memo(("trunc", A, r), lambda: Ideal(
            ring, _power_generators(ring, A, r) + list(ideal.generators)))
        if not ideal_membership(f, truncation):
            return r - 1
    return INFINITY if ideal_membership(f, ideal) else m


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

    A weight-type one (a weight, the degree, a scaling or an in-cone sum
    of them) carries a weight ``w`` and the order whose normal forms it
    reads; an adic one carries a ``subset`` and the ``factor`` that scales
    its order.  Immutable after construction.
    """

    __slots__ = ("ideal", "w", "subset", "factor", "_desc", "_order", "_iw",
                 "_scale")

    def __init__(self, ideal, descriptor, w=None, order=None, subset=None,
                 factor=1):
        self.ideal, self._desc = ideal, descriptor
        if w is not None:
            self.w, self.subset, self.factor = (
                tuple(Fraction(x) for x in w), None, None)
            # built once for every evaluation
            self._order = order or MonomialOrder.weighted(self.w)
            self._iw, self._scale = integer_weight(self.w)
        else:
            self.w, self.subset, self.factor = (
                None, frozenset(subset), Fraction(factor))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def weight(cls, ideal, w):
        if len(w) != ideal.ring.nvars:
            raise ValueError("weight vector length mismatch")
        w = tuple(Fraction(x) for x in w)
        return cls(ideal, "v_w(" + ",".join(str(x) for x in w) + ")", w=w)

    @classmethod
    def adic(cls, ideal, A):
        A = frozenset(A)
        inside = ",".join(str(i + 1) for i in sorted(A))
        return cls(ideal, f"ord_{{{inside}}}", subset=A)

    @classmethod
    def degree(cls, ideal):
        # the all-ones weight; its refinement has the grevlex normal forms
        return cls(ideal, "deg", w=(1,) * ideal.ring.nvars, order=GREVLEX)

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, f):
        if f.ring != self.ideal.ring:
            raise ValueError("element from a different ring")
        if self.w is None:
            if f.is_zero():
                return INFINITY
            lo = min(adic_order(self.subset, comp, self.ideal)
                     for comp in f.homogeneous_components().values())
            return lo if lo is INFINITY else self.factor * lo
        # min <w, alpha> over the normal form's support, one Fraction
        nf = normal_form(f, buchberger_reduced(self.ideal, self._order))
        if nf.is_zero():
            return INFINITY
        iw = self._iw
        return Fraction(min(sum(map(mul, iw, m)) for m in nf.terms),
                        self._scale)

    # -- bookkeeping ---------------------------------------------------------------

    def descriptor(self):
        return self._desc


def scale(c, v: Quasivaluation) -> Quasivaluation:
    """c (.) v, scaling every value; c must be non-negative.

    A weight-type v keeps its order and scales its weight; an adic v
    scales its factor.
    """
    try:
        c = Fraction(c)
    except ZeroDivisionError:
        raise ValueError(f"scaling factor {c} has a zero denominator") from None
    if c < 0:
        raise ValueError("scaling factor must be non-negative")
    descriptor = f"{c} (.) {v.descriptor()}"
    if v.w is None:
        return Quasivaluation(v.ideal, descriptor, subset=v.subset,
                              factor=c * v.factor)
    return Quasivaluation(v.ideal, descriptor, w=[c * x for x in v.w],
                          order=v._order)


def oplus_in_cone(vs) -> Quasivaluation:
    """Sum of weight quasivaluations sharing one Groebner cone: the weight
    of the summed weights.

    The shared-cone hypothesis is verified against the order refined by
    the total weight: every summand's initial ideal must have the same
    leading-term ideal there as the ideal itself.  Without the hypothesis
    the sum is refused (it is not associative in general).
    """
    vs = list(vs)
    if not vs:
        raise ValueError("empty sum")
    ideal = vs[0].ideal
    for v in vs:
        if v.ideal is not ideal:
            raise ValueError("summands live on different algebras")
        if v.w is None:
            raise ConeShareError(
                f"{v.descriptor()} is not a weight-type quasivaluation")
    total = tuple(sum(col) for col in zip(*(v.w for v in vs)))
    order = MonomialOrder.weighted(total)
    base_lt = sorted(buchberger_reduced(ideal, order).leading_monomials())
    for v in vs:
        inu = initial_ideal(v.w, ideal)
        if sorted(buchberger_reduced(inu, order).leading_monomials()) != base_lt:
            raise ConeShareError(
                f"{v.descriptor()} does not share the Groebner cone of the sum")
    return Quasivaluation(ideal, " (+) ".join(v.descriptor() for v in vs),
                          w=total)
