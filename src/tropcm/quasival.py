"""Quasivaluations on presented algebras: weight, adic, degree, and sums.

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
                       initial_ideal, initial_monomial_generators,
                       normal_form)
from .orders import GREVLEX, MonomialOrder
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


def adic_order(A, f, algebra, cache=None):
    """Largest r with f in <x_i : i in A>^r + I; INFINITY on the kernel.

    Bounded linear search downward from deg(f): the ideal is generated in
    degree one, so the order of a degree-m element never exceeds m.
    """
    if f.is_zero():
        return INFINITY
    if not f.is_homogeneous():
        raise ValueError("adic order is defined degreewise; split f first")
    ideal = algebra.ideal
    if ideal_membership(f, ideal, cache):
        return INFINITY
    ring = f.ring
    A = sorted(set(A))
    m = f.degree()
    for r in range(m, 0, -1):
        K = Ideal(ring, _power_generators(ring, A, r) + list(ideal.generators))
        if ideal_membership(f, K, cache):
            return r
    return 0


def standard_basis_slice(algebra, order, degree, cache=None):
    """Degree-d monomials outside the leading-term ideal, grevlex-descending."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    gb = buchberger_reduced(algebra.ideal, order, cache)
    lms = gb.leading_monomials()
    return [m for m in monomials_of_degree(algebra.ring.nvars, degree)
            if not any(mono_divides(l, m) for l in lms)]


class Quasivaluation:
    """Evaluable quasivaluation record; immutable after construction."""

    __slots__ = ("kind", "algebra", "w", "subset", "factor", "inner", "parts",
                 "witness", "_order")

    def __init__(self, kind, algebra, w=None, subset=None, factor=None,
                 inner=None, parts=None, witness=None):
        self.kind = kind
        self.algebra = algebra
        self.w = tuple(Fraction(x) for x in w) if w is not None else None
        # the w-refined order, built once for every evaluation
        self._order = MonomialOrder.weighted(self.w) if w is not None else None
        self.subset = frozenset(subset) if subset is not None else None
        self.factor = Fraction(factor) if factor is not None else None
        self.inner = inner
        self.parts = tuple(parts) if parts is not None else None
        self.witness = witness

    # -- constructors -----------------------------------------------------------

    @classmethod
    def weight(cls, algebra, w):
        if len(w) != algebra.ring.nvars:
            raise ValueError("weight vector length mismatch")
        return cls("weight", algebra, w=w)

    @classmethod
    def adic(cls, algebra, A):
        return cls("adic", algebra, subset=A)

    @classmethod
    def degree(cls, algebra):
        return cls("degree", algebra)

    # -- evaluation --------------------------------------------------------------

    def effective_weight(self):
        """The weight vector this quasivaluation evaluates through, if any."""
        if self.kind == "weight":
            return self.w
        if self.kind == "degree":
            return tuple(Fraction(1) for _ in range(self.algebra.ring.nvars))
        if self.kind == "oplus":
            return self.w
        if self.kind == "scaled":
            inner = self.inner.effective_weight()
            if inner is None:
                return None
            return tuple(self.factor * x for x in inner)
        return None

    def evaluate(self, f, cache=None):
        if f.ring != self.algebra.ring:
            raise ValueError("element from a different ring")
        if self.kind in ("weight", "oplus"):
            return self._evaluate_weight(f, cache)
        if self.kind == "degree":
            gb = buchberger_reduced(self.algebra.ideal, GREVLEX, cache)
            nf = normal_form(f, gb)
            if nf.is_zero():
                return INFINITY
            return Fraction(min(sum(m) for m in nf.terms))
        if self.kind == "adic":
            if f.is_zero():
                return INFINITY
            vals = [adic_order(self.subset, comp, self.algebra, cache)
                    for comp in f.homogeneous_components().values()]
            lo = min(vals)
            return lo if lo is INFINITY else Fraction(lo)
        if self.kind == "scaled":
            val = self.inner.evaluate(f, cache)
            if val is INFINITY:
                return INFINITY
            return self.factor * val
        raise ValueError(f"unknown quasivaluation kind {self.kind!r}")

    def _evaluate_weight(self, f, cache=None):
        """min <w, alpha> over the normal form's support, one Fraction."""
        order = self._order
        gb = buchberger_reduced(self.algebra.ideal, order, cache)
        nf = normal_form(f, gb)
        if nf.is_zero():
            return INFINITY
        iw = order.iweight
        return Fraction(min(sum(map(mul, iw, m)) for m in nf.terms),
                        order.weight_scale)

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
    c = Fraction(c)
    if c < 0:
        raise ValueError("scaling factor must be non-negative")
    return Quasivaluation("scaled", v.algebra, factor=c, inner=v)


def oplus_in_cone(vs, cache=None) -> Quasivaluation:
    """Sum of weight quasivaluations sharing one Groebner cone.

    The shared-cone hypothesis is verified against the order refined by
    the total weight: every summand's initial ideal must have the same
    leading-term ideal there as the ideal itself.  Without the hypothesis
    the sum is refused (it is not associative in general).
    """
    vs = list(vs)
    if not vs:
        raise ValueError("empty sum")
    algebra = vs[0].algebra
    ideal = algebra.ideal
    weights = []
    for v in vs:
        if v.algebra is not algebra and (
                v.algebra.ring != algebra.ring
                or buchberger_reduced(v.algebra.ideal, GREVLEX, cache).basis
                != buchberger_reduced(ideal, GREVLEX, cache).basis):
            raise ValueError("summands live on different algebras")
        u = v.effective_weight()
        if u is None:
            raise ConeShareError(
                f"{v.descriptor()} is not a weight-type quasivaluation")
        weights.append(u)
    total = tuple(sum(col) for col in zip(*weights))
    order = MonomialOrder.weighted(total)
    base_lt = initial_monomial_generators(ideal, order, cache)
    for v, u in zip(vs, weights):
        inu = initial_ideal(u, ideal, cache)
        if initial_monomial_generators(inu, order, cache) != base_lt:
            raise ConeShareError(
                f"{v.descriptor()} does not share the Groebner cone of the sum")
    return Quasivaluation("oplus", algebra, w=total, parts=vs,
                          witness=order.descriptor())
