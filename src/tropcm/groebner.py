"""Buchberger engine, reduced bases, initial ideals, elimination, membership.

The engine only takes homogeneous ideals: weight-refined orders are
well-founded degreewise, and homogeneity keeps every reduction inside one
degree.

Inside the engine a monomial is one int (see :class:`Packing`); exponent
tuples appear only where polynomials enter or leave it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import gcd, lcm
from operator import mul

from .cache import default_cache, digest
from .hilbert import HilbertSeries
from .orders import GREVLEX, MonomialOrder
from .polynomials import (Polynomial, monomials_of_degree, mono_degree,
                          parse_polynomial)


class NonHomogeneousError(ValueError):
    """A generator mixes degrees where the engine requires homogeneity."""


# ---------------------------------------------------------------------------
# packed monomials

class _Overflow(Exception):
    """A monomial or a degree does not fit the fields of a packing."""


def _width(degree):
    """Bytes per field, a power of two, whose fields hold ``degree``; 1 for
    degree 0 and for -1, the degree of the zero polynomial."""
    nbytes = 1
    while max(degree, 0) >> (8 * nbytes - 1):
        nbytes *= 2
    return nbytes


class _Terms(dict):
    """An engine polynomial: packed monomial -> coefficient."""

    __slots__ = ()

    def is_zero(self):
        return not self


class Packing:
    """Monomials in ``n`` variables as ints, ordered by ``order``.

    Exponent ``i`` fills the low ``bits = 8*nbytes - 1`` bits of byte field
    ``i``; the top bit of each field is a guard, and ``order.linear_key``
    of the exponents sits above all fields.  For exponents below
    ``2**bits`` this is linear and order-preserving: a product is ``a + b``,
    a quotient ``a - b``, ``a < b`` exactly when ``a`` is below ``b``, and
    ``b`` divides ``a`` exactly when ``not (a - b) & guards`` (the lowest
    field that borrows sets its guard).  The engine's work is homogeneous:
    every monomial of a reduction has the degree of the polynomial reduced,
    so fields that hold that degree (``_width``) hold every sum it forms.
    """

    __slots__ = ("nbytes", "width", "shift", "low", "guards", "vec")

    def __init__(self, n, order, nbytes):
        self.nbytes = nbytes
        self.width = n * nbytes
        self.shift = 8 * self.width
        self.low = (1 << self.shift) - 1
        self.guards = int.from_bytes(
            (bytes(nbytes - 1) + b"\x80") * n, "little")
        self.vec = order.linear_key(n, 8 * nbytes - 1)

    def pack(self, m):
        """The packed exponent tuple ``m``; ``_Overflow`` if it does not fit."""
        try:
            if self.nbytes == 1:
                raw = bytes(m)
            else:
                raw = b"".join(e.to_bytes(self.nbytes, "little") for e in m)
        except (ValueError, OverflowError):
            if min(m) < 0:
                raise ValueError(f"negative exponent in {m}") from None
            raise _Overflow(m) from None
        p = int.from_bytes(raw, "little")
        if p & self.guards:
            raise _Overflow(m)
        return (sum(map(mul, self.vec, m)) << self.shift) + p

    def exponents(self, p):
        raw = (p & self.low).to_bytes(self.width, "little")
        k = self.nbytes
        if k == 1:
            return tuple(raw)
        return tuple(int.from_bytes(raw[i:i + k], "little")
                     for i in range(0, self.width, k))

    def lcm(self, a, b):
        """lcm of packed monomials, exponent fields only (no order key)."""
        a &= self.low
        b &= self.low
        t = ((a | self.guards) - b) & self.guards    # guard set where a >= b
        mask = t - (t >> (8 * self.nbytes - 1))
        return (a & mask) | (b & ~mask)

    def terms(self, p):
        """``p`` as an engine polynomial."""
        return _Terms({self.pack(m): c for m, c in p.terms.items()})

    def polynomial(self, ring, terms):
        return Polynomial(ring, {self.exponents(m): c for m, c in terms.items()})


# one packing per ring size, order and field width
_packing = lru_cache(maxsize=16)(Packing)


def _element(terms):
    """``(lm, lc, tail)`` of an engine polynomial: the tail holds the other
    ``(monomial, coefficient)`` pairs."""
    lm = max(terms)
    return lm, terms[lm], [t for t in terms.items() if t[0] != lm]


# ---------------------------------------------------------------------------
# division and the Buchberger loop

def reduce_full(f, lead, packing):
    """Full normal form of the engine polynomial ``f``: no term of the
    result is divisible by a leading monomial of ``lead``.

    ``lead`` holds ``_element`` tuples in ``packing``.  Terms are taken from
    a heap, leading-most first.  Every term a step adds is below the term it
    removes (orders are multiplicative), so a popped term never returns; a
    cancelled term stays in the heap and is skipped when popped.  Packed
    monomials carry their order key, so ``t * (m/lm)`` is one addition.

    A monic element (``lc == 1``) cancels a term ``c*m`` by subtracting
    ``c * (m/lm) * g``, so the result is the normal form itself.  A primitive
    integer element (the engine's elements over Q) works fraction-free: the
    partial result, work and remainder, is first scaled by ``lc/gcd(c, lc)``,
    so the result is a positive integer multiple of the normal form.
    ``packing`` must hold the degree of ``f``: each added term has the
    degree of the term it replaces, so no sum then leaves a field.
    """
    if not lead:
        return f
    guards = packing.guards
    work = dict(f)
    heap = [-m for m in work]
    heapify(heap)
    rem = _Terms()
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for gm, gc, tail in lead:
            if not (m - gm) & guards:
                break
        else:
            rem[m] = c
            continue
        if gc != 1:
            k = gcd(c, gc)
            c, scale = c // k, gc // k
            if scale != 1:
                for t in work:
                    work[t] *= scale
                for t in rem:
                    rem[t] *= scale
        mult = m - gm
        for tm, tc in tail:
            dest = tm + mult
            s = work.get(dest)
            if s is None:
                work[dest] = -(tc * c)
                heappush(heap, -dest)
                continue
            s -= tc * c
            if s:
                work[dest] = s
            else:
                del work[dest]
    return rem


def s_polynomial(f, g, packing):
    """The S-polynomial of two engine elements; for primitive integer
    elements the leading coefficients are cross-multiplied over their gcd."""
    mf, cf, tf = f
    mg, cg, tg = g
    if cf == cg:
        cf = cg = 1
    else:
        k = gcd(cf, cg)
        cf, cg = cf // k, cg // k
    l = packing.lcm(mf, mg)
    l = packing.pack(packing.exponents(l))
    uf, ug = l - mf, l - mg
    s = _Terms({tm + uf: tc * cg for tm, tc in tf})
    for tm, tc in tg:
        v = s.get(tm + ug, 0) - tc * cf
        if v:
            s[tm + ug] = v
        else:
            del s[tm + ug]
    return s


def _engine_form(terms, field):
    """``terms`` as the engine holds them: over Q the primitive integer
    multiple with a positive leading coefficient, over F_p the monic one."""
    lc = terms[max(terms)]
    if field.char:
        inv = field.one() / lc
        return _Terms({m: inv * c for m, c in terms.items()})
    den = lcm(*(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    k = gcd(*ints.values())
    if lc < 0:
        k = -k
    return _Terms({m: c // k for m, c in ints.items()})


def _presented(items):
    """The polynomials of ``(degree, order key of lm, g)`` items in
    presentation order: ascending degree, leading-most first within one."""
    return [g for _, _, g in sorted(items, key=lambda t: (t[0], -t[1]))]


def _interreduce(lead, packing, ring):
    """Minimalize then tail-reduce engine elements; output monic
    polynomials, with coefficients in the ring's field, in presentation
    order."""
    minimal = []
    for e in sorted(lead, key=lambda e: (sum(packing.exponents(e[0])), e[0])):
        if not any(not (e[0] - t[0]) & packing.guards for t in minimal):
            minimal.append(e)
    field = ring.field
    out = []
    for i, (lm, lc, tail) in enumerate(minimal):
        # the leading term survives tail reduction; dividing by it makes
        # the element monic and turns integer coefficients into Fractions
        g = _Terms(tail)
        g[lm] = lc
        g = reduce_full(g, minimal[:i] + minimal[i + 1:], packing)
        lc = g[lm]
        if field.char:
            inv = field.one() / lc
            coeffs = {packing.exponents(m): inv * c for m, c in g.items()}
        else:
            coeffs = {packing.exponents(m): Fraction(c, lc) for m, c in g.items()}
        out.append((sum(packing.exponents(lm)), lm, Polynomial(ring, coeffs)))
    return _presented(out)


def groebner_basis_raw(ideal, order, hilbert=None):
    """Reduced Groebner basis of an ``Ideal``.

    Pairs come from a heap, smallest lcm degree first, then lowest lcm
    under ``order``; the Gebauer-Moeller criteria prune them as elements
    arrive.  ``hilbert``, the Hilbert series of the quotient by the ideal,
    drives the run: a degree ends once the leading monomials fill it, and
    the run ends once their series equals ``hilbert``.
    Over Q the loop runs fraction-free on primitive integer elements; only
    the reduced elements are divided by their leading coefficients, so the
    result is the monic basis with ``Fraction`` coefficients.
    Fields start wide enough for the generators' degrees; a run that reaches
    a pair of higher degree than they hold is redone with fields twice as
    wide, so no exponent bound is imposed.  Deterministic throughout.
    """
    ring = ideal.ring
    nbytes = _width(max((g.degree() for g in ideal.generators), default=0))
    while True:
        try:
            return _buchberger(ideal.generators,
                               _packing(ring.nvars, order, nbytes), ring, hilbert)
        except _Overflow:
            nbytes *= 2


def _buchberger(polys, packing, ring, hilbert):
    """The loop of ``groebner_basis_raw`` with monomials in ``packing``;
    ``_Overflow`` once a pair to reduce has a degree the fields cannot hold."""
    nvars = ring.nvars
    bits = 8 * packing.nbytes - 1
    guards = packing.guards
    lead = []      # every element, oldest first, all used for reduction
    active = []    # indices of elements no newer leading monomial divides
    live = {}      # unprocessed pair -> lcm; the heap may hold dead pairs
    heap = []

    def add(terms):
        e = _element(_engine_form(terms, ring.field))
        m = e[0]
        k = len(lead)
        lead.append(e)
        mlow = m & packing.low
        # criterion B: m divides lcm(i, j) and differs from lcm(i, k), lcm(j, k)
        for (i, j), l in list(live.items()):
            if (not (l - mlow) & guards and packing.lcm(lead[i][0], m) != l
                    and packing.lcm(lead[j][0], m) != l):
                del live[i, j]
        # criteria M and F: a new pair goes when another new lcm divides its
        # own; a coprime pair always stays, to beat ties, and goes afterwards
        new = [(i, packing.lcm(lead[i][0], m)) for i in active]
        kept = []
        for n, (i, l) in enumerate(new):
            coprime = l == (lead[i][0] & packing.low) + mlow
            if coprime or not any(not (l - l2) & guards
                                  for _, l2 in new[n + 1:] + kept):
                kept.append((None if coprime else i, l))
        for i, l in kept:
            if i is not None:
                live[i, k] = l
                exps = packing.exponents(l)
                heappush(heap, (sum(exps), packing.pack(exps), i, k))
        active[:] = [i for i in active if (lead[i][0] - m) & guards]
        active.append(k)

    for p in polys:
        add(packing.terms(p))
    degree = missing = None
    while heap:
        d, _, i, j = heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        if hilbert is not None and d != degree:
            # leading monomials still missing in degree d; none at all ends
            degree = d
            reached = HilbertSeries.from_leading_monomials(
                [packing.exponents(e[0]) for e in lead], nvars)
            if reached == hilbert:
                break
            missing = reached.hilbert_function(d) - hilbert.hilbert_function(d)
        if missing == 0:
            continue
        if d >> bits:
            raise _Overflow(d)
        s = reduce_full(s_polynomial(lead[i], lead[j], packing), lead, packing)
        if not s.is_zero():
            add(s)
            if missing is not None:
                missing -= 1
    return _interreduce(lead, packing, ring)


def rebase(gb, order):
    """``gb`` as the reduced basis under ``order``, or None.

    When every element keeps its leading monomial under ``order``, those
    monomials generate an ideal inside the initial ideal under ``order``
    with the Hilbert function of the (homogeneous) ideal, so the two are
    equal: the elements form a Groebner basis under ``order``, and still a
    reduced one (Mora-Robbiano).  Only the presentation order can change.
    Each element's check compares integer keys (``order.linear_key``).
    """
    nbytes, lms = gb._leading()
    vec = _packing(gb.ring.nvars, order, nbytes).vec
    items = []
    for lm, g in zip(lms, (g for g in gb.basis if g.terms)):
        top = sum(map(mul, vec, lm))
        keys = map(sum, map(map, repeat(mul), repeat(vec), g.terms))
        if any(map(top.__lt__, keys)):
            return None
        items.append((sum(lm), top, g))
    return GroebnerBasis(gb.ring, order, _presented(items))


# ---------------------------------------------------------------------------
# ideals and bases

class Ideal:
    """Homogeneous ideal given by generators; zero generators are dropped.

    ``_basis`` is a reduced basis known when the ideal was made, or None;
    ``initial_ideal`` sets it.  ``memo`` keeps, each made once, I_A k[x] by
    ``("elim", A)``, the ideals <x_A>^r + I by ``("trunc", A, r)`` and the
    adic orders of monomials by ``("ord", A, exponents)``.
    """

    __slots__ = ("ring", "generators", "_gen_key", "_basis", "_memo")

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise NonHomogeneousError(f"non-homogeneous generator: {g}")
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gen_key = self._basis = self._memo = None

    def is_zero(self):
        return not self.generators

    def memo(self, key, make):
        """``make()``, called once per ``key`` and kept with the ideal."""
        memo = self._memo = self._memo or {}
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def generator_key(self):
        if self._gen_key is None:
            self._gen_key = digest(self.ring.descriptor(),
                                   ";".join(sorted(str(g) for g in self.generators)))
        return self._gen_key


class GroebnerBasis:
    """A reduced basis together with its order and ring.

    Cached bases are shared between callers: treat them as read-only.
    """

    __slots__ = ("ring", "order", "basis", "_lead", "_packed", "_hilbert")

    def __init__(self, ring, order, basis):
        self.ring = ring
        self.order = order
        self.basis = tuple(basis)
        self._lead = self._packed = self._hilbert = None

    def _leading(self):
        """``(nbytes, lms)``, computed once: the field width in bytes that
        holds every element's degree, and the leading monomials of the
        nonzero elements, found with the order's linear key."""
        if self._lead is None:
            nbytes = _width(max((g.degree() for g in self.basis), default=0))
            vec = repeat(_packing(self.ring.nvars, self.order, nbytes).vec)
            self._lead = nbytes, [
                max(zip(map(sum, map(map, repeat(mul), vec, g.terms)), g.terms))[1]
                for g in self.basis if g.terms]
        return self._lead

    def leading_monomials(self):
        return list(self._leading()[1])

    def packed(self, nbytes):
        """``(packing, elements)`` of the nonzero elements for ``reduce_full``,
        built once; rebuilt when a caller needs fields of ``nbytes`` bytes."""
        if self._packed is None or self._packed[0].nbytes < nbytes:
            packing = _packing(self.ring.nvars, self.order,
                               max(nbytes, self._leading()[0]))
            self._packed = packing, [_element(packing.terms(g))
                                     for g in self.basis if g.terms]
        return self._packed

    def hilbert_series(self):
        """Hilbert series of the quotient by the leading monomials, computed once."""
        if self._hilbert is None:
            self._hilbert = HilbertSeries.from_leading_monomials(
                self.leading_monomials(), self.ring.nvars)
        return self._hilbert

    def strings(self):
        return [str(g) for g in self.basis]

    def __iter__(self):
        return iter(self.basis)


def buchberger_reduced(ideal, order, reuse=None):
    """Unique reduced basis of a homogeneous ideal, cached by generators.

    On a cache miss the answer is the first basis that ``rebase`` accepts
    for ``order``, of the one the ideal carries and then ``reuse``, a fan
    sweep's list of weight bases of ``ideal``, newest first; else a basis
    computed cold, which is appended to ``reuse``.  A cold weight basis is
    driven by the Hilbert series of the grevlex basis.  A cached entry
    written for another ring or order is a miss, as is one with a
    non-homogeneous element: field widths rest on homogeneity.
    """
    cache = default_cache()
    ring = ideal.ring
    key = (ideal.generator_key(), order.descriptor())
    load = meta = None
    if cache.directory:
        meta = {"ring": ring.descriptor(), "order": key[1]}

        def load(strings):
            basis = [parse_polynomial(s, ring) for s in strings]
            if not all(g.is_homogeneous() for g in basis):
                raise NonHomogeneousError("non-homogeneous cached basis element")
            return GroebnerBasis(ring, order, basis)

    hit = cache.get(key, load, meta)
    if hit is not None:
        return hit
    known = [b for b in (ideal._basis, *reversed(reuse or ())) if b is not None]
    gb = next((b for b in map(rebase, known, repeat(order)) if b is not None), None)
    if gb is None:
        hilbert = (hilbert_series_quotient(ideal)
                   if order.kind == "weight" else None)
        gb = GroebnerBasis(ring, order, groebner_basis_raw(
            ideal, order, hilbert=hilbert))
        if reuse is not None:
            reuse.append(gb)
    cache.put(key, gb, meta)
    return gb


def normal_form(f, gb: GroebnerBasis):
    """Remainder of f against a reduced basis; supported on standard monomials."""
    if f.ring != gb.ring:
        raise ValueError("polynomial and basis from different rings")
    packing, lead = gb.packed(_width(f.degree()))
    return packing.polynomial(f.ring, reduce_full(packing.terms(f), lead, packing))


def ideal_membership(f, ideal):
    gb = buchberger_reduced(ideal, GREVLEX)
    return normal_form(f, gb).is_zero()


# ---------------------------------------------------------------------------
# initial ideals and elimination

def initial_ideal(w, ideal, reuse=None):
    """in_w(I) = <in_w(g) : g in the reduced basis under the w-refined order>.

    These forms are also the reduced basis of in_w(I) under grevlex, which
    breaks the ties of the w-order (Sturmfels, Groebner Bases and Convex
    Polytopes, ch. 1).  The ideal carries them under the w-order, and a
    cache miss on its grevlex basis rebases them (every term of a form has
    the same weight, so that rebase accepts); its grevlex basis is never
    computed.  ``reuse`` is passed on to ``buchberger_reduced``; only fan
    sweeps pass it.
    """
    order = MonomialOrder.weighted(w)
    gb = buchberger_reduced(ideal, order, reuse)
    forms = [g.initial_form(order.iweight) for g in gb.basis]
    inw = Ideal(ideal.ring, forms)
    inw._basis = GroebnerBasis(ideal.ring, order, forms)
    return inw


def eliminate(ideal, A):
    """I_A k[x]: the generators of I with x_i set to zero for i in A.

    ``A`` holds 0-based variable indices.  I_A = (I + <x_A>) meet k[x_rest]
    is the image of I under k[x] -> k[x]/<x_A> = k[x_rest], so the images
    of the generators generate it; no basis is computed.  The result stays
    in the ring of I, as the extension of I_A, and k[x]/(I + <x_A>) is
    k[x]/I_A k[x] with the |A| variables x_A left out; the ideal keeps it.
    """
    ring = ideal.ring
    A = frozenset(A)
    if any(i < 0 or i >= ring.nvars for i in A):
        raise ValueError("variable index out of range")
    if not A:
        return ideal
    return ideal.memo(("elim", A), lambda: Ideal(ring, [
        Polynomial(ring, {m: c for m, c in g.terms.items()
                          if not any(m[i] for i in A)})
        for g in ideal.generators]))


# ---------------------------------------------------------------------------
# radical membership, monomial detection

def _fresh_name(ring):
    name = "t"
    while name in ring.names:
        name += "_"
    return name


def radical_membership(f, ideal):
    """f in rad(I) for a homogeneous f of degree e >= 1, decided in degree.

    With a new last variable y and J = I + <f - y^e>, k[x,y]/J is free over
    k[x]/I on 1, y, ..., y^(e-1) and y^(qe+r) = f^q y^r, so y is nilpotent
    exactly when f is.  y^m is the grevlex-smallest monomial of degree m,
    so y^m lies in J exactly when the reduced basis of J holds a c*y^m.
    """
    e = f.degree()
    if e < 1 or not f.is_homogeneous():
        raise ValueError(
            f"radical membership needs a homogeneous f of positive degree: {f}")
    ring = ideal.ring
    ext = ring.extended(_fresh_name(ring))
    gens = [g.extend(ext) for g in ideal.generators]
    gens.append(f.extend(ext) - ext.variable(ring.nvars) ** e)
    basis = groebner_basis_raw(Ideal(ext, gens), GREVLEX)
    return any(g.terms.keys() == {(0,) * ring.nvars + (g.degree(),)}
               for g in basis)


def holds_monomial(ideal):
    """Some monomial lies in I: the product of all variables is in rad(I)."""
    ring = ideal.ring
    return not ideal.is_zero() and radical_membership(
        ring.monomial((1,) * ring.nvars), ideal)


def contains_monomial(ideal):
    """A witness monomial in I, or None.

    ``holds_monomial`` decides existence; a witness is then recovered by
    degree-increasing search (guaranteed to end: some power of the variable
    product lies in the ideal).
    """
    if not holds_monomial(ideal):
        return None
    ring = ideal.ring
    gb = buchberger_reduced(ideal, GREVLEX)
    d = 1
    while True:
        for m in monomials_of_degree(ring.nvars, d):
            if normal_form(ring.monomial(m), gb).is_zero():
                return m
        d += 1
        if d > 200:
            raise RuntimeError("witness search exceeded the degree cap")


# ---------------------------------------------------------------------------
# Hilbert data

def hilbert_series_quotient(ideal):
    """Hilbert series of k[x]/I via the grevlex leading-term ideal."""
    return buchberger_reduced(ideal, GREVLEX).hilbert_series()


def krull_dimension(ideal):
    """Pole order of the Hilbert series at t = 1; the ideal must be proper."""
    gb = buchberger_reduced(ideal, GREVLEX)
    if any(mono_degree(m) == 0 for m in gb.leading_monomials()):
        raise ValueError("the ideal is the whole ring")
    return gb.hilbert_series().dimension()
