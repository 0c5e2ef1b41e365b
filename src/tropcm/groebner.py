"""Buchberger engine, reduced bases, initial ideals, elimination, membership.

The public surface only accepts homogeneous ideals: weight-refined orders
are well-founded degreewise, and homogeneity keeps every reduction inside
one degree.  The raw engine additionally serves the Rabinowitsch-style
membership tests, which need non-homogeneous ideals; those calls are
restricted to global well-orders (grevlex, lex, block).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import neg

from .cache import default_cache, digest
from .hilbert import HilbertSeries
from .orders import GREVLEX, MonomialOrder
from .polynomials import (Polynomial, monomials_of_degree, mono_degree,
                          mono_div, mono_divides, mono_lcm, mono_mul,
                          parse_polynomial)


class NonHomogeneousError(ValueError):
    """A generator mixes degrees where the engine requires homogeneity."""


# ---------------------------------------------------------------------------
# division and the Buchberger loop

def reduce_full(f, lead, order):
    """Full normal form: no term of the result is divisible by a basis LM.

    ``lead`` holds the basis as ``(lm, lc, g)`` triples, so leading terms
    are found once per basis, not once per reduction.  Terms are taken
    from a heap, leading-most first.  Every term a step adds is below the
    term it removes (orders are multiplicative), so a popped term never
    returns; a cancelled term stays in the heap and is skipped when popped.

    A monic triple (``lc == 1``) cancels a term ``c*m`` by subtracting
    ``c * (m/lm) * g``, so the result is the normal form itself.  A primitive
    integer triple (the engine's elements over Q) works fraction-free: the
    partial result, work and remainder, is first scaled by ``lc/gcd(c, lc)``,
    so the result is a positive integer multiple of the normal form.
    """
    if not lead:
        return f
    key = order.key
    work = dict(f.terms)
    heap = [(tuple(map(neg, key(m))), m) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        hit = None
        for gm, gc, g in lead:
            if mono_divides(gm, m):
                hit = (gm, gc, g)
                break
        if hit is None:
            rem[m] = c
            continue
        gm, gc, g = hit
        if gc != 1:
            k = gcd(c, gc)
            c, scale = c // k, gc // k
            if scale != 1:
                for t in work:
                    work[t] *= scale
                for t in rem:
                    rem[t] *= scale
        mult = mono_div(m, gm)
        for tm, tc in g.terms.items():
            if tm == gm:
                continue
            dest = mono_mul(tm, mult)
            s = work.get(dest)
            if s is None:
                work[dest] = -(tc * c)
                heappush(heap, (tuple(map(neg, key(dest))), dest))
                continue
            s -= tc * c
            if s:
                work[dest] = s
            else:
                del work[dest]
    return Polynomial(f.ring, rem)


def s_polynomial(f, g, order):
    """The S-polynomial of f and g; for primitive integer f and g the
    leading coefficients are cross-multiplied over their gcd."""
    (mf, cf) = f.leading(order)
    (mg, cg) = g.leading(order)
    if cf == cg:
        cf = cg = 1
    else:
        k = gcd(cf, cg)
        cf, cg = cf // k, cg // k
    l = mono_lcm(mf, mg)
    return f.term_mul(cg, mono_div(l, mf)) - g.term_mul(cf, mono_div(l, mg))


def _engine_form(p, lc):
    """``p`` as the engine holds it: over Q the primitive integer multiple
    with a positive leading coefficient, over F_p the monic multiple."""
    field = p.ring.field
    if field.char:
        return p.scale(field.one() / lc)
    den = lcm(*(c.denominator for c in p.terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}
    k = gcd(*ints.values())
    if lc < 0:
        k = -k
    return Polynomial(p.ring, {m: c // k for m, c in ints.items()})


def _presented(lead, order):
    """The polynomials of ``(lm, ..., g)`` triples in presentation order:
    ascending degree, leading-most first within a degree."""
    lead = sorted(lead, key=lambda t: order.key(t[0]), reverse=True)
    lead.sort(key=lambda t: mono_degree(t[0]))
    return [t[-1] for t in lead]


def _interreduce(lead, order):
    """Minimalize then tail-reduce ``(lm, lc, g)`` triples; output monic,
    with coefficients in the ring's field, in presentation order."""
    lead = sorted(lead, key=lambda t: (mono_degree(t[0]), order.key(t[0])))
    minimal = []
    for t in lead:
        if not any(mono_divides(m, t[0]) for m, _, _ in minimal):
            minimal.append(t)
    field = minimal[0][2].ring.field
    out = []
    for i, (lm, _, g) in enumerate(minimal):
        # the leading term survives tail reduction; dividing by it makes
        # the element monic and turns integer coefficients into Fractions
        g = reduce_full(g, minimal[:i] + minimal[i + 1:], order)
        out.append((lm, g.scale(field.one() / field.coerce(g.terms[lm]))))
    return _presented(out, order)


def groebner_basis_raw(polys, order, homogeneous=None, hilbert=None):
    """Reduced Groebner basis of a list of polynomials.

    Pairs come from a heap, smallest lcm degree first, then lowest lcm
    under ``order``; the Gebauer-Moeller criteria prune them as elements
    arrive.  ``hilbert``, the Hilbert series of the quotient by the ideal,
    drives a homogeneous run: a degree ends once the leading monomials fill
    it, and the run ends once their series equals ``hilbert``.
    Over Q the loop runs fraction-free on primitive integer elements; only
    the reduced elements are divided by their leading coefficients, so the
    result is the monic basis with ``Fraction`` coefficients.
    Deterministic throughout.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    if homogeneous is None:
        homogeneous = all(p.is_homogeneous() for p in polys)
    if not homogeneous and not order.is_global():
        raise NonHomogeneousError(
            "non-homogeneous generators require a global order "
            f"(got {order.descriptor()})")
    nvars = polys[0].ring.nvars
    lead = []      # every element, oldest first, all used for reduction
    active = []    # indices of elements no newer leading monomial divides
    live = {}      # unprocessed pair -> lcm; the heap may hold dead pairs
    heap = []

    def add(p):
        m, c = p.leading(order)
        p = _engine_form(p, c)
        k = len(lead)
        lead.append((m, p.terms[m], p))
        # criterion B: m divides lcm(i, j) and differs from lcm(i, k), lcm(j, k)
        for (i, j), l in list(live.items()):
            if (mono_divides(m, l) and mono_lcm(lead[i][0], m) != l
                    and mono_lcm(lead[j][0], m) != l):
                del live[i, j]
        # criteria M and F: a new pair goes when another new lcm divides its
        # own; a coprime pair always stays, to beat ties, and goes afterwards
        new = [(i, mono_lcm(lead[i][0], m)) for i in active]
        kept = []
        for n, (i, l) in enumerate(new):
            coprime = mono_degree(l) == mono_degree(lead[i][0]) + mono_degree(m)
            if coprime or not any(mono_divides(l2, l)
                                  for _, l2 in new[n + 1:] + kept):
                kept.append((None if coprime else i, l))
        for i, l in kept:
            if i is not None:
                live[i, k] = l
                heappush(heap, (mono_degree(l), order.key(l), i, k))
        active[:] = [i for i in active if not mono_divides(m, lead[i][0])]
        active.append(k)

    for p in polys:
        add(p)
    if not homogeneous:
        hilbert = None
    degree = missing = None
    while heap:
        d, _, i, j = heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        if hilbert is not None and d != degree:
            # leading monomials still missing in degree d; none at all ends
            degree = d
            reached = HilbertSeries.from_leading_monomials(
                [t[0] for t in lead], nvars)
            if reached == hilbert:
                break
            missing = reached.hilbert_function(d) - hilbert.hilbert_function(d)
        if missing == 0:
            continue
        s = reduce_full(s_polynomial(lead[i][2], lead[j][2], order), lead, order)
        if not s.is_zero():
            add(s)
            if missing is not None:
                missing -= 1
    return _interreduce(lead, order)


def rebase(gb, order):
    """``gb`` as the reduced basis under ``order``, or None.

    When every element keeps its leading monomial under ``order``, those
    monomials generate an ideal inside the initial ideal under ``order``
    with the Hilbert function of the (homogeneous) ideal, so the two are
    equal: the elements form a Groebner basis under ``order``, and still a
    reduced one (Mora-Robbiano).  Only the presentation order can change.
    """
    lead = gb.leading_terms()
    if any(g.leading(order)[0] != m for m, _, g in lead):
        return None
    return GroebnerBasis(gb.ring, order, _presented(lead, order))


# ---------------------------------------------------------------------------
# ideals and bases

class Ideal:
    """Homogeneous ideal given by generators; zero generators are dropped."""

    __slots__ = ("ring", "generators", "_gen_key")

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
        self._gen_key = None

    def is_zero(self):
        return not self.generators

    def generator_key(self):
        if self._gen_key is None:
            self._gen_key = digest(self.ring.descriptor(),
                                   ";".join(sorted(str(g) for g in self.generators)))
        return self._gen_key

    def __eq__(self, other):
        """Equal reduced grevlex bases, from the process-wide cache; code
        that holds a cache compares ``buchberger_reduced(..., cache)``."""
        if not isinstance(other, Ideal):
            return NotImplemented
        return (self.ring == other.ring
                and buchberger_reduced(self, GREVLEX).basis
                == buchberger_reduced(other, GREVLEX).basis)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


class GroebnerBasis:
    """A reduced basis together with its order and ring.

    Cached bases are shared between callers: treat them as read-only.
    """

    __slots__ = ("ring", "order", "basis", "_lead", "_hilbert")

    def __init__(self, ring, order, basis):
        self.ring = ring
        self.order = order
        self.basis = tuple(basis)
        self._lead = None
        self._hilbert = None

    def leading_terms(self):
        """``(lm, lc, g)`` per nonzero element, computed once."""
        if self._lead is None:
            self._lead = [g.leading(self.order) + (g,)
                          for g in self.basis if not g.is_zero()]
        return self._lead

    def leading_monomials(self):
        return [m for m, _, _ in self.leading_terms()]

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

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return f"GroebnerBasis({self.order.descriptor()}; {', '.join(self.strings())})"


def buchberger_reduced(ideal, order, cache=None, reuse=None):
    """Unique reduced basis of a homogeneous ideal, cached by generators.

    ``reuse`` is a fan sweep's list of weight bases of ``ideal``.  On a
    cache miss, a basis from it that ``rebase`` accepts for ``order`` is
    the answer; a basis computed cold is appended to it.  A cold weight
    basis is driven by the Hilbert series of the grevlex basis.
    """
    cache = cache or default_cache()
    ring = ideal.ring

    def load(strings):
        return GroebnerBasis(ring, order, [parse_polynomial(s, ring) for s in strings])

    key = digest(ideal.generator_key(), order.descriptor())
    hit = cache.get(key, load)
    if hit is not None:
        return hit
    gb = next(filter(None, (rebase(b, order) for b in reversed(reuse or ()))), None)
    if gb is None:
        hilbert = (hilbert_series_quotient(ideal, GREVLEX, cache)
                   if order.kind == "weight" else None)
        gb = GroebnerBasis(ring, order, groebner_basis_raw(
            list(ideal.generators), order, homogeneous=True, hilbert=hilbert))
        if reuse is not None:
            reuse.append(gb)
    cache.put(key, gb, {"ring": ring.descriptor(), "order": order.descriptor()})
    return gb


def normal_form(f, gb: GroebnerBasis):
    """Remainder of f against a reduced basis; supported on standard monomials."""
    if f.ring != gb.ring:
        raise ValueError("polynomial and basis from different rings")
    return reduce_full(f, gb.leading_terms(), gb.order)


def ideal_membership(f, ideal, cache=None):
    gb = buchberger_reduced(ideal, GREVLEX, cache)
    return normal_form(f, gb).is_zero()


# ---------------------------------------------------------------------------
# initial ideals and elimination

def initial_ideal(w, ideal, cache=None, reuse=None):
    """in_w(I) = <in_w(g) : g in the reduced basis under the w-refined order>.

    ``reuse`` is passed on to ``buchberger_reduced``; only fan sweeps pass it.
    """
    order = MonomialOrder.weighted(w)
    gb = buchberger_reduced(ideal, order, cache, reuse)
    return Ideal(ideal.ring, [g.initial_form(w) for g in gb.basis])


def eliminate(ideal, A, cache=None):
    """I_A: intersect I + <x_i : i in A> with the subring on the rest.

    ``A`` holds 0-based variable indices.  Computed through a block
    elimination order; the surviving basis elements generate the kernel of
    the induced presentation of the quotient by the chosen variables.
    """
    ring = ideal.ring
    A = sorted(set(A))
    if any(i < 0 or i >= ring.nvars for i in A):
        raise ValueError("variable index out of range")
    if not A:
        return ideal
    gens = list(ideal.generators) + [ring.variable(i) for i in A]
    ext = Ideal(ring, gens)
    order = MonomialOrder.elimination(A)
    gb = buchberger_reduced(ext, order, cache)
    keep = [i for i in range(ring.nvars) if i not in A]
    sub = ring.subring(keep)
    out = [g.restrict(sub, keep) for g in gb.basis
           if not (g.support_vars() & set(A))]
    return Ideal(sub, out)


def extend_ideal(sub_ideal, full_ring, positions):
    """Extension of an ideal in a subring: same generators inside full_ring."""
    gens = [g.extend(full_ring, positions) for g in sub_ideal.generators]
    return Ideal(full_ring, gens)


# ---------------------------------------------------------------------------
# radical membership, monomial detection

def _fresh_name(ring, stem="t"):
    name = stem
    while name in ring.names:
        name += "_"
    return name


def radical_membership(f, ideal):
    """f in rad(I), decided by 1 in I + <1 - t f> in an extended ring."""
    if f.is_zero():
        raise ValueError("radical membership of the zero polynomial")
    ring = ideal.ring
    ext = ring.extended(_fresh_name(ring))
    positions = list(range(ring.nvars))
    t = ext.variable(ext.nvars - 1)
    gens = [g.extend(ext, positions) for g in ideal.generators]
    gens.append(ext.one() - t * f.extend(ext, positions))
    basis = groebner_basis_raw(gens, GREVLEX, homogeneous=False)
    return any(mono_degree(g.leading(GREVLEX)[0]) == 0 for g in basis)


def contains_monomial(ideal, cache=None):
    """A witness monomial in I, or None.

    Saturation against the product of all variables decides existence;
    a witness is then recovered by degree-increasing search (guaranteed to
    end: some power of the variable product lies in the ideal).
    """
    if ideal.is_zero():
        return None
    ring = ideal.ring
    u = ring.monomial((1,) * ring.nvars)
    if not radical_membership(u, ideal):
        return None
    gb = buchberger_reduced(ideal, GREVLEX, cache)
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

def hilbert_series_quotient(ideal, order=GREVLEX, cache=None):
    """Hilbert series of k[x]/I via the leading-term ideal under ``order``."""
    return buchberger_reduced(ideal, order, cache).hilbert_series()


def krull_dimension(ideal, cache=None):
    """Pole order of the Hilbert series at t = 1; the ideal must be proper."""
    gb = buchberger_reduced(ideal, GREVLEX, cache)
    if any(mono_degree(m) == 0 for m in gb.leading_monomials()):
        raise ValueError("the ideal is the whole ring")
    return gb.hilbert_series().dimension()
