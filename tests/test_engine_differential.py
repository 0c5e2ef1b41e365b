"""The Buchberger engine on non-principal ideals, against independent oracles.

Each instance is built over Q and over F_32003.  Its reduced bases under
grevlex, a fractional weight order and an elimination weight are checked
against Macaulay-matrix slices of the generators in degrees 2 and 3, and
its grevlex and lex bases against sympy's, where sympy is installed.
``eliminate``, which sets x_A to zero in the generators, is checked
against the x_A-free part of an elimination basis of I + <x_A>.  Two
lex cases are left out for time: generic Gr(2,5) (about a minute in the
engine over Q) and the generic 2x4 minors over Q (about 7 s in sympy; the
same instance runs over F_32003).

The same instances test the paths that skip work: Gebauer-Moeller pair
pruning, the Hilbert stop of weight bases, the in-cone reuse of the fan
sweeps and the grevlex basis an initial ideal carries must all give the
cold reduced basis.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from tropcm import (GREVLEX, LEX, QQ, Ideal, MonomialOrder, PrimeField,
                    apply_change, buchberger_reduced, default_ring, eliminate,
                    enumerate_generic_fan, hilbert_series_quotient,
                    initial_ideal, krull_dimension, monomials_of_degree,
                    parse_polynomial, random_gl, sample_interior)
from tropcm.groebner import GroebnerBasis, groebner_basis_raw, rebase
from tropcm.macaulay import graded_slice, initial_slice_oracle
from tropcm.polynomials import Polynomial, mono_divides

from conftest import eliminate_by_order, elimination

FIELDS = {"Q": QQ, "F32003": PrimeField(32003)}
NAMES = ("twisted-cubic", "minors-2x4", "minors-2x4-generic",
         "two-quadrics", "gr25-generic")
SEED = 42


def _minors(ring, top, bottom):
    return [parse_polynomial(f"{top[a]}*{bottom[b]} - {top[b]}*{bottom[a]}", ring)
            for a, b in combinations(range(len(top)), 2)]


def _generic(ideal, field):
    return apply_change(random_gl(ideal.ring.nvars, SEED, 100, field), ideal)


def _pluecker_g25(ring):
    """The five three-term Pluecker quadrics, x1..x10 for p12..p45."""
    index = {p: i + 1 for i, p in enumerate(combinations(range(5), 2))}

    def p(a, b):
        return f"x{index[a, b]}"

    return [parse_polynomial(f"{p(i, j)}*{p(k, l)} - {p(i, k)}*{p(j, l)}"
                             f" + {p(i, l)}*{p(j, k)}", ring)
            for i, j, k, l in combinations(range(5), 4)]


@lru_cache(maxsize=None)
def instance(name, field_name):
    field = FIELDS[field_name]
    if name == "twisted-cubic":
        ring = default_ring(4, field)
        return Ideal(ring, _minors(ring, ["x1", "x2", "x3"], ["x2", "x3", "x4"]))
    if name.startswith("minors-2x4"):
        ring = default_ring(8, field)
        ideal = Ideal(ring, _minors(ring, ["x1", "x2", "x3", "x4"],
                                    ["x5", "x6", "x7", "x8"]))
        return _generic(ideal, field) if name.endswith("generic") else ideal
    if name == "two-quadrics":
        ring = default_ring(4, field)
        rng = random.Random(SEED)
        return Ideal(ring, [
            Polynomial(ring, {m: field.coerce(rng.randint(-9, 9))
                              for m in monomials_of_degree(4, 2)})
            for _ in range(2)])
    if name == "gr25-generic":
        ring = default_ring(10, field)
        return _generic(Ideal(ring, _pluecker_g25(ring)), field)
    if name == "rnc4-generic":
        ring = default_ring(5, field)
        return _generic(Ideal(ring, _minors(ring, ["x1", "x2", "x3", "x4"],
                                            ["x2", "x3", "x4", "x5"])), field)
    raise KeyError(name)


def rnc4_generic():
    return instance("rnc4-generic", "Q")


def weight_of(n):
    return tuple(Fraction(i % 3, 2) for i in range(n))


def epsilon(n):
    return tuple(1 if i < n // 2 else 0 for i in range(n))


def orders_of(n):
    return {"grevlex": GREVLEX,
            "weight": MonomialOrder.weighted(weight_of(n)),
            "elim": elimination({0}, n)}


def cold(ideal, order):
    return [str(g) for g in groebner_basis_raw(ideal, order)]


# -- the Macaulay-matrix oracle --------------------------------------------------

def _in_row_space(poly, rows, index):
    """Membership in the span of reduced echelon rows."""
    v = [poly.ring.field.zero()] * len(index)
    for m, c in poly.terms.items():
        v[index[m]] = c
    for row in rows:
        p = next(i for i, c in enumerate(row) if c)
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


CASES = [(name, field, order) for name in NAMES for field in FIELDS
         for order in ("grevlex", "weight", "elim")]


@pytest.mark.parametrize("name,field_name,order_name", CASES)
def test_basis_matches_macaulay_slices(name, field_name, order_name, fresh_cache):
    ideal = instance(name, field_name)
    gens = list(ideal.generators)
    order = orders_of(ideal.ring.nvars)[order_name]
    basis = buchberger_reduced(ideal, order).basis
    lms = [g.leading(order)[0] for g in basis]
    for degree in (2, 3):
        rows, cols = graded_slice(gens, degree, order)
        # columns run leading-most first: a row's first entry is its leading term
        slice_lms = {cols[next(i for i, c in enumerate(r) if c)] for r in rows}
        assert slice_lms == {m for m in cols if any(mono_divides(l, m) for l in lms)}
        index = {m: i for i, m in enumerate(cols)}
        for g in basis:
            if g.degree() == degree:
                assert _in_row_space(g, rows, index), str(g)
        if order.kind == "weight":
            w = order.weight
            oracle, _ = initial_slice_oracle(gens, w, degree)
            engine, _ = graded_slice([g.initial_form(w) for g in basis], degree)
            assert oracle == engine


# -- sympy ---------------------------------------------------------------------

SYMPY_CASES = [(name, field, order) for name in NAMES for field in FIELDS
               for order in ("grevlex", "lex")
               if not (order == "lex" and (name == "gr25-generic" or (
                   name == "minors-2x4-generic" and field == "Q")))]


def _sympy_basis(ideal, order_name):
    sympy = pytest.importorskip("sympy")
    field = ideal.ring.field
    syms = sympy.symbols(ideal.ring.names)
    if field == QQ:
        domain = sympy.QQ

        def to_sympy(c):
            return sympy.Rational(c.numerator, c.denominator)

        def from_sympy(c):
            return field.coerce(Fraction(int(c.numerator), int(c.denominator)))
    else:
        domain = sympy.GF(field.p)

        def to_sympy(c):
            return c.val

        def from_sympy(c):
            return field.coerce(int(c) % field.p)
    polys = [sympy.Poly.from_dict({m: to_sympy(c) for m, c in g.terms.items()},
                                  *syms, domain=domain)
             for g in ideal.generators]
    gb = sympy.groebner(polys, *syms, order=order_name, domain=domain)
    return sorted(str(Polynomial(ideal.ring, {m: from_sympy(c) for m, c in p.terms()}))
                  for p in gb.polys)


@pytest.mark.parametrize("name,field_name,order_name", SYMPY_CASES)
def test_basis_matches_sympy(name, field_name, order_name, fresh_cache):
    ideal = instance(name, field_name)
    expected = _sympy_basis(ideal, order_name)
    order = {"grevlex": GREVLEX, "lex": LEX}[order_name]
    assert sorted(buchberger_reduced(ideal, order).strings()) == expected


# -- elimination by substitution -----------------------------------------------

@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("name", NAMES)
def test_eliminate_equals_the_elimination_order(name, field_name, fresh_cache):
    ideal = instance(name, field_name)
    n = ideal.ring.nvars
    for A in [A for size in range(3) for A in combinations(range(n), size)]:
        substituted = eliminate(ideal, A)
        reference = eliminate_by_order(ideal, A)
        assert (buchberger_reduced(substituted, GREVLEX).strings()
                == buchberger_reduced(reference, GREVLEX).strings()), A
        cut = Ideal(ideal.ring, list(ideal.generators)
                    + [ideal.ring.variable(i) for i in A])
        assert krull_dimension(cut) == krull_dimension(substituted) - len(A), A


# -- Hilbert stop and in-cone reuse ---------------------------------------------

@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("name", NAMES)
def test_hilbert_stopped_basis_equals_full_run(name, field_name, fresh_cache):
    ideal = instance(name, field_name)
    n = ideal.ring.nvars
    series = hilbert_series_quotient(ideal)
    for w in (weight_of(n), tuple(range(n)), epsilon(n)):
        order = MonomialOrder.weighted(w)
        stopped = groebner_basis_raw(ideal, order, hilbert=series)
        assert [str(g) for g in stopped] == cold(ideal, order)


def test_rebase_on_rnc4_cone_samples_equals_cold_basis():
    ideal = rnc4_generic()
    bases = [GroebnerBasis(ideal.ring, order, groebner_basis_raw(ideal, order))
             for cone in enumerate_generic_fan(5, 2, 0) for k in range(3)
             for order in [MonomialOrder.weighted(sample_interior(cone, SEED + k))]]
    moved = 0
    for own in bases:
        assert rebase(own, own.order) is not None
        for gb in bases:
            hit = rebase(gb, own.order)
            if hit is not None:
                assert hit.strings() == own.strings()
                moved += gb is not own
    assert moved > 0


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("name", ["rnc4-generic", "minors-2x4-generic",
                                  "two-quadrics"])
def test_initial_ideal_carries_its_cold_grevlex_basis(name, field_name,
                                                      fresh_cache):
    ideal = instance(name, field_name)
    n = ideal.ring.nvars
    bases = []
    for cone in enumerate_generic_fan(n, krull_dimension(ideal), 0):
        for k in range(3):
            inw = initial_ideal(sample_interior(cone, SEED + k), ideal, bases)
            cold = groebner_basis_raw(Ideal(inw.ring, inw.generators), GREVLEX)
            assert list(inw._basis.basis) == cold
            assert list(buchberger_reduced(inw, GREVLEX).basis) == cold


def test_rebase_refuses_a_changed_leading_term(fresh_cache):
    ring = default_ring(3)
    ideal = Ideal(ring, [parse_polynomial("x1*x3 - x2^2", ring)])
    gb = buchberger_reduced(ideal, MonomialOrder.weighted((1, 0, 0)))
    assert gb.leading_monomials() == [(0, 2, 0)]
    assert rebase(gb, MonomialOrder.weighted((0, 1, 0))) is None
    assert rebase(gb, MonomialOrder.weighted((2, 0, 1))).strings() == gb.strings()


def test_gr25_sweep_bases_agree_with_cold_bases_and_oracle(fresh_cache):
    ideal = instance("gr25-generic", "F32003")
    gens = list(ideal.generators)
    cones = random.Random(SEED).sample(enumerate_generic_fan(10, 7, 0), 10)
    bases = []
    reused = 0
    for cone in cones:
        for k in range(3):
            w = sample_interior(cone, SEED + k)
            order = MonomialOrder.weighted(w)
            swept = buchberger_reduced(ideal, order, reuse=bases)
            reused += all(gb is not swept for gb in bases)
            assert swept.strings() == cold(ideal, order)
            oracle, _ = initial_slice_oracle(gens, w, 2)
            engine, _ = graded_slice([g.initial_form(w) for g in swept], 2)
            assert oracle == engine
    assert reused > 0
