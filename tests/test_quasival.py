import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcm import (GREVLEX, INFINITY, ConeShareError, MonomialOrder,
                    Quasivaluation, adic_order, buchberger_reduced,
                    default_ring,
                    hilbert_series_quotient, normal_form, oplus_in_cone,
                    parse_polynomial, scale, standard_basis_slice,
                    trop_membership)
from tropcm.polynomials import monomials_of_degree
from tropcm.theorems import _random_homogeneous

from conftest import downward_adic_order, fraction_weight_value, ideal_from

R3 = default_ring(3)
R4 = default_ring(4)


@pytest.fixture(scope="module")
def conic():
    return ideal_from(R3, "x1*x3 - x2^2")


# -- evaluation ----------------------------------------------------------------

def test_all_ones_weight_is_degree(conic):
    v = Quasivaluation.weight(conic, (1, 1, 1))
    deg = Quasivaluation.degree(conic)
    for text in ("x1", "x1*x2 + x3^2", "x1^3 - x2*x3^2"):
        f = parse_polynomial(text, R3)
        assert v.evaluate(f) == deg.evaluate(f) == f.degree()


def test_zero_has_the_value_infinity(conic):
    zero = R3.zero()
    assert Quasivaluation.adic(conic, {0}).evaluate(zero) is INFINITY
    assert Quasivaluation.weight(conic, (1, 0, 0)).evaluate(zero) is INFINITY


def test_weight_evaluation_single_reduction(conic):
    v = Quasivaluation.weight(conic, (1, 0, 0))
    assert v.evaluate(parse_polynomial("x2^2", R3)) == 1


def test_kernel_maps_to_infinity(conic):
    v = Quasivaluation.weight(conic, (1, 0, 0))
    g = conic.generators[0]
    assert v.evaluate(g) is INFINITY
    assert v.evaluate(R3.zero()) is INFINITY


@pytest.fixture(scope="module")
def cubic():
    return ideal_from(R4, "x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - x2*x3")


@given(st.tuples(*[st.fractions(min_value=-4, max_value=4,
                                max_denominator=12)] * 4),
       st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_weight_evaluation_matches_fraction_sums(cubic, w, seed):
    # negative and fractional weights: the value is the minimum of the
    # Fraction-sum reference over the support of the normal form
    f = _random_homogeneous(R4, random.Random(seed), 3)
    gb = buchberger_reduced(cubic, MonomialOrder.weighted(w))
    nf = normal_form(f, gb)
    expected = (INFINITY if nf.is_zero()
                else min(fraction_weight_value(w, m) for m in nf.terms))
    assert Quasivaluation.weight(cubic, w).evaluate(f) == expected


def test_infinity_ordering_and_arithmetic():
    assert INFINITY > Fraction(10**9)
    assert not INFINITY < Fraction(0)
    assert INFINITY + Fraction(3) is INFINITY
    assert Fraction(2) * INFINITY is INFINITY
    assert min(Fraction(1), INFINITY) == Fraction(1)


def test_homogeneous_convention_minimum_over_components(conic):
    v = Quasivaluation.weight(conic, (2, 1, 1))
    f = parse_polynomial("x1 + x2^2", R3)
    parts = [parse_polynomial("x1", R3), parse_polynomial("x2^2", R3)]
    assert v.evaluate(f) == min(v.evaluate(p) for p in parts)
    o = Quasivaluation.adic(conic, {0})
    g = parse_polynomial("x2 + x1*x3", R3)
    assert o.evaluate(g) == min(o.evaluate(parse_polynomial("x2", R3)),
                                o.evaluate(parse_polynomial("x1*x3", R3)))


# -- adic orders ----------------------------------------------------------------

def test_adic_order_examples(conic):
    assert adic_order([0], parse_polynomial("x2", R3), conic) == 0
    assert adic_order([0], parse_polynomial("x2^2", R3), conic) == 1
    assert adic_order([0], conic.generators[0], conic) is INFINITY


def test_adic_order_on_regular_sequence_variables(e_quad4_generic):
    ring = e_quad4_generic.ring
    A = [0, 1]
    for i in range(4):
        expected = 1 if i in A else 0
        assert adic_order(A, ring.variable(i), e_quad4_generic) == expected


def test_adic_matches_epsilon_weight_on_standard_monomials(e_quad4_generic):
    # two independent implementations of the same quasivaluation
    ring = e_quad4_generic.ring
    A = frozenset({1, 2})
    eps = tuple(Fraction(1) if i in A else Fraction(0) for i in range(4))
    veps = Quasivaluation.weight(e_quad4_generic, eps)
    order = MonomialOrder.weighted(eps)
    for deg in range(5):
        for mono in standard_basis_slice(e_quad4_generic, order, deg):
            b = ring.monomial(mono)
            assert veps.evaluate(b) == adic_order(A, b, e_quad4_generic)


@pytest.fixture(scope="module")
def adic_corpus(conic, e_rnc4_generic, e_pluck_generic):
    return {"conic": conic,
            "twisted-cubic": ideal_from(R4, "x1*x3 - x2^2", "x2*x4 - x3^2",
                                        "x1*x4 - x2*x3"),
            "x1*x2, x3^2": ideal_from(R3, "x1*x2", "x3^2"),
            "rnc4-generic": e_rnc4_generic,
            "g24-generic": e_pluck_generic}


@pytest.mark.parametrize("name", ["conic", "twisted-cubic", "x1*x2, x3^2",
                                  "rnc4-generic", "g24-generic"])
def test_adic_order_matches_the_downward_search(adic_corpus, name):
    ideal = adic_corpus[name]
    ring = ideal.ring
    n = ring.nvars
    rng = random.Random(repr(("adic", name)))
    g = ideal.generators[0]
    elements = [ring.zero(), ring.one(), ring.one().scale(-3),
                g, ring.variable(n - 1) * g, g + ring.variable(0) ** 2]
    elements += [ring.variable(i) for i in range(n)]
    elements += [ring.monomial(m) for m in rng.sample(monomials_of_degree(n, 2), 4)]
    elements += [_random_homogeneous(ring, rng, 3) for _ in range(4)]
    subsets = [A for k in range(4) for A in combinations(range(n), k)]
    for A in rng.sample(subsets, min(len(subsets), 12)) + [(), (0, 1, 2)]:
        for f in elements:
            assert adic_order(A, f, ideal) == downward_adic_order(A, f, ideal), (A, str(f))


@pytest.mark.parametrize("name", ["conic", "twisted-cubic", "x1*x2, x3^2",
                                  "rnc4-generic", "g24-generic"])
def test_adic_orders_kept_by_the_ideal_match_the_downward_search(adic_corpus,
                                                                 name):
    ideal = adic_corpus[name]
    ring = ideal.ring
    n = ring.nvars
    rng = random.Random(repr(("adic-memo", name)))
    monomials = [m for d in (1, 2, 3) for m in monomials_of_degree(n, d)]
    subsets = [A for k in range(1, 4) for A in combinations(range(n), k)]
    cases = [(A, m) for A in rng.sample(subsets, min(len(subsets), 6))
             for m in rng.sample(monomials, 6)]

    def refuse():
        raise AssertionError("a kept adic order was computed again")

    values = [ideal.memo(("ord", A, m), lambda: adic_order(
        A, ring.monomial(m), ideal)) for A, m in cases]
    assert [ideal.memo(("ord", A, m), refuse) for A, m in cases] == values
    assert values == [downward_adic_order(A, ring.monomial(m), ideal)
                      for A, m in cases]


# -- scaling and sums -------------------------------------------------------------

def test_scale_zero_and_identity(conic):
    v = Quasivaluation.weight(conic, (1, 0, 2))
    f = parse_polynomial("x1*x2", R3)
    assert scale(0, v).evaluate(f) == 0
    assert scale(1, v).evaluate(f) == v.evaluate(f)
    assert scale(0, v).evaluate(conic.generators[0]) is INFINITY
    with pytest.raises(ValueError):
        scale(-1, v)


def test_integer_scale_equals_repeated_sum(conic):
    v = Quasivaluation.weight(conic, (1, 0, 0))
    tripled = scale(3, v)
    summed = oplus_in_cone([v, v, v])
    order = MonomialOrder.weighted(v.w)
    for deg in range(4):
        for mono in standard_basis_slice(conic, order, deg):
            b = R3.monomial(mono)
            assert tripled.evaluate(b) == summed.evaluate(b)


def test_oplus_with_zero_weight_is_identity(conic):
    v = Quasivaluation.weight(conic, (2, 0, 1))
    zero = Quasivaluation.weight(conic, (0, 0, 0))
    s = oplus_in_cone([v, zero])
    f = parse_polynomial("x2^2 + x1*x2", R3)
    assert s.evaluate(f) == v.evaluate(f)


def test_oplus_epsilon_split_on_generic_quad4(e_quad4_generic):
    ring = e_quad4_generic.ring
    v3 = Quasivaluation.weight(e_quad4_generic, (0, 0, 1, 0))
    v4 = Quasivaluation.weight(e_quad4_generic, (0, 0, 0, 1))
    s = oplus_in_cone([v3, v4])
    assert s.w == (0, 0, 1, 1)
    order = MonomialOrder.weighted((Fraction(0), Fraction(0), Fraction(1), Fraction(1)))
    for deg in range(4):
        for mono in standard_basis_slice(e_quad4_generic, order, deg):
            b = ring.monomial(mono)
            assert s.evaluate(b) == v3.evaluate(b) + v4.evaluate(b)


def test_degree_oplus_weight_shifts_by_ones(conic):
    deg = Quasivaluation.degree(conic)
    v = Quasivaluation.weight(conic, (1, 0, 0))
    s = oplus_in_cone([deg, v])
    total = Quasivaluation.weight(conic, (2, 1, 1))
    for text in ("x1", "x2*x3", "x2^2 + x1*x3", "x3^3"):
        f = parse_polynomial(text, R3)
        assert s.evaluate(f) == total.evaluate(f)


PINNED_ELEMENTS = ("1", "x1", "x2", "x2^2", "x1*x2 + x3^2", "x1^2*x3 + x2",
                   "x1*x3 - x2^2")


@pytest.mark.parametrize("make, descriptor, values", [
    (lambda ideal: scale(2, scale(Fraction(1, 2), Quasivaluation.adic(ideal, {0}))),
     "2 (.) 1/2 (.) ord_{1}", "0 1 0 1 0 0 INFINITY"),
    (lambda ideal: scale(0, Quasivaluation.weight(ideal, (1, 0, 2))),
     "0 (.) v_w(1,0,2)", "0 0 0 0 0 0 INFINITY"),
    (lambda ideal: scale(Fraction(3, 2), Quasivaluation.degree(ideal)),
     "3/2 (.) deg", "0 3/2 3/2 3 3 3/2 INFINITY"),
    (lambda ideal: oplus_in_cone([scale(2, Quasivaluation.weight(ideal, (1, 0, 0))),
                                  Quasivaluation.weight(ideal, (1, 0, 1))]),
     "2 (.) v_w(1,0,0) (+) v_w(1,0,1)", "0 3 0 4 2 0 INFINITY"),
], ids=["adic-rescaled", "weight-times-zero", "degree-times-3/2", "oplus-scaled"])
def test_scaled_and_summed_descriptors_and_values(conic, make, descriptor,
                                                  values):
    v = make(conic)
    assert v.descriptor() == descriptor
    assert [str(v.evaluate(parse_polynomial(t, R3)))
            for t in PINNED_ELEMENTS] == values.split()


def test_oplus_refuses_a_scaled_adic_summand(conic):
    scaled = scale(2, Quasivaluation.adic(conic, {0}))
    with pytest.raises(ConeShareError,
                       match=r"^2 \(\.\) ord_\{1\} is not a weight-type"):
        oplus_in_cone([Quasivaluation.weight(conic, (1, 0, 0)), scaled])


def test_oplus_refuses_unshared_cones(conic):
    u = Quasivaluation.weight(conic, (1, 0, 0))
    w = Quasivaluation.weight(conic, (0, 1, 0))
    with pytest.raises(ConeShareError):
        oplus_in_cone([u, w])
    o = Quasivaluation.adic(conic, {0})
    with pytest.raises(ConeShareError):
        oplus_in_cone([u, o])


def test_oplus_refuses_summands_on_another_ideal_object(conic):
    # a second, equal ideal object is another algebra to oplus_in_cone
    twin = ideal_from(R3, "x1*x3 - x2^2")
    with pytest.raises(ValueError, match="^summands live on different algebras$"):
        oplus_in_cone([Quasivaluation.weight(conic, (1, 0, 0)),
                       Quasivaluation.weight(twin, (1, 0, 0))])


# -- standard monomials -------------------------------------------------------------

def test_standard_basis_slices(conic):
    assert standard_basis_slice(conic, GREVLEX, 0) == [(0, 0, 0)]
    deg2 = standard_basis_slice(conic, GREVLEX, 2)
    assert len(deg2) == 5 and (0, 2, 0) not in deg2
    free = ideal_from(R3, "0")
    assert len(standard_basis_slice(free, GREVLEX, 3)) == len(monomials_of_degree(3, 3))


def test_standard_basis_counts_match_hilbert_function(e_pluck_generic):
    series = hilbert_series_quotient(e_pluck_generic)
    for deg in range(5):
        assert (len(standard_basis_slice(e_pluck_generic, GREVLEX, deg))
                == series.hilbert_function(deg))


# -- quasivaluation axioms -----------------------------------------------------------

def _axiom_pairs(ring, count, seed):
    rng = random.Random(repr(("axioms", seed)))
    return [( _random_homogeneous(ring, rng, 3), _random_homogeneous(ring, rng, 3))
            for _ in range(count)]


@pytest.mark.parametrize("make", [
    lambda ideal: Quasivaluation.weight(ideal, (1, 0, 2)),
    lambda ideal: Quasivaluation.weight(ideal, (0, 0, 1)),
    lambda ideal: Quasivaluation.adic(ideal, {0}),
    lambda ideal: Quasivaluation.degree(ideal),
    lambda ideal: scale(Fraction(3, 2), Quasivaluation.weight(ideal, (1, 0, 0))),
])
def test_quasivaluation_axioms(conic, make):
    v = make(conic)
    for f, g in _axiom_pairs(R3, 40, hash(v.descriptor()) % 1000):
        vf, vg = v.evaluate(f), v.evaluate(g)
        assert v.evaluate(f * g) >= vf + vg
        assert v.evaluate(f + g) >= min(vf, vg)
        assert v.evaluate(f.scale(7)) == vf


def test_weight_values_on_variables_inside_trop(e_conic_generic):
    ring = e_conic_generic.ring
    for A in ({0}, {1}, {2}):
        eps = tuple(Fraction(1) if i in A else Fraction(0) for i in range(3))
        assert trop_membership(eps, e_conic_generic)
        v = Quasivaluation.weight(e_conic_generic, eps)
        for i in range(3):
            assert v.evaluate(ring.variable(i)) == eps[i]


def test_additivity_on_standard_products(conic):
    # superadditivity is exact when the product of standard monomials is standard
    w = (Fraction(1), Fraction(0), Fraction(0))
    v = Quasivaluation.weight(conic, w)
    order = MonomialOrder.weighted(w)
    slice2 = standard_basis_slice(conic, order, 2)
    lms = [g.leading(order)[0]
           for g in buchberger_reduced(conic, order)]
    for a in standard_basis_slice(conic, order, 1):
        for b in slice2:
            prod = tuple(x + y for x, y in zip(a, b))
            if any(all(l <= p for l, p in zip(lm, prod)) for lm in lms):
                continue
            fa, fb = R3.monomial(a), R3.monomial(b)
            assert v.evaluate(fa * fb) == v.evaluate(fa) + v.evaluate(fb)
