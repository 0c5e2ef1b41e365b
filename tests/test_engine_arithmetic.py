"""The engine's coefficient arithmetic over Q.

Inside ``groebner_basis_raw`` the elements are primitive integer
polynomials and reduction is fraction-free; what leaves the engine must
still be the monic reduced basis with ``Fraction`` coefficients, and
``normal_form`` must return the remainder itself, not a multiple of it.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropcm import (GREVLEX, Ideal, MonomialOrder, Polynomial,
                    buchberger_reduced, default_ring, normal_form,
                    parse_polynomial)
from tropcm.groebner import groebner_basis_raw
from tropcm.polynomials import monomials_of_degree

from conftest import fraction_normal_form, ideal_from

R4 = default_ring(4)
ORDERS = {"grevlex": GREVLEX,
          "weight": MonomialOrder.weighted((Fraction(1, 2), 0, Fraction(3, 2), 1)),
          "elim": MonomialOrder.elimination([0])}


def _rational_quadrics(seed, count):
    """Dense quadrics in 4 variables with mixed-denominator coefficients."""
    rng = random.Random(seed)
    return [Polynomial(R4, {m: Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                            for m in monomials_of_degree(4, 2)})
            for _ in range(count)]


TWISTED_CUBIC = ideal_from(R4, "x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - x2*x3")
GENERATORS = {
    "twisted-cubic": list(TWISTED_CUBIC.generators),
    "two-rational-quadrics": _rational_quadrics(5, 2),
}
BASES = {(name, o): [str(g) for g in
                     groebner_basis_raw(Ideal(R4, gens), ORDERS[o])]
         for name, gens in GENERATORS.items() for o in ORDERS}

nonzero_rationals = st.builds(
    Fraction,
    st.integers(-10**30, 10**30).filter(bool),
    st.one_of(st.integers(1, 12), st.integers(1, 10**24)))


@given(st.sampled_from(sorted(BASES)), st.data())
@settings(max_examples=60, deadline=None)
def test_rescaled_generators_give_the_same_reduced_basis(case, data):
    name, order_name = case
    gens = [g.scale(data.draw(nonzero_rationals)) for g in GENERATORS[name]]
    basis = groebner_basis_raw(Ideal(R4, gens), ORDERS[order_name])
    assert [str(g) for g in basis] == BASES[case]


def _assert_monic_fractions(basis, order):
    # a leaked int prints like a Fraction, but int / int is a float
    assert basis
    for g in basis:
        assert all(type(c) is Fraction for c in g.terms.values()), str(g)
        assert g.leading(order)[1] == 1, str(g)


def test_engine_output_is_monic_with_fraction_coefficients():
    single = [parse_polynomial("2*x1 - 4*x2", R4)]
    unit = [parse_polynomial("5/2", R4), parse_polynomial("3*x1 - 9*x2", R4)]
    for gens in list(GENERATORS.values()) + [single, unit]:
        for order in ORDERS.values():
            _assert_monic_fractions(groebner_basis_raw(Ideal(R4, gens), order),
                                    order)
    assert groebner_basis_raw(Ideal(R4, unit), GREVLEX) == [R4.one()]


cubics = st.dictionaries(
    st.sampled_from(monomials_of_degree(4, 3)),
    st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool),
              st.integers(1, 10**9)),
    min_size=1, max_size=12)


@given(st.sampled_from(sorted(BASES)), cubics)
@settings(max_examples=60, deadline=None)
def test_normal_form_is_the_exact_remainder(case, terms):
    name, order_name = case
    order = ORDERS[order_name]
    gb = buchberger_reduced(Ideal(R4, GENERATORS[name]), order)
    f = Polynomial(R4, terms)
    expected = fraction_normal_form(f, gb.basis, order)
    assert normal_form(f, gb) == expected
