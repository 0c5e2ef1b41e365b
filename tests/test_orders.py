from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcm import GREVLEX, LEX, MonomialOrder
from tropcm.orders import grevlex_key
from tropcm.polynomials import monomials_of_degree, weight_value

from conftest import compare, elimination


def test_grevlex_same_degree():
    # x1^2 beats x1*x2
    assert compare(GREVLEX, (2, 0), (1, 1)) > 0
    assert compare(GREVLEX, (1, 1), (2, 0)) < 0


def test_grevlex_degree_first():
    assert compare(GREVLEX, (0, 3), (2, 0)) > 0


def test_lex():
    assert compare(LEX, (1, 0, 0), (0, 5, 5)) > 0


def test_weight_refined_min_convention():
    order = MonomialOrder.weighted((1, 0, 0))
    # weight 0 beats weight 1 within one degree
    assert compare(order, (0, 2, 0), (1, 0, 1)) > 0


def test_reflexive_equal():
    for order in (GREVLEX, LEX, MonomialOrder.weighted((1, 2, 3))):
        assert compare(order, (1, 2, 0), (1, 2, 0)) == 0


def test_minus_one_on_A_orders_as_degree_in_A_then_grevlex():
    # the block order that eliminates x_A: total degree in x_A first
    monos = [m for deg in range(5) for m in monomials_of_degree(4, deg)]
    for A in ({0}, {1, 3}, {0, 1, 2}):
        block = sorted(monos, key=lambda m: (sum(m[i] for i in A), *grevlex_key(m)))
        assert sorted(monos, key=elimination(A, 4).key) == block


@pytest.mark.parametrize("order", [
    GREVLEX, LEX,
    MonomialOrder.weighted((Fraction(1, 2), 0, 1, 0)),
    MonomialOrder.weighted((1, 1, 1, 1)),
    partial(elimination, {0, 2}),           # sized to n in the test
])
@pytest.mark.parametrize("n,deg", [(3, 4), (4, 2), (4, 4)])
def test_total_order_within_degree(order, n, deg):
    monos = monomials_of_degree(n, deg)
    if callable(order):
        order = order(n)
    if order.weight is not None and len(order.weight) != n:
        pytest.skip("weight length bound to n=4")
    for a, b in product(monos, monos):
        cab = compare(order, a, b)
        cba = compare(order, b, a)
        assert cab == -cba                      # antisymmetry
        assert (cab == 0) == (a == b)           # totality within a degree
    for a, b, c in product(monos[:8], monos[:8], monos[:8]):
        if compare(order, a, b) >= 0 and compare(order, b, c) >= 0:
            assert compare(order, a, c) >= 0    # transitivity


fractional_weights = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    min_size=4, max_size=4)


@given(fractional_weights)
@settings(max_examples=80, deadline=None)
def test_weight_key_matches_exact_weight_then_grevlex(w):
    # the key sums integer-scaled weights; the order must be the one the
    # exact rational weight values give, ties broken by grevlex
    order = MonomialOrder.weighted(w)
    monos = monomials_of_degree(4, 2) + monomials_of_degree(4, 3)
    by_key = sorted(monos, key=order.key)
    by_value = sorted(monos, key=lambda m: (-weight_value(w, m), grevlex_key(m)))
    assert by_key == by_value


def test_weight_scaling_keeps_descriptor():
    order = MonomialOrder.weighted((Fraction(1, 2), Fraction(2, 3), 0))
    assert order.weight == (Fraction(1, 2), Fraction(2, 3), Fraction(0))
    assert order.descriptor() == "weight(1/2,2/3,0);grevlex"


def test_weighted_orders_are_shared_per_weight():
    order = MonomialOrder.weighted((1, 0, 2))
    assert MonomialOrder.weighted((Fraction(1), 0, Fraction(2))) is order
    assert MonomialOrder.weighted([1, 0, 2]) is order
    assert order.descriptor() == "weight(1,0,2);grevlex"
    assert order.weight == (1, 0, 2) and order.iweight == (1, 0, 2)
    assert MonomialOrder.weighted((1, 0, 3)) is not order
