from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcm import GREVLEX, LEX, MonomialOrder
from tropcm.orders import grevlex_key
from tropcm.polynomials import monomials_of_degree, weight_value


def test_grevlex_same_degree():
    # x1^2 beats x1*x2
    assert GREVLEX.compare((2, 0), (1, 1)) > 0
    assert GREVLEX.compare((1, 1), (2, 0)) < 0


def test_grevlex_degree_first():
    assert GREVLEX.compare((0, 3), (2, 0)) > 0


def test_lex():
    assert LEX.compare((1, 0, 0), (0, 5, 5)) > 0


def test_weight_refined_min_convention():
    order = MonomialOrder.weighted((1, 0, 0))
    # weight 0 beats weight 1 within one degree
    assert order.compare((0, 2, 0), (1, 0, 1)) > 0


def test_reflexive_equal():
    for order in (GREVLEX, LEX, MonomialOrder.weighted((1, 2, 3))):
        assert order.compare((1, 2, 0), (1, 2, 0)) == 0


def test_elimination_block_dominates():
    order = MonomialOrder.elimination([0])
    # any monomial containing x1 beats any of the same degree without it
    assert order.compare((1, 0, 0), (0, 2, 0)) > 0
    assert order.compare((1, 0, 1), (0, 3, 0)) > 0


@pytest.mark.parametrize("order", [
    GREVLEX, LEX,
    MonomialOrder.weighted((Fraction(1, 2), 0, 1, 0)),
    MonomialOrder.weighted((1, 1, 1, 1)),
    MonomialOrder.elimination([0, 2]),
])
@pytest.mark.parametrize("n,deg", [(3, 4), (4, 2), (4, 4)])
def test_total_order_within_degree(order, n, deg):
    monos = monomials_of_degree(n, deg)
    w = order.weight
    if w is not None and len(w) != n:
        pytest.skip("weight length bound to n=4")
    if order.block is not None and any(i >= n for i in order.block):
        pytest.skip("block bound to larger n")
    for a, b in product(monos, monos):
        cab = order.compare(a, b)
        cba = order.compare(b, a)
        assert cab == -cba                      # antisymmetry
        assert (cab == 0) == (a == b)           # totality within a degree
    for a, b, c in product(monos[:8], monos[:8], monos[:8]):
        if order.compare(a, b) >= 0 and order.compare(b, c) >= 0:
            assert order.compare(a, c) >= 0     # transitivity


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
