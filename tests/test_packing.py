"""Packed monomials: one int per monomial inside the Groebner engine.

Within the field width, packed arithmetic must agree with exponent
tuples: the linear key and the packed ints order monomials like
``MonomialOrder.key``, and divisibility, lcm, products and quotients match
the tuple helpers.  A product that leaves a field sets a guard bit, and
``pack`` refuses it.  The engine sizes its fields by degree: a run whose
pairs outgrow them is redone with wider fields, so inputs with large
exponents give the same reduced bases as an engine without any bound (the
expected bases below are the tuple engine's output).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcm import (GREVLEX, LEX, Ideal, MonomialOrder, buchberger_reduced,
                    default_ring, normal_form, parse_polynomial)
import tropcm.groebner
from tropcm.groebner import Packing, _Overflow, _width, groebner_basis_raw
from tropcm.polynomials import mono_div, mono_divides, mono_mul

N = 4

weights = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12),
                   min_size=N, max_size=N)
blocks = st.sets(st.integers(0, N - 1), min_size=1, max_size=N - 1)


@st.composite
def orders(draw, depth=2):
    """grevlex or lex, wrapped in up to ``depth`` weight or elim layers."""
    order = draw(st.sampled_from([GREVLEX, LEX]))
    for _ in range(draw(st.integers(0, depth))):
        if draw(st.booleans()):
            order = MonomialOrder.weighted(draw(weights), tiebreak=order)
        else:
            order = MonomialOrder.elimination(draw(blocks), tiebreak=order)
    return order


def exponents(bits):
    return st.tuples(*[st.integers(0, (1 << bits) - 1)] * N)


def sign(x):
    return (x > 0) - (x < 0)


def dot(v, a):
    return sum(x * y for x, y in zip(v, a))


@settings(max_examples=200, deadline=None)
@given(orders(), st.sampled_from([1, 3, 7, 15]), st.data())
def test_linear_key_orders_like_key(order, bits, data):
    a, b = data.draw(exponents(bits)), data.draw(exponents(bits))
    v = order.linear_key(N, bits)
    assert len(v) == N
    assert sign(dot(v, a) - dot(v, b)) == order.compare(a, b)


def test_linear_key_handles_negative_and_fractional_weights():
    order = MonomialOrder.weighted((Fraction(-1, 2), 3, Fraction(2, 3), -4))
    a, b = (2, 0, 1, 0), (0, 1, 0, 2)
    v = order.linear_key(N, 7)
    assert sign(dot(v, a) - dot(v, b)) == order.compare(a, b) != 0


@settings(max_examples=200, deadline=None)
@given(orders(), st.sampled_from([1, 2]), st.data())
def test_packed_monomials_match_tuples(order, nbytes, data):
    packing = Packing(N, order, nbytes)
    bits = 8 * nbytes - 1
    a, b = data.draw(exponents(bits)), data.draw(exponents(bits))
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.exponents(pa) == a
    assert sign(pa - pb) == order.compare(a, b)
    assert (not (pb - pa) & packing.guards) == mono_divides(a, b)
    if mono_divides(a, b):
        assert pb - pa == packing.pack(mono_div(b, a))
    lcm = packing.lcm(pa, pb)
    assert packing.exponents(lcm) == tuple(map(max, a, b))
    assert lcm == packing.pack(tuple(map(max, a, b))) & packing.low


@settings(max_examples=200, deadline=None)
@given(orders(), st.sampled_from([1, 2]), st.data())
def test_packed_product_overflow_is_detected(order, nbytes, data):
    packing = Packing(N, order, nbytes)
    bits = 8 * nbytes - 1
    a, b = data.draw(exponents(bits)), data.draw(exponents(bits))
    product = packing.pack(a) + packing.pack(b)
    if max(mono_mul(a, b)) < 1 << bits:
        assert not product & packing.guards
        assert product == packing.pack(mono_mul(a, b))
    else:
        assert product & packing.guards
        with pytest.raises(_Overflow):
            packing.pack(mono_mul(a, b))


# -- exponents past the default width -------------------------------------------

R3 = default_ring(3)


def _basis(ring, order, *texts):
    ideal = Ideal(ring, [parse_polynomial(t, ring) for t in texts])
    return [str(g) for g in groebner_basis_raw(ideal, order)]


def _pow(name, e):
    return name if e == 1 else f"{name}^{e}"


def test_lex_run_whose_degrees_outgrow_the_width():
    basis = _basis(R3, LEX, "x1^127 - x2^127", "x1*x2 - x3^2")
    expected = (["x1*x2 - x3^2", "x1^127 - x2^127"]
                + [f"-x2^{128 + k} + {_pow('x1', 126 - k)}*x3^{2 + 2 * k}"
                   for k in range(126)]
                + ["x2^254 - x3^254"])
    assert basis == expected


@pytest.mark.parametrize("e", [127, 40000])
def test_grevlex_run_past_the_width(e):
    assert _basis(R3, GREVLEX, f"x1^{e} - x2^{e}", "x1*x2 - x3^2") == [
        "x1*x2 - x3^2", f"x1^{e} - x2^{e}", f"x2^{e + 1} - x1^{e - 1}*x3^2"]


def test_weight_run_with_negative_weight_past_the_width():
    order = MonomialOrder.weighted((1, -2, 3))
    assert _basis(R3, order, "x1^200*x2 - x3^201", "x2^2 - x1*x3") == [
        "x2^2 - x1*x3", "x1^200*x2 - x3^201", "x1^201*x3 - x2*x3^201"]


@pytest.mark.parametrize("degree,nbytes", [
    (-1, 1), (0, 1), (127, 1), (128, 2), (32767, 2), (32768, 4), (1 << 31, 8)])
def test_width_holds_the_degree(degree, nbytes):
    assert _width(degree) == nbytes


@pytest.mark.parametrize("e,widths", [(100, [1]), (127, [1, 2]), (40000, [4])])
def test_run_is_redone_once_when_a_pair_degree_outgrows_the_width(
        e, widths, monkeypatch):
    # a degree-127 input fits one-byte fields, its degree-128 pairs do not
    seen = []
    run = tropcm.groebner._buchberger

    def recorded(polys, packing, ring, hilbert):
        seen.append(packing.nbytes)
        return run(polys, packing, ring, hilbert)

    monkeypatch.setattr(tropcm.groebner, "_buchberger", recorded)
    assert _basis(R3, GREVLEX, f"x1^{e} - x2^{e}", "x1*x2 - x3^2")[-1] == (
        f"x2^{e + 1} - x1^{e - 1}*x3^2")
    assert seen == widths


NF_ORDERS = [GREVLEX, MonomialOrder.weighted((1, -2, 3)),
             MonomialOrder.elimination([0])]


# the standard monomials here are the powers of x3 under every order; an id
# names the order unless it is grevlex
@pytest.mark.parametrize("text,expected,order", [
    pytest.param(text, expected, order,
                 id="-".join([text, expected] + [order.kind] * (order != GREVLEX)))
    for order in NF_ORDERS
    for text, expected in [("x1^300", "x3^300"),
                           ("x3^200*x2^60 + x1^129", "x3^260 + x3^129"),
                           ("x1^40000*x2", "x3^40001")]])
def test_normal_form_past_the_width_of_the_basis(text, expected, order):
    ideal = Ideal(R3, [parse_polynomial("x1*x2 - x3^2", R3),
                       parse_polynomial("x1^2 - x2*x3", R3)])
    gb = buchberger_reduced(ideal, order)
    assert str(normal_form(parse_polynomial(text, R3), gb)) == expected


@pytest.mark.parametrize("order", NF_ORDERS, ids=lambda o: o.kind)
def test_normal_form_of_zero_and_of_a_constant(order):
    ideal = Ideal(R3, [parse_polynomial("x1*x2 - x3^2", R3)])
    gb = buchberger_reduced(ideal, order)
    assert normal_form(R3.zero(), gb).is_zero()
    assert str(normal_form(parse_polynomial("-7/2", R3), gb)) == "-7/2"


def test_negative_exponent_is_rejected_not_widened():
    with pytest.raises(ValueError):
        Packing(2, GREVLEX, 1).pack((-1, 2))
