import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcm import (ParseError, Polynomial, Ring, default_ring,
                    parse_polynomial, weight_value)
from tropcm.fields import PrimeField
from tropcm.polynomials import _RUN, monomials_of_degree

from conftest import fraction_weight_value, reference_to_string

R3 = default_ring(3)


def brute_initial_form(w, f):
    """Independent oracle: filter terms at the minimal inner product."""
    vals = {m: fraction_weight_value(w, m) for m in f.terms}
    lo = min(vals.values())
    return Polynomial(f.ring, {m: c for m, c in f.terms.items() if vals[m] == lo})


# -- parsing -----------------------------------------------------------------

def test_parse_conic():
    f = parse_polynomial("x1*x3 - x2^2", R3)
    assert f.terms == {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)}


def test_parse_zero():
    assert parse_polynomial("0", R3).terms == {}


def test_parse_normalizes_coefficients():
    f = parse_polynomial("2/4*x1", R3)
    assert f.terms == {(1, 0, 0): Fraction(1, 2)}


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_polynomial("x9 + x1", R3)
    with pytest.raises(ParseError):
        parse_polynomial("x1 + * x2", R3)
    with pytest.raises(ParseError):
        parse_polynomial("x1 / x2", R3)


F7 = Ring(("x1", "x2", "x3"), PrimeField(7))

# the exact message and column of each malformed input
PARSE_ERRORS = [
    (R3, "x1 +", "unexpected 'end of input' (column 5)"),
    (R3, "", "unexpected 'end of input' (column 1)"),
    (R3, "#c", "unexpected 'end of input' (column 3)"),
    (R3, "2/0", "division only by a nonzero constant (column 2)"),
    (R3, "x1/x2", "division only by a nonzero constant (column 3)"),
    (R3, "3/x1", "division only by a nonzero constant (column 2)"),
    (R3, "2/(x1-x1)", "division only by a nonzero constant (column 2)"),
    (R3, "(x1", "expected ), found '' (column 4)"),
    (R3, "x1 + (x2", "expected ), found '' (column 9)"),
    (R3, "x1)", "unexpected ')' (column 3)"),
    (R3, "()", "unexpected ')' (column 2)"),
    (R3, "x1^", "expected int, found '' (column 4)"),
    (R3, "x1^x2", "expected int, found 'x2' (column 4)"),
    (R3, "x1^-2", "expected int, found '-' (column 4)"),
    (R3, "x1^2^3", "unexpected '^' (column 5)"),
    (R3, "x1 $", "unexpected character '$' (column 4)"),
    (R3, "x1.5", "unexpected character '.' (column 3)"),
    (R3, "x1 + * x2", "unexpected '*' (column 6)"),
    (R3, "*x1", "unexpected '*' (column 1)"),
    (R3, "/2", "unexpected '/' (column 1)"),
    (R3, "x1//2", "unexpected '/' (column 4)"),
    (R3, "x1 x2", "unexpected 'x2' (column 4)"),
    (R3, "3x1", "unexpected 'x1' (column 2)"),
    (R3, "x9 + x1", "unknown variable 'x9' (column 1)"),
    (R3, "x1/x9", "unknown variable 'x9' (column 4)"),
    (F7, "1/7", "division only by a nonzero constant (column 2)"),
    (F7, "x1/14", "division only by a nonzero constant (column 3)"),
    (F7, "2/(3+4)", "division only by a nonzero constant (column 2)"),
]


@pytest.mark.parametrize("ring,text,message", PARSE_ERRORS)
def test_parse_error_messages(ring, text, message):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, ring)
    assert str(info.value) == message


def test_tokenizer_classes_match_str_methods():
    # the tokenizer reads \w as str.isalnum() or '_', and \s as str.isspace()
    for ch in map(chr, range(sys.maxunicode + 1)):
        run = _RUN.match(ch)
        kind = None if run is None else run.lastindex or "space"
        expected = (1 if ch in "0123456789" else
                    2 if ch.isalnum() or ch == "_" else
                    "space" if ch.isspace() else None)
        assert kind == expected, ch


# expression trees as (text, value, level): the text reads back as the value
# computed with Polynomial arithmetic; a child whose level is above what its
# parent's grammar slot takes is put in parentheses
ATOM, FACTOR, TERM, SUM = range(4)


def _slot(node, level):
    return node[0] if node[2] <= level else f"({node[0]})"


def _expression_trees(ring):
    zero = (0,) * ring.nvars
    numbers = st.integers(0, 12).map(
        lambda k: (str(k), ring.monomial(zero, k), ATOM))
    names = st.integers(0, ring.nvars - 1).map(
        lambda i: (ring.names[i], ring.variable(i), ATOM))

    def power(node, e):
        return f"{_slot(node, ATOM)}^{e}", node[1] ** e, FACTOR

    def sign(node, neg):
        return (f"{'-' if neg else '+'}{_slot(node, FACTOR)}",
                -node[1] if neg else node[1], FACTOR)

    def product(a, b):
        return f"{_slot(a, TERM)}*{_slot(b, FACTOR)}", a[1] * b[1], TERM

    def quotient(a, b):
        inverse = ring.monomial(zero, ring.field.one() / b[1].terms[zero])
        return f"{_slot(a, TERM)}/{_slot(b, FACTOR)}", a[1] * inverse, TERM

    def plus(a, b, neg):
        return (f"{_slot(a, SUM)} {'-' if neg else '+'} {_slot(b, TERM)}",
                a[1] - b[1] if neg else a[1] + b[1], SUM)

    def grow(children, divisors):
        pairs = st.tuples(children, children)
        return st.one_of(
            st.tuples(children, st.integers(0, 3)).map(lambda t: power(*t)),
            st.tuples(children, st.booleans()).map(lambda t: sign(*t)),
            pairs.map(lambda t: product(*t)),
            st.tuples(children, children, st.booleans()).map(lambda t: plus(*t)),
            *([st.tuples(children, divisors).map(lambda t: quotient(*t))]
              if divisors is not None else []))

    constants = st.recursive(numbers, lambda c: grow(c, None), max_leaves=4)
    divisors = constants.filter(lambda node: not node[1].is_zero())
    return st.recursive(numbers | names, lambda c: grow(c, divisors),
                        max_leaves=8)


@given(st.sampled_from([R3, F7]).flatmap(_expression_trees))
@settings(max_examples=150, deadline=None)
def test_parse_equals_polynomial_arithmetic(node):
    text, value, _ = node
    assert parse_polynomial(text, value.ring) == value


def test_parse_parentheses_and_signs():
    f = parse_polynomial("-(x1 - x2)^2 + 2*(x1*x2)", R3)
    g = parse_polynomial("-x1^2 + 4*x1*x2 - x2^2", R3)
    assert f == g


def test_parse_over_prime_field():
    ring = Ring(("x1", "x2"), PrimeField(7))
    f = parse_polynomial("8*x1 + 1/2*x2", ring)
    assert f.terms[(1, 0)] == ring.field.coerce(1)
    assert f.terms[(0, 1)] == ring.field.coerce(4)


# -- printing round trip -----------------------------------------------------

poly_strategy = st.builds(
    lambda terms: Polynomial(R3, {m: Fraction(c) for m, c in terms}),
    st.lists(st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5)),
        max_size=6))


@given(poly_strategy)
@settings(max_examples=120, deadline=None)
def test_format_parse_round_trip(f):
    assert parse_polynomial(f.to_string(), R3) == f


def _polys(ring, coefficients):
    return st.lists(st.tuples(
        st.tuples(*[st.integers(0, 11)] * ring.nvars), coefficients),
        max_size=8).map(lambda terms: Polynomial(ring, {
            m: ring.field.coerce(c) for m, c in terms}))


@given(st.one_of(
    _polys(default_ring(4), st.fractions(min_value=-40, max_value=40)),
    _polys(Ring(("a", "b_2", "x10"), PrimeField(32003)),
           st.integers(-40000, 40000))))
@settings(max_examples=150, deadline=None)
def test_to_string_equals_reference_formatter(f):
    assert f.to_string() == reference_to_string(f)


@given(poly_strategy)
@settings(max_examples=60, deadline=None)
def test_str_is_to_string_on_every_call(f):
    first = str(f)
    assert first == f.to_string()
    assert str(f) is first                  # formatted once, then kept
    assert str(f) == f.to_string()
    assert repr(f) == f"Polynomial({first})"


# -- weight values -----------------------------------------------------------

def test_weight_value_examples():
    assert weight_value((0, 0, 1, 1), (1, 1, 0, 0)) == 0
    assert weight_value((2, 1, 1), (0, 2, 0)) == 2
    assert weight_value((Fraction(1, 2), Fraction(1, 3), 0), (1, 1, 0)) == Fraction(5, 6)


def test_weight_value_dimension_mismatch():
    with pytest.raises(ValueError):
        weight_value((1, 0), (1, 0, 0))


@given(st.tuples(*[st.integers(0, 4)] * 3), st.tuples(*[st.integers(0, 4)] * 3),
       st.tuples(*[st.fractions(min_value=-3, max_value=3)] * 3))
@settings(max_examples=60, deadline=None)
def test_weight_value_additive(a, b, w):
    ab = tuple(x + y for x, y in zip(a, b))
    assert weight_value(w, ab) == weight_value(w, a) + weight_value(w, b)


# negative entries with mixed denominators, so the integer scale is not 1
fractional_weights3 = st.tuples(
    *[st.fractions(min_value=-4, max_value=4, max_denominator=12)] * 3)


@given(st.tuples(*[st.integers(0, 5)] * 3), fractional_weights3)
@settings(max_examples=100, deadline=None)
def test_weight_value_matches_fraction_sum(m, w):
    value = weight_value(w, m)
    assert isinstance(value, Fraction)
    assert value == fraction_weight_value(w, m)


# -- initial forms -----------------------------------------------------------

def test_initial_form_constant_weight_is_identity():
    f = parse_polynomial("x1*x3 - x2^2 + x1^2", R3)
    assert f.initial_form((1, 1, 1)) == f
    assert f.initial_form((0, 0, 0)) == f


def test_initial_form_conic():
    f = parse_polynomial("x1*x3 - x2^2", R3)
    assert f.initial_form((1, 0, 0)) == parse_polynomial("-x2^2", R3)


def test_initial_form_quad4_keeps_complement_support():
    ring = default_ring(4)
    f = parse_polynomial(
        " + ".join(f"x{i}*x{j}" for i in range(1, 5) for j in range(i, 5)), ring)
    expected = parse_polynomial("x1^2 + x1*x2 + x2^2", ring)
    assert f.initial_form((0, 0, 1, 1)) == expected
    assert f.initial_form((0, 0, 1, 1)) == brute_initial_form((0, 0, 1, 1), f)


def test_initial_form_zero_rejected():
    with pytest.raises(ValueError):
        R3.zero().initial_form((1, 0, 0))


def test_initial_form_weight_length_must_match_ring():
    f = parse_polynomial("x1*x3 - x2^2", R3)
    for w in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="weight length"):
            f.initial_form(w)


nonzero_poly = poly_strategy.filter(lambda f: not f.is_zero())
weights3 = st.tuples(*[st.fractions(min_value=-4, max_value=4)] * 3)


@given(nonzero_poly, nonzero_poly, weights3)
@settings(max_examples=100, deadline=None)
def test_initial_form_multiplicative(f, g, w):
    assert (f * g).initial_form(w) == f.initial_form(w) * g.initial_form(w)


@given(nonzero_poly, weights3, st.fractions(min_value=-3, max_value=3))
@settings(max_examples=80, deadline=None)
def test_initial_form_translation_invariance_homogeneous(f, w, c):
    top = max(sum(m) for m in f.terms)
    fh = Polynomial(R3, {m: v for m, v in f.terms.items() if sum(m) == top})
    shifted = tuple(x + c for x in w)
    assert fh.initial_form(w) == fh.initial_form(shifted)


@given(nonzero_poly, weights3, st.fractions(min_value=Fraction(1, 3), max_value=4))
@settings(max_examples=80, deadline=None)
def test_initial_form_positive_scaling(f, w, c):
    scaled = tuple(c * x for x in w)
    assert f.initial_form(w) == f.initial_form(scaled)


@given(nonzero_poly, weights3)
@settings(max_examples=60, deadline=None)
def test_initial_form_matches_brute_force(f, w):
    assert f.initial_form(w) == brute_initial_form(w, f)


# -- structure ---------------------------------------------------------------

def test_homogeneous_components():
    f = parse_polynomial("x1 + x2^2 + x1*x2 + 3", R3)
    comps = f.homogeneous_components()
    assert sorted(comps) == [0, 1, 2]
    assert sum(comps.values(), R3.zero()) == f


def test_substitute_permutation():
    f = parse_polynomial("x1*x3 - x2^2", R3)
    images = [R3.variable(1), R3.variable(2), R3.variable(0)]
    assert f.substitute(images) == parse_polynomial("x2*x1 - x3^2", R3)


def test_extend_places_each_variable():
    # the ring radical_membership builds: one more variable, placed last
    ext = R3.extended("t")
    f = parse_polynomial("x1*x3 - x2^2 + 2*x1^2", R3)
    assert f.extend(ext) == parse_polynomial("x1*x3 - x2^2 + 2*x1^2", ext)
    assert f.extend(ext).terms == {m + (0,): c for m, c in f.terms.items()}


def test_monomials_of_degree_is_a_new_list_each_call():
    first = monomials_of_degree(3, 2)
    expected = list(first)
    first.reverse()
    first.append((9, 9, 9))
    assert monomials_of_degree(3, 2) == expected
    assert monomials_of_degree(3, 2) is not monomials_of_degree(3, 2)
    assert monomials_of_degree(0, 0) == [()] and monomials_of_degree(0, 1) == []
