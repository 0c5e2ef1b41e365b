"""Hilbert series of monomial quotients against counting by hand.

For a monomial ideal I in k[x_1..x_n], the degree-m piece of S/I has a
basis of the degree-m monomials that no generator divides, and the Krull
dimension of S/I is the largest number of variables whose monomials all
avoid I.  Both are counted here directly, with no pivot recursion.
"""

import random
from itertools import combinations

import pytest

from tropcm import HilbertSeries
from tropcm.polynomials import mono_divides, monomials_of_degree

MAX_DEGREE = 6


def _standard_count(gens, n, m):
    return sum(1 for mono in monomials_of_degree(n, m)
               if not any(mono_divides(g, mono) for g in gens))


def _krull_dimension(gens, n):
    """Size of the largest variable set that contains no generator's support."""
    return max(len(s) for k in range(n + 1) for s in combinations(range(n), k)
               if not any(all(i in s for i, e in enumerate(g) if e) for g in gens))


def _random_ideal(rng):
    n = rng.randint(1, 5)
    gens = [tuple(rng.randint(0, 3) for _ in range(n))
            for _ in range(rng.randint(1, 6))]
    return [g for g in gens if any(g)], n


def _pure_powers(rng):
    n = rng.randint(1, 5)
    return [tuple(rng.randint(1, 3) if i == j else 0 for i in range(n))
            for j in rng.sample(range(n), rng.randint(1, n))], n


def _coprime(rng):
    """Generators on disjoint sets of variables."""
    n = rng.randint(2, 5)
    order = rng.sample(range(n), n)
    gens = []
    while order:
        block = order[:rng.randint(1, len(order))]
        order = order[len(block):]
        gens.append(tuple(rng.randint(1, 3) if i in block else 0 for i in range(n)))
    return gens, n


def _check_against_counts(gens, n):
    series = HilbertSeries.from_leading_monomials(gens, n)
    top = max(MAX_DEGREE, len(series.numerator) - 1)
    counts = [_standard_count(gens, n, m) for m in range(top + 1)]
    assert [series.hilbert_function(m) for m in range(top + 1)] == counts, gens
    assert series.dimension() == series.pole == _krull_dimension(gens, n), gens
    # reduced form: no factor (1 - t) is left to cancel
    assert sum(series.numerator) != 0, gens
    if series.pole == 0:
        # finite length: the numerator is the Hilbert function itself
        assert list(series.numerator) == counts[:len(series.numerator)], gens
        assert not any(counts[len(series.numerator):]), gens
        assert "/" not in str(series), gens
    else:
        assert str(series).endswith(f"/ (1-t)^{series.pole}"), gens


CASES = {"random": (_random_ideal, 300), "pure-powers": (_pure_powers, 40),
         "coprime": (_coprime, 40), "empty": (lambda rng: ([], rng.randint(1, 5)), 5)}


@pytest.mark.parametrize("kind", CASES)
def test_series_counts_the_standard_monomials(kind):
    make, count = CASES[kind]
    rng = random.Random(20201)
    for _ in range(count):
        _check_against_counts(*make(rng))


@pytest.mark.parametrize("n", range(1, 6))
def test_unit_ideal_has_the_zero_series(n):
    series = HilbertSeries.from_leading_monomials([(0,) * n], n)
    assert (series.numerator, series.pole, series.dimension()) == ((0,), 0, 0)
    assert str(series) == "0"
    assert all(series.hilbert_function(m) == 0 for m in range(MAX_DEGREE + 1))
