"""``macaulay.row_echelon`` against the field loop it runs beside.

Over Q the echelon eliminates on primitive integer rows; over F_p it runs
the field loop.  Both must return the rows and pivots of the textbook
reduced row echelon form, kept as the oracle in ``conftest``.  The routine
is itself the oracle that cone bases are checked against, so its answers
are pinned here directly.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import tropcm.macaulay
from tropcm.fields import GFElement, PrimeField
from tropcm.macaulay import matrix_rank, row_echelon

from conftest import field_row_echelon

small_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**12)))


@st.composite
def rational_matrices(draw):
    """Tall, wide and square Fraction matrices, some with zero rows and
    with rows repeated or rescaled, down to the empty and all-zero ones."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rows = [draw(st.lists(small_rationals, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            c = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 7)]))
            rows.insert(draw(st.integers(0, len(rows))),
                        [c * x for x in draw(st.sampled_from(rows))])
        else:
            rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    return rows


def _as_pairs(result):
    rows, pivots = result
    return [list(r) for r in rows], list(pivots)


@given(rational_matrices())
@settings(max_examples=300, deadline=None)
def test_rational_echelon_matches_the_field_loop(rows):
    got = _as_pairs(row_echelon(rows))
    assert got == _as_pairs(field_row_echelon(rows))
    assert matrix_rank(rows) == len(got[1])
    assert all(type(x) is Fraction for row in got[0] for x in row)
    assert all(row[c] == 1 for row, c in zip(*got))


def test_rational_echelon_shapes():
    zero, one = Fraction(0), Fraction(1)
    assert row_echelon([]) == ([], [])
    assert row_echelon([[zero, zero], [zero, zero]]) == ([], [])
    tall = [[Fraction(2), Fraction(4)], [Fraction(1, 3), Fraction(2, 3)],
            [zero, Fraction(-5, 2)]]
    assert row_echelon(tall) == ([[one, zero], [zero, one]], [0, 1])
    wide = [[zero, Fraction(3), Fraction(6), one], [zero, Fraction(1, 2), one, zero]]
    assert row_echelon(wide) == ([[zero, one, Fraction(2), zero],
                                  [zero, zero, zero, one]], [1, 3])


def test_prime_field_echelon_runs_the_field_loop(monkeypatch):
    def refuse(row):
        raise AssertionError("F_p rows reached the integer echelon")

    monkeypatch.setattr(tropcm.macaulay, "_primitive", refuse)
    F = PrimeField(32003)
    rows = [[F.coerce(x) for x in row] for row in
            [[0, 3, 5, 7], [2, 0, 1, 0], [2, 3, 6, 7], [0, 0, 0, 0], [4, -6, 0, 1]]]
    echelon, pivots = row_echelon(rows)
    expected, expected_pivots = field_row_echelon(rows)
    assert pivots == expected_pivots == [0, 1, 2]
    assert echelon == expected
    assert all(isinstance(x, GFElement) for row in echelon for x in row)


def test_rank_over_q_and_over_a_prime_field():
    rows = [[Fraction(2), Fraction(4), Fraction(1, 3)],
            [Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(3), Fraction(6), Fraction(1, 3)]]
    assert matrix_rank(rows) == 2
    assert matrix_rank([]) == 0
    F = PrimeField(7)
    # (3, 6) and (5, 3) are 3 and 5 times (1, 2) over F_7
    assert matrix_rank([[F.coerce(x) for x in row]
                        for row in [[1, 2], [3, 6], [5, 3]]]) == 1
