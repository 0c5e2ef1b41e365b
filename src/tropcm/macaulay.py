"""Degree-truncated Macaulay matrices: brute-force graded slices of ideals.

This route never touches the Buchberger engine.  A degree slice of an
ideal is spanned by the monomial multiples of the original generators;
row reduction over the exact field gives a canonical reduced echelon
form, so two slices agree iff their echelon matrices are equal.  For a
weight vector, echelonizing against the weight-refined column order and
taking initial forms of the rows spans the same slice of the initial
ideal, which is the independent oracle for in_w computations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .orders import GREVLEX, MonomialOrder, integer_weight
from .polynomials import Polynomial, mono_mul, monomials_of_degree


def row_echelon(rows):
    """(nonzero rows of the reduced row echelon form, pivot columns).

    The input rows are copied, not changed; the rank is the number of pivots.
    Over Q the elimination runs on primitive integer rows, cross-multiplied,
    and each row is divided by its pivot once at the end.
    """
    rows, pivots, rational = _echelon(rows)
    if rational:
        rows = [[Fraction(a, row[c]) for a in row] for row, c in zip(rows, pivots)]
    return rows[:len(pivots)], pivots


def matrix_rank(rows):
    """The number of pivots of ``row_echelon``, without the reduced rows."""
    return len(_echelon(rows)[1])


def gram_matrix(q):
    """Symmetric matrix of a quadratic form; None in characteristic 2."""
    ring = q.ring
    field = ring.field
    if getattr(field, "char", 0) == 2:
        return None
    n = ring.nvars
    half = field.one() / field.coerce(2)
    M = [[field.zero() for _ in range(n)] for _ in range(n)]
    for m, c in q.terms.items():
        idx = [i for i, e in enumerate(m) for _ in range(e)]
        i, j = idx[0], idx[1]
        if i == j:
            M[i][i] = c
        else:
            M[i][j] = M[i][j] + c * half
            M[j][i] = M[i][j]
    return M


def _echelon(rows):
    """``(rows, pivots, rational)`` of ``row_echelon``, Q rows undivided."""
    rational = all(type(x) is Fraction for row in rows for x in row)
    rows = [_integral(r) if rational else list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        pv = top[c]
        if not rational:
            top = rows[r] = [x / pv for x in top]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = (_primitive([pv * a - f * b for a, b in zip(row, top)])
                           if rational else [a - f * b for a, b in zip(row, top)])
        pivots.append(c)
    return rows, pivots, rational


def _primitive(row):
    k = gcd(*row)
    return [a // k for a in row] if k > 1 else row


def _integral(row):
    """The primitive integer multiple of a row of Fractions."""
    return _primitive(list(integer_weight(row)[0]))


def _column_basis(n, degree, order):
    cols = sorted(monomials_of_degree(n, degree), key=order.key, reverse=True)
    index = {m: i for i, m in enumerate(cols)}
    return cols, index


def _slice_rows(generators, degree, cols, index):
    rows = []
    for g in generators:
        if g.is_zero():
            continue
        gdeg = g.degree()
        if gdeg > degree or not g.is_homogeneous():
            if gdeg > degree:
                continue
            raise ValueError("graded slices need homogeneous generators")
        n = g.ring.nvars
        for shift in monomials_of_degree(n, degree - gdeg):
            row = [g.ring.field.zero()] * len(cols)
            for m, c in g.terms.items():
                row[index[mono_mul(m, shift)]] = c
            rows.append(row)
    return rows


def graded_slice(generators, degree, order=GREVLEX):
    """Canonical echelon basis of the degree slice, columns ordered by
    ``order`` descending."""
    if not generators:
        return [], []
    n = generators[0].ring.nvars
    cols, index = _column_basis(n, degree, order)
    rows = _slice_rows(generators, degree, cols, index)
    if not rows:
        return [], cols
    echelon, _ = row_echelon(rows)
    return echelon, cols


def initial_slice_oracle(generators, w, degree):
    """Echelon basis of the degree slice of in_w(<generators>), brute force.

    Echelonize the slice against the w-refined column order, take the
    initial form of every row, then re-echelonize against the canonical
    grevlex column order so the result is comparable with any other route.
    """
    if not generators:
        return [], []
    ring = generators[0].ring
    worder = MonomialOrder.weighted(w)
    cols_w, index_w = _column_basis(ring.nvars, degree, worder)
    rows = _slice_rows(generators, degree, cols_w, index_w)
    if not rows:
        return graded_slice([], degree)
    echelon, _ = row_echelon(rows)
    initials = []
    for row in echelon:
        p = Polynomial(ring, {cols_w[i]: c for i, c in enumerate(row) if c})
        initials.append(p.initial_form(w))
    cols, index = _column_basis(ring.nvars, degree, GREVLEX)
    out_rows = []
    for p in initials:
        row = [ring.field.zero()] * len(cols)
        for m, c in p.terms.items():
            row[index[m]] = c
        out_rows.append(row)
    echelon, _ = row_echelon(out_rows)
    return echelon, cols
