from fractions import Fraction

import pytest

from tropcm import (apply_change, default_ring, genericity_audit,
                    hilbert_series_quotient, random_gl)
from tropcm.fields import PrimeField
from tropcm.macaulay import row_echelon

from conftest import grevlex_basis, ideal_from

R3 = default_ring(3)


def test_random_gl_deterministic():
    a = random_gl(4, seed=9, bound=50)
    b = random_gl(4, seed=9, bound=50)
    assert a == b
    assert random_gl(4, seed=10, bound=50) != a


def test_random_gl_single_variable():
    g = random_gl(1, seed=0, bound=5)
    assert g[0][0] != 0


def test_random_gl_always_invertible():
    for seed in range(8):
        g = random_gl(5, seed=seed, bound=3)
        assert len(row_echelon(g)[1]) == 5


def test_random_gl_over_prime_field():
    F = PrimeField(7)
    g = random_gl(3, seed=1, bound=100, field=F)
    assert len(row_echelon(g)[1]) == 3


def test_random_gl_bound_validation():
    with pytest.raises(ValueError):
        random_gl(3, seed=0, bound=1)


def test_apply_identity_and_permutation():
    I = ideal_from(R3, "x1*x3 - x2^2")
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(3))
                  for i in range(3))
    assert grevlex_basis(apply_change(ident, I)) == grevlex_basis(I)
    # x1 -> x2, x2 -> x3, x3 -> x1
    perm = ((Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0), Fraction(0)))
    assert grevlex_basis(apply_change(perm, I)) == grevlex_basis(
        ideal_from(R3, "x2*x1 - x3^2"))


def test_change_preserves_hilbert_series(e_pluck, e_pluck_generic):
    assert hilbert_series_quotient(e_pluck) == hilbert_series_quotient(e_pluck_generic)


def test_inverse_round_trip(e_quad4):
    g = random_gl(4, seed=3, bound=20)
    there = apply_change(g, e_quad4)
    # Gauss-Jordan on [g | 1] leaves [1 | g^-1]
    one, zero = Fraction(1), Fraction(0)
    echelon, pivots = row_echelon([list(row) + [one if i == j else zero
                                                for j in range(4)]
                                   for i, row in enumerate(g)])
    assert pivots == [0, 1, 2, 3]
    inverse = tuple(tuple(row[4:]) for row in echelon)
    back = apply_change(inverse, there)
    assert grevlex_basis(back) == grevlex_basis(e_quad4)


def test_audit_untransformed_conic_passes():
    I = ideal_from(R3, "x1*x3 - x2^2")
    audit = genericity_audit(I, maxA=1)
    assert audit["pass"]
    assert {tuple(c["A"]) for c in audit["checks"]} == {(1,), (2,), (3,)}
    assert all(c["expected_dim"] == 1 for c in audit["checks"])


def test_audit_monomial_hypersurface():
    I = ideal_from(R3, "x1*x2")
    audit = genericity_audit(I, maxA=1)
    by_A = {tuple(c["A"]): c for c in audit["checks"]}
    assert by_A[(3,)]["pass"] and by_A[(3,)]["actual_dim"] == 1


def test_audit_flags_failures_monotonically():
    # x1 is a generator, so cutting by it cannot drop the dimension
    R4 = default_ring(4)
    I = ideal_from(R4, "x1")
    audit = genericity_audit(I, maxA=2)
    by_A = {tuple(c["A"]): c for c in audit["checks"]}
    assert not by_A[(1,)]["pass"]
    for j in (2, 3, 4):
        assert not by_A[(1, j)]["pass"]
    assert not audit["pass"]
    assert any(not c["pass"] for c in audit["checks"])


def test_audit_sampling_is_deterministic(e_pluck_generic):
    a = genericity_audit(e_pluck_generic, maxA=4, max_subsets=12, seed=5)
    b = genericity_audit(e_pluck_generic, maxA=4, max_subsets=12, seed=5)
    assert [c["A"] for c in a["checks"]] == [c["A"] for c in b["checks"]]
    assert len(a["checks"]) == 12
    assert a["pass"]


def test_audit_maxa_bound(e_conic):
    with pytest.raises(ValueError):
        genericity_audit(e_conic, maxA=2)  # d - 1 == 1


def test_audit_report_shape(e_conic_generic):
    audit = genericity_audit(e_conic_generic, maxA=1, seed=2)
    assert set(audit) == {"d", "seed", "pass", "checks"}
    assert audit["pass"] is True
    assert {"A", "expected_dim", "actual_dim", "pass"} <= set(audit["checks"][0])
