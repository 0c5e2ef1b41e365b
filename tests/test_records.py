"""The record classes: field-wise equality and hashing of the value types,
the checks their constructors make, and defaults that no two instances
share."""

from fractions import Fraction

import pytest

from tropcm import (QQ, ConeCA, GenericityAudit, HilbertSeries, LinearChange,
                    PrimeField, PrimenessCertificate, Ring, VerificationReport)
from tropcm.generic import AuditCheck

IDENTITY = tuple(tuple(Fraction(int(i == j)) for j in range(2)) for i in range(2))


def assert_equal_values(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: "a"}[b] == "a"


def test_rings_compare_by_names_and_field():
    a, b = Ring(("x", "y"), PrimeField(7)), Ring(("x", "y"), PrimeField(7))
    assert a.field is not b.field
    assert_equal_values(a, b)
    assert a == a
    assert Ring(("x",)) == Ring(("x",), QQ)
    assert a != Ring(("x", "y"), PrimeField(11))
    assert a != Ring(("y", "x"), PrimeField(7))
    assert a != ("x", "y")
    assert (a.nvars, Ring(()).nvars) == (2, 0)


def test_hilbert_series_compare_by_reduced_form():
    # (1 - t) / (1 - t)^2 = 1 / (1 - t)
    assert_equal_values(HilbertSeries((1,), 1), HilbertSeries((1, -1), 2))
    assert HilbertSeries((1,), 1) != HilbertSeries((1,), 2)
    assert HilbertSeries((1,), 1) != (1,)


def test_cones_compare_by_subset_and_ambient_dimension():
    assert_equal_values(ConeCA(frozenset({0, 2}), 3), ConeCA(frozenset([2, 0]), 3))
    assert ConeCA(frozenset({0, 2}), 3) != ConeCA(frozenset({0, 2}), 4)
    assert ConeCA(frozenset({0}), 3) != ConeCA(frozenset({2}), 3)


def test_linear_changes_compare_field_by_field():
    change = LinearChange(IDENTITY, 3, 20)
    assert_equal_values(change, LinearChange(IDENTITY, 3, 20, QQ))
    assert_equal_values(LinearChange(IDENTITY, 3, 20, PrimeField(7)),
                        LinearChange(IDENTITY, 3, 20, PrimeField(7)))
    assert change != LinearChange(IDENTITY, 4, 20)
    assert change != LinearChange(IDENTITY, 3, 21)
    assert change != LinearChange(IDENTITY, 3, 20, PrimeField(7))
    assert change != LinearChange(IDENTITY[::-1], 3, 20)


def test_audit_checks_compare_field_by_field():
    assert_equal_values(AuditCheck((1, 3), 2, 2), AuditCheck((1, 3), 2, 2))
    assert AuditCheck((1, 3), 2, 2) != AuditCheck((1, 3), 2, 3)


@pytest.mark.parametrize("build, message", [
    (lambda: Ring(("x", "y", "x")), "duplicate variable names"),
    (lambda: ConeCA(frozenset({3}), 3), "cone subset out of range"),
    (lambda: ConeCA(frozenset({-1}), 3), "cone subset out of range"),
], ids=["ring", "cone-above", "cone-below"])
def test_constructors_reject_bad_fields(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_default_containers_are_not_shared():
    first, second = GenericityAudit(2, 0), GenericityAudit(2, 0)
    first.checks.append(AuditCheck((1,), 1, 1))
    assert second.checks == []
    first, second = VerificationReport("c", {}, "pass"), VerificationReport("c", {}, "pass")
    first.evidence["k"] = 1
    assert second.evidence == {}


@pytest.mark.parametrize("record", [
    Ring(("x",)), HilbertSeries((1,), 1), ConeCA(frozenset(), 1),
    LinearChange(IDENTITY, 0, 2), AuditCheck((), 1, 1), GenericityAudit(1, 0),
    VerificationReport("c", {}, "pass"), PrimenessCertificate("linear", {}),
], ids=lambda r: type(r).__name__)
def test_records_are_slotted(record):
    assert not hasattr(record, "__dict__")
