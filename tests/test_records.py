"""The record classes: field-wise equality and hashing of the value types,
the checks their constructors make, and, for the audits and reports that
are plain dicts, containers that no two of them share."""

import pytest

from tropcm import (QQ, ConeCA, HilbertSeries, PrimeField, Ring,
                    default_ring, genericity_audit, verify_gr_presentation)

from conftest import ideal_from


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


@pytest.mark.parametrize("build, message", [
    (lambda: Ring(("x", "y", "x")), "duplicate variable names"),
    (lambda: ConeCA(frozenset({3}), 3), "cone subset out of range"),
    (lambda: ConeCA(frozenset({-1}), 3), "cone subset out of range"),
], ids=["ring", "cone-above", "cone-below"])
def test_constructors_reject_bad_fields(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_default_containers_are_not_shared():
    conic = ideal_from(default_ring(3), "x1*x3 - x2^2")
    first, second = genericity_audit(conic), genericity_audit(conic)
    first["checks"].append({})
    assert second["checks"] == first["checks"][:-1]
    first, second = (verify_gr_presentation(conic, {0}) for _ in range(2))
    first["evidence"]["k"] = 1
    assert "k" not in second["evidence"]


@pytest.mark.parametrize("record", [
    Ring(("x",)), HilbertSeries((1,), 1), ConeCA(frozenset(), 1),
], ids=lambda r: type(r).__name__)
def test_records_are_slotted(record):
    assert not hasattr(record, "__dict__")
