"""Every ``fail`` branch of the claims, reached by breaking one side.

A claim compares two routes to the same object.  Each case here replaces
one route by a wrong one: a function the claim looks up in
``tropcm.theorems``, or the evaluation of one quasivaluation.  The claim
must then report ``fail`` with its exact evidence, a ``witness`` among
it, ``verify`` must exit 1, and ``report`` must print the witness line
and exit 1.
"""

import json
from fractions import Fraction

import pytest

import tropcm.theorems
from tropcm import Ideal, parse_polynomial
from tropcm.cli import main
from tropcm.quasival import Quasivaluation

CONIC = "vars: x1 x2 x3\nx1*x3 - x2^2\n"
LINEAR = "vars: x1 x2 x3\nx1 + x2 + x3\n"


def _ideal_of(text):
    """A stand-in for ``initial_ideal``: the ideal of ``text``, whatever
    the weight and the ideal."""
    return lambda w, ideal: Ideal(ideal.ring, [parse_polynomial(text, ideal.ring)])


def _initial_ideal_at_zero(text):
    """``initial_ideal`` except at the zero weight, where it gives ``text``."""
    real = tropcm.theorems.initial_ideal
    return lambda w, ideal: (real(w, ideal) if any(w)
                             else _ideal_of(text)(w, ideal))


def _shift_values_of(w):
    """``Quasivaluation.evaluate`` plus one for the weight ``w`` alone."""
    w = tuple(Fraction(x) for x in w.split(","))
    real = Quasivaluation.evaluate
    return lambda self, f: real(self, f) + (1 if self.w == w else 0)


def _constant(value):
    return lambda *args: value


def _cones(verdict, rows):
    """Well-poised cone entries of one verdict with no certificate."""
    return [{"A": A, "certificate": None, "codim": codim,
             "prime_verdict": verdict, "w": w} for A, codim, w in rows]


WELL_POISED_CONES = [([1], 0, "8,0,0"), ([2], 0, "0,9,0"), ([3], 0, "0,0,2"),
                     ([], 1, "0,0,0")]

# id -> (ideal text, verify flags, (target, name, replacement), evidence)
CASES = {
    "initial-formula": (
        CONIC, ["--claim", "initial-formula", "--A", "1", "-w", "1,0,0"],
        (tropcm.theorems, "initial_ideal", _ideal_of("x1")),
        {"complement_bound_ok": True, "eliminated_extension_basis": ["x2^2"],
         "initial_ideal_basis": ["x1"], "regular_sequence_size_ok": True,
         "w_in_relative_interior": True, "witness": "reduced bases differ"}),
    "gr-presentation-series": (
        CONIC, ["--claim", "gr-presentation", "--A", "1"],
        (tropcm.theorems, "initial_ideal", _ideal_of("x1")),
        {"basis_equal": False, "cut_dimension": 1,
         "expected_cut_dimension": 1, "initial_ideal_basis": ["x1"],
         "initial_series": "(1) / (1-t)^2", "series_equal": False,
         "sliced_series_with_free_variables": "(1 + t) / (1-t)^2",
         "witness": "Hilbert series differ"}),
    "gr-presentation-basis": (
        CONIC, ["--claim", "gr-presentation", "--A", "1"],
        (tropcm.theorems, "initial_ideal", _ideal_of("x3^2")),
        {"basis_equal": False, "cut_dimension": 1,
         "expected_cut_dimension": 1, "initial_ideal_basis": ["x3^2"],
         "initial_series": "(1 + t) / (1-t)^2", "series_equal": True,
         "sliced_series_with_free_variables": "(1 + t) / (1-t)^2",
         "witness": "reduced bases differ"}),
    "iterated-initial": (
        CONIC, ["--claim", "iterated-initial", "--A", "1", "-i", "1"],
        (tropcm.theorems, "initial_ideal", _initial_ideal_at_zero("x1")),
        {"one_step_basis": ["x2^2"], "two_step_basis": ["x1"],
         "witness": "reduced bases differ"}),
    "quasival-decomposition-monomial": (
        CONIC, ["--claim", "quasival-decomposition", "--A", "1",
                "--maxdeg", "1", "--samples", "2"],
        (tropcm.theorems, "adic_order",
         lambda A, f, ideal, real=tropcm.theorems.adic_order:
         real(A, f, ideal) + 1),
        {"checked": 1, "decomposition": "8", "v_w": "0",
         "value_table": [{"decomposition": "8", "element": "1", "v_w": "0"}],
         "witness": "1"}),
    "quasival-decomposition-sampled": (
        CONIC, ["--claim", "quasival-decomposition", "--A", "1",
                "--maxdeg", "1", "--samples", "2"],
        (tropcm.theorems, "normal_form", lambda f, gb: f.ring.zero()),
        {"checked": 5, "decomposition": "INFINITY", "v_w": "0",
         "value_table": [
             {"decomposition": "0", "element": "1", "v_w": "0"},
             {"decomposition": "8", "element": "x1", "v_w": "8"},
             {"decomposition": "0", "element": "x2", "v_w": "0"},
             {"decomposition": "0", "element": "x3", "v_w": "0"}],
         "witness": "-2*x1 - 2*x2"}),
    "weight-sum": (
        CONIC, ["--claim", "weight-sum", "-u", "1,0,0", "-w", "2,0,0",
                "--maxdeg", "1"],
        (Quasivaluation, "evaluate", _shift_values_of("1,0,0")),
        {"checked": 1, "oplus": "0", "v_sum": "0", "v_u": "1", "v_w": "0",
         "witness": "1"}),
    "epsilon-facts-membership": (
        LINEAR, ["--claim", "epsilon-facts", "--A", "1"],
        (tropcm.theorems, "trop_membership", _constant(False)),
        {"trop_membership": False, "variable_values": ["1", "0", "0"],
         "witness": "monomial found in the initial ideal"}),
    "epsilon-facts-values": (
        LINEAR, ["--claim", "epsilon-facts", "--A", "1"],
        (Quasivaluation, "evaluate", _shift_values_of("1,0,0")),
        {"trop_membership": True, "variable_values": ["2", "1", "1"],
         "witness": "variable value differs from the weight entry"}),
    "well-poised-linear": (
        LINEAR, ["--claim", "well-poised", "--samples-per-cone", "1"],
        (tropcm.theorems, "primeness_check", _constant(("NotPrime", None))),
        {"cones": _cones("NotPrime", WELL_POISED_CONES), "linear_ideal": True,
         "status": "not-well-poised",
         "witness": "linear ideal with a non-prime initial ideal"}),
    "well-poised-nonlinear": (
        CONIC, ["--claim", "well-poised", "--samples-per-cone", "1"],
        (tropcm.theorems, "primeness_check", _constant(("Prime", None))),
        {"cones": _cones("Prime", WELL_POISED_CONES), "linear_ideal": False,
         "status": "well-poised",
         "witness": "non-linear ideal prime on every sampled stratum"}),
    # no injection: x1 lies in the radical of these ideals but not in them
    "radicality-spot-power": (
        "vars: x1 x2 x3\nx1^2\n", ["--claim", "radical-spot", "--samples", "2"],
        None,
        {"note": "f^m in I with f not in I", "power": 2, "witness": "x1"}),
    "radicality-spot-no-small-power": (
        "vars: x1 x2 x3\nx1^5\n", ["--claim", "radical-spot", "--samples", "2"],
        None,
        {"note": "radical member that is not a member", "witness": "x1"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fail_branch(case, tmp_path, monkeypatch, capsys, fresh_cache):
    text, flags, patch, evidence = CASES[case]
    if patch:
        monkeypatch.setattr(*patch)
    path, out = tmp_path / "case.ideal", tmp_path / "report.json"
    path.write_text(text)
    assert main(["verify", str(path), *flags, "-o", str(out)]) == 1
    (claim,) = json.loads(out.read_text())["claims"]
    assert claim["verdict"] == "fail"
    assert claim["evidence"] == evidence
    capsys.readouterr()
    assert main(["report", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"{'':>20}  witness: {evidence['witness']}" in lines
    assert lines[-1] == "totals: fail=1"
