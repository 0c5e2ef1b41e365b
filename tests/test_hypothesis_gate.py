"""The one hypothesis gate of the claims that cut by x_A, on inputs that are
not generic, or not Cohen-Macaulay.

An unmet hypothesis must read ``hypothesis-not-met``, never ``fail``: on
this corpus every A-claim, on every A with |A| <= d, is checked for that.
The gate's regularity test (Hilbert series) is checked against a
degreewise colon computation on Macaulay slices, which never runs
Buchberger.
"""

from itertools import combinations

import pytest

from tropcm import (ConeCA, apply_change, default_ring, krull_dimension,
                    random_gl, sample_interior, verify_epsilon_facts,
                    verify_gr_presentation, verify_initial_formula,
                    verify_iterated_initial, verify_quasival_decomposition)
from tropcm.macaulay import graded_slice, row_echelon
from tropcm.theorems import FAIL, HYPOTHESIS, _unmet

from conftest import ideal_from

RAW = {
    "conic": (3, ["x1*x3 - x2^2"]),
    "square": (3, ["x1^2"]),
    "cross": (3, ["x1*x2"]),
    # two skew lines (x1,x2) meet (x3,x4): dimension 2, depth 1, not CM
    "skew-lines": (4, ["x1*x3", "x1*x4", "x2*x3", "x2*x4"]),
}


def _corpus():
    out = {}
    for name, (n, gens) in RAW.items():
        ideal = ideal_from(default_ring(n), *gens)
        out[name] = ideal
        out["generic " + name] = apply_change(random_gl(n, 42, 100), ideal)
    return out


CORPUS = _corpus()


def _subsets(n, most):
    return [frozenset(A) for size in range(most + 1)
            for A in combinations(range(n), size)]


def _claims(ideal, A):
    """Every claim that cuts by x_A, on A."""
    w = sample_interior(ConeCA(A, ideal.ring.nvars), 1)
    yield verify_initial_formula(ideal, A, w)
    yield verify_gr_presentation(ideal, A)
    yield verify_quasival_decomposition(ideal, A, w, maxdeg=2, samples=5)
    yield verify_epsilon_facts(ideal, A)
    for i in sorted(A):
        yield verify_iterated_initial(ideal, A, i)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_no_a_claim_fails_on_an_unmet_hypothesis(name):
    ideal = CORPUS[name]
    d = krull_dimension(ideal)
    for A in _subsets(ideal.ring.nvars, d):
        for report in _claims(ideal, A):
            assert report["verdict"] != FAIL, (report["claim"], sorted(A),
                                               report["evidence"])


def test_generic_skew_lines_meet_no_epsilon_hypothesis():
    # depth 1: one generic variable is regular, no two are
    ideal = CORPUS["generic skew-lines"]
    for i in range(4):
        assert _unmet(ideal, {i}) is None
        report = verify_epsilon_facts(ideal, frozenset({i}))
        assert report["verdict"] == HYPOTHESIS
        assert report["evidence"]["reason"].startswith("not a regular sequence: ")


def _regular_in_degree(gens, i, m):
    """x_i is regular mod J = <gens> in degree m: (J : x_i)_m = J_m.

    x_i (J : x_i)_m = J_{m+1} meet x_i k[x]_m, and multiplying by x_i is
    injective, so the two sides have the dimensions compared here.
    J_{m+1} meet x_i k[x]_m is the part of J_{m+1} with no term outside
    x_i k[x]_m: its dimension is dim J_{m+1} less the rank on those terms.
    """
    upper, cols = graded_slice(gens, m + 1)
    outside = [k for k, mono in enumerate(cols) if not mono[i]]
    rank = len(row_echelon([[row[k] for k in outside] for row in upper])[1])
    return len(upper) - rank == len(graded_slice(gens, m)[0])


def _regular_up_to_degree_3(ideal, A):
    ring = ideal.ring
    gens = list(ideal.generators)
    for i in sorted(A):
        if not all(_regular_in_degree(gens, i, m) for m in range(3)):
            return False
        gens.append(ring.variable(i))
    return True


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_gate_agrees_with_a_degreewise_colon_oracle(name):
    ideal = CORPUS[name]
    n = ideal.ring.nvars
    for A in _subsets(n, n):
        assert (_unmet(ideal, A) is None) == _regular_up_to_degree_3(ideal, A), \
            sorted(A)
