import pytest

import tropcm.fan
import tropcm.groebner
import tropcm.theorems
from tropcm import (ConeCA, Ideal, apply_change, cm_fan_audit, default_ring,
                    epsilon_vector, hilbert_series_quotient, ideal_membership,
                    initial_ideal, parse_polynomial, primeness_check,
                    radical_membership, radicality_spot_check,
                    random_gl, sample_interior, verify_epsilon_facts,
                    verify_gr_presentation, verify_initial_formula,
                    verify_iterated_initial, verify_quasival_decomposition,
                    verify_weight_sum, well_poised_check)
from tropcm.theorems import FAIL, HYPOTHESIS, PASS, UNDETERMINED

from conftest import downward_adic_order, ideal_from

R3 = default_ring(3)
R4 = default_ring(4)


# -- initial-ideal formula -----------------------------------------------------

def test_initial_formula_conic():
    I = ideal_from(R3, "x1*x3 - x2^2")
    rep = verify_initial_formula(I, frozenset({0}), (1, 0, 0))
    assert rep["verdict"] == PASS
    assert rep["evidence"]["initial_ideal_basis"] == ["x2^2"]
    assert rep["evidence"]["eliminated_extension_basis"] == ["x2^2"]


def test_initial_formula_constant_weight_degenerate_face(e_conic):
    rep = verify_initial_formula(e_conic, frozenset(), (2, 2, 2))
    assert rep["verdict"] == PASS


def test_initial_formula_hypothesis_violations(e_conic):
    rep = verify_initial_formula(e_conic, frozenset({0}), (0, 1, 0))
    assert rep["verdict"] == HYPOTHESIS
    rep = verify_initial_formula(e_conic, frozenset({0, 1}), (2, 1, 0))
    assert rep["verdict"] == HYPOTHESIS
    assert rep["evidence"]["reason"] == "|A| exceeds d - 1"


def test_initial_formula_unmet_off_generic_position():
    # x1 is a zero divisor mod <x1*x2>, so the cut is not a regular sequence
    # and the formula's hypothesis fails, although |A| = 1 <= d - 1
    I = ideal_from(R3, "x1*x2")
    rep = verify_initial_formula(I, frozenset({0}), (1, 0, 0))
    assert rep["verdict"] == HYPOTHESIS
    assert rep["evidence"] == {"reason": "not a regular sequence: x1"}


def test_initial_formula_all_maximal_cones_plucker(e_pluck_generic):
    for cone in [ConeCA(frozenset(a), 6) for a in ((0, 1, 2, 3), (1, 2, 4, 5))]:
        w = sample_interior(cone, 1)
        rep = verify_initial_formula(e_pluck_generic, cone.A, w)
        assert rep["verdict"] == PASS


def test_initial_formula_pass_implies_trop_membership(e_quad4_generic):
    # once the formula holds on every maximal cone, each sampled interior
    # point must lie in the tropical variety; a miss would mean the audit
    # let a degenerate instance through
    from tropcm import enumerate_generic_fan, trop_membership
    for cone in enumerate_generic_fan(4, 3, 0):
        w = sample_interior(cone, 4)
        rep = verify_initial_formula(e_quad4_generic, cone.A, w)
        assert rep["verdict"] == PASS
        assert trop_membership(w, e_quad4_generic)


# -- associated graded presentation ----------------------------------------------

def test_gr_presentation_conic_series_identity():
    I = ideal_from(R3, "x1*x3 - x2^2")
    rep = verify_gr_presentation(I, frozenset({0}))
    assert rep["verdict"] == PASS
    assert rep["evidence"]["series_equal"] and rep["evidence"]["basis_equal"]
    lhs = hilbert_series_quotient(initial_ideal((1, 0, 0), I))
    assert str(lhs) == rep["evidence"]["initial_series"]


def test_gr_presentation_empty_subset(e_quad4_generic):
    rep = verify_gr_presentation(e_quad4_generic, frozenset())
    assert rep["verdict"] == PASS


def test_gr_presentation_hypothesis_gate():
    I = ideal_from(R3, "x1")
    rep = verify_gr_presentation(I, frozenset({0}))
    assert rep["verdict"] == HYPOTHESIS


def test_gr_presentation_plucker_big_subset(e_pluck_generic):
    rep = verify_gr_presentation(e_pluck_generic, frozenset({0, 1, 2, 3}))
    assert rep["verdict"] == PASS


def test_initial_formula_implies_gr_basis_clause(e_quad4_generic):
    # consistency between the two reports at w = eps_A
    for A in (frozenset({0, 1}), frozenset({2, 3})):
        eps = epsilon_vector(A, 4)
        first = verify_initial_formula(e_quad4_generic, A, eps)
        second = verify_gr_presentation(e_quad4_generic, A)
        assert first["verdict"] == PASS
        assert second["verdict"] == PASS and second["evidence"]["basis_equal"]


# -- quasivaluation decomposition -------------------------------------------------

def test_decomposition_conic_interior_weight():
    I = ideal_from(R3, "x1*x3 - x2^2")
    rep = verify_quasival_decomposition(I, frozenset({0}), (2, 1, 1),
                                        maxdeg=4, samples=25, seed=3)
    assert rep["verdict"] == PASS
    # the non-basis element x2^2: v_w = 3 = min(w)*deg + (w_1 - min(w))*ord_1
    from tropcm import Quasivaluation, adic_order
    vw = Quasivaluation.weight(I, (2, 1, 1))
    f = parse_polynomial("x2^2", R3)
    assert vw.evaluate(f) == 3
    assert 1 * 2 + (2 - 1) * adic_order([0], f, I) == 3


def test_decomposition_keeps_its_adic_orders_for_later_claims(monkeypatch):
    I = ideal_from(R3, "x1*x3 - x2^2")
    args = (I, frozenset({0}), (2, 1, 1))
    first = verify_quasival_decomposition(*args, maxdeg=3, samples=10, seed=3)
    kept = {key: value for key, value in I._memo.items() if key[0] == "ord"}
    assert kept
    for (_, A, m), value in kept.items():
        assert value == downward_adic_order(A, R3.monomial(m), I)

    def refuse(*args):
        raise AssertionError("adic_order ran for a kept monomial")

    monkeypatch.setattr(tropcm.theorems, "adic_order", refuse)
    again = verify_quasival_decomposition(*args, maxdeg=3, samples=10, seed=3)
    assert first["verdict"] == PASS and again == first


def test_decomposition_at_epsilon_reduces_to_adic(e_quad4_generic):
    A = frozenset({1, 3})
    rep = verify_quasival_decomposition(e_quad4_generic, A,
                                        epsilon_vector(A, 4),
                                        maxdeg=3, samples=20, seed=1)
    assert rep["verdict"] == PASS


def test_decomposition_variable_values(e_conic_generic):
    rep = verify_quasival_decomposition(e_conic_generic, frozenset({2}),
                                        (0, 0, 5), maxdeg=2, samples=10, seed=0)
    assert rep["verdict"] == PASS


def test_decomposition_hypothesis_gate(e_conic):
    rep = verify_quasival_decomposition(e_conic, frozenset({0}), (0, 1, 0))
    assert rep["verdict"] == HYPOTHESIS


# -- iterated initials -------------------------------------------------------------

def test_iterated_initial_singleton_is_trivial(e_conic_generic):
    rep = verify_iterated_initial(e_conic_generic, frozenset({1}), 1)
    assert rep["verdict"] == PASS


def test_iterated_initial_quad4(e_quad4_generic):
    rep = verify_iterated_initial(e_quad4_generic, frozenset({0, 1}), 0)
    assert rep["verdict"] == PASS
    rep = verify_iterated_initial(e_quad4_generic, frozenset({0, 1}), 1)
    assert rep["verdict"] == PASS


def test_iterated_initial_size_gate(e_conic_generic):
    rep = verify_iterated_initial(e_conic_generic, frozenset({0, 1}), 0)
    assert rep["verdict"] == HYPOTHESIS


def test_iterated_initial_requires_member_index(e_quad4_generic):
    with pytest.raises(ValueError):
        verify_iterated_initial(e_quad4_generic, frozenset({0, 1}), 3)


# -- weight sums ---------------------------------------------------------------------

def test_weight_sum_with_itself_is_scaling(e_conic_generic):
    rep = verify_weight_sum(e_conic_generic, (2, 0, 0), (2, 0, 0))
    assert rep["verdict"] == PASS


def test_weight_sum_zero_identity(e_conic_generic):
    rep = verify_weight_sum(e_conic_generic, (0, 0, 0), (3, 0, 1))
    assert rep["verdict"] == PASS


def test_weight_sum_generic_cone(e_pluck_generic):
    cone = ConeCA(frozenset({0, 1, 2, 3}), 6)
    u = sample_interior(cone, 5)
    w = sample_interior(cone, 6)
    rep = verify_weight_sum(e_pluck_generic, u, w)
    assert rep["verdict"] == PASS


def test_weight_sum_reports_unmet_hypothesis(e_conic):
    rep = verify_weight_sum(e_conic, (1, 0, 0), (0, 1, 0))
    assert rep["verdict"] == HYPOTHESIS


# -- epsilon facts ----------------------------------------------------------------

def test_epsilon_facts_on_generic_corpus(generic_corpus):
    sizes = {"e-lin": 1, "e-conic": 1, "e-quad4": 2, "e-pluck": 4}
    for name, I in generic_corpus.items():
        A = frozenset(range(sizes[name]))
        rep = verify_epsilon_facts(I, A)
        assert rep["verdict"] == PASS, (name, rep["evidence"])


def test_epsilon_facts_unmet_on_the_raw_conic():
    # x1 is regular on the untransformed conic, but x1, x2 is not: in_eps is
    # generated by the monomial x2^2, so eps_{1} misses the tropical variety
    I = ideal_from(R3, "x1*x3 - x2^2")
    rep = verify_epsilon_facts(I, frozenset({0}))
    assert rep["verdict"] == HYPOTHESIS
    assert rep["evidence"] == {"reason": "not a regular sequence: x1, x2"}


def test_epsilon_facts_hypothesis_gate():
    # x1 is a zero divisor mod <x1*x2>, so x1 is not a regular sequence
    I = ideal_from(R3, "x1*x2")
    rep = verify_epsilon_facts(I, frozenset({0}))
    assert rep["verdict"] == HYPOTHESIS


# -- primeness certificates ----------------------------------------------------------

def test_primeness_linear():
    verdict, cert = primeness_check(ideal_from(R3, "x1", "x2 + x3"))
    assert verdict == "Prime" and cert["method"] == "linear"


def test_primeness_zero_ideal():
    verdict, _ = primeness_check(Ideal(R3, []))
    assert verdict == "Prime"


def test_primeness_conic_rank3():
    verdict, cert = primeness_check(ideal_from(R3, "x1*x3 - x2^2"))
    assert verdict == "Prime"
    assert cert["method"] == "principal-quadric-rank" and cert["data"]["rank"] == 3


def test_primeness_binary_quadric_not_prime():
    R2 = default_ring(2)
    verdict, cert = primeness_check(ideal_from(R2, "x1^2 + 3*x1*x2 + x2^2"))
    assert verdict == "NotPrime" and cert["data"]["rank"] == 2
    verdict, cert = primeness_check(ideal_from(R2, "x1^2 + 2*x1*x2 + x2^2"))
    assert verdict == "NotPrime" and cert["data"]["rank"] == 1


def test_primeness_monomial_ideals():
    verdict, cert = primeness_check(ideal_from(R3, "x1", "x2"))
    assert verdict == "Prime"
    verdict, cert = primeness_check(ideal_from(R3, "x1*x2", "x3^2"))
    assert verdict == "NotPrime" and cert["method"] == "monomial"


def test_primeness_monomial_content_factor():
    verdict, cert = primeness_check(ideal_from(R3, "x1^2*x2 + x1*x3^2"))
    assert verdict == "NotPrime" and cert["method"] == "monomial"
    assert cert["data"]["factors"][0] == "x1"


def test_primeness_cubic_with_linear_factor():
    f = "(x1 + x2)*(x1*x2 + x3^2)"
    verdict, cert = primeness_check(ideal_from(R3, f))
    assert verdict == "NotPrime"
    assert cert["method"] == "small-field-factor-search"
    ell, q = cert["data"]["factors"]
    recomposed = parse_polynomial(ell, R3) * parse_polynomial(q, R3)
    assert recomposed == parse_polynomial(f, R3)


def test_primeness_undetermined_cases():
    verdict, cert = primeness_check(ideal_from(R3, "x1^3 + x2^3 + x3^3"))
    assert verdict == "Undetermined"
    verdict, cert = primeness_check(ideal_from(R4, "x1*x2 - x3^2", "x1*x4 - x2*x3"))
    assert verdict == "Undetermined"


def test_prime_certificate_implies_monomial_free(e_quad4_generic):
    # prime initial ideals coming from fan points contain no monomials
    from tropcm import contains_monomial
    cone = ConeCA(frozenset({3}), 4)
    inw = initial_ideal(sample_interior(cone, 2), e_quad4_generic)
    verdict, _ = primeness_check(inw)
    assert verdict == "Prime"
    assert contains_monomial(inw) is None
    rep = radicality_spot_check(inw, samples=10)
    assert rep["verdict"] == PASS


# -- radicality -------------------------------------------------------------------

def test_radicality_witnesses_non_radical():
    rep = radicality_spot_check(ideal_from(R3, "x1^2"), samples=20)
    assert rep["verdict"] == FAIL
    assert rep["evidence"]["witness"] == "x1" and rep["evidence"]["power"] == 2


def test_radicality_passes_on_radical_monomial_ideal():
    rep = radicality_spot_check(ideal_from(R3, "x1*x2"), samples=20)
    assert rep["verdict"] == PASS


@pytest.mark.parametrize("seed", [3, 4, 5, 11, 12])
def test_radicality_fails_on_a_radical_member_without_a_small_power(seed):
    # x1 - x2 is in rad(I) \ I, and (x1 - x2)^m is in I only from m = 5 on
    R2 = default_ring(2)
    I = ideal_from(R2, "(x1 - x2)^5")
    rep = radicality_spot_check(I, samples=50, seed=seed)
    assert rep["verdict"] == FAIL
    witness = parse_polynomial(rep["evidence"]["witness"], R2)
    assert not ideal_membership(witness, I)
    assert radical_membership(witness, I)
    if "power" in rep["evidence"]:
        assert ideal_membership(witness ** rep["evidence"]["power"], I)


def test_radicality_prime_shortcut(e_conic):
    rep = radicality_spot_check(e_conic, samples=5)
    assert rep["verdict"] == PASS
    assert "certificate" in rep["evidence"]


# -- well-poisedness ----------------------------------------------------------------

def test_well_poised_linear_instance(e_lin_generic):
    rep = well_poised_check(e_lin_generic, samples_per_cone=2)
    assert rep["verdict"] == PASS
    assert rep["evidence"]["status"] == "well-poised"
    assert rep["evidence"]["linear_ideal"] is True


def test_well_poised_quadric_instance(e_quad4_generic):
    rep = well_poised_check(e_quad4_generic, samples_per_cone=2)
    assert rep["verdict"] == PASS
    assert rep["evidence"]["status"] == "not-well-poised"
    codim0 = [c for c in rep["evidence"]["cones"] if c["codim"] == 0]
    codim1 = [c for c in rep["evidence"]["cones"] if c["codim"] == 1]
    assert all(c["prime_verdict"] == "NotPrime" for c in codim0)
    assert all(c["prime_verdict"] == "Prime" for c in codim1)


def test_well_poised_degenerate_dimension_one():
    I = ideal_from(R3, "x1", "x2")
    rep = well_poised_check(I, samples_per_cone=1)
    assert rep["verdict"] == PASS
    assert {c["codim"] for c in rep["evidence"]["cones"]} == {0}


def test_well_poised_undetermined_downgrades():
    I = ideal_from(R3, "x1^3 + x2^3 + x3^3")
    rep = well_poised_check(I, samples_per_cone=1)
    assert rep["verdict"] == UNDETERMINED


@pytest.mark.parametrize("sweep", [well_poised_check, cm_fan_audit])
@pytest.mark.parametrize("samples_per_cone", [0, -1])
def test_fan_sweeps_refuse_to_sample_nothing(e_conic, sweep, samples_per_cone,
                                             monkeypatch):
    # no sample is no evidence: neither a pass nor a fail; the refusal comes
    # before the first initial ideal
    calls = []
    monkeypatch.setattr(tropcm.fan, "initial_ideal",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="samples_per_cone"):
        sweep(e_conic, samples_per_cone=samples_per_cone)
    assert calls == []


# -- fan coincidence ------------------------------------------------------------------

def test_cm_fan_audit_passes_on_corpus(e_conic_generic, e_pluck_generic):
    for I in (e_conic_generic, e_pluck_generic):
        rep = cm_fan_audit(I, samples_per_cone=3, seed=2)
        assert rep["verdict"] == PASS


def test_cm_fan_audit_writes_the_process_cache(e_rnc4_generic, tmp_path,
                                               fresh_cache):
    fresh_cache(tmp_path)
    rep = cm_fan_audit(e_rnc4_generic, samples_per_cone=3, seed=42)
    assert rep["verdict"] == PASS
    assert list(tmp_path.glob("*.json"))


def test_cm_fan_audit_computes_one_grevlex_basis(e_rnc4_generic, monkeypatch,
                                                 fresh_cache):
    # the instance's own; each initial ideal carries its grevlex basis
    runs = []
    raw = tropcm.groebner.groebner_basis_raw

    def counted(ideal, order, hilbert=None):
        runs.append(order.kind)
        return raw(ideal, order, hilbert)

    monkeypatch.setattr(tropcm.groebner, "groebner_basis_raw", counted)
    assert cm_fan_audit(e_rnc4_generic, samples_per_cone=3, seed=42)["verdict"] == PASS
    assert runs.count("grevlex") == 1


@pytest.mark.parametrize("check", [
    lambda I: verify_initial_formula(
        I, {0}, sample_interior(ConeCA(frozenset({0}), 4), 7)),
    lambda I: verify_gr_presentation(I, {0}),
    lambda I: verify_iterated_initial(I, {0}, 0),
], ids=["initial-formula", "gr-presentation", "iterated-initial"])
def test_equality_claims_write_the_process_cache(check, tmp_path, fresh_cache):
    # the generic twisted cubic: ideals are compared by their reduced bases
    # in the process-wide cache
    cubic = ideal_from(R4, "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")
    I = apply_change(random_gl(4, seed=7, bound=100), cubic)
    fresh_cache(tmp_path)
    assert check(I)["verdict"] == PASS
    assert list(tmp_path.glob("*.json"))


def test_cm_fan_audit_single_sample_flagged(e_conic_generic):
    rep = cm_fan_audit(e_conic_generic, samples_per_cone=1)
    assert rep["verdict"] == PASS
    assert "insufficient sampling" in rep["evidence"]["note"]


def test_cm_fan_audit_detects_non_constant_cone(monkeypatch):
    # not in generic position: in_w(x1*x2 + x3*x4) flips within one cone,
    # whose x_A is no regular sequence, so the claim does not apply there
    I = ideal_from(R4, "x1*x2 + x3*x4")
    rep = cm_fan_audit(I, samples_per_cone=3, seed=0)
    assert rep["verdict"] == HYPOTHESIS
    assert rep["evidence"] == {"reason": "not a regular sequence: x1, x3",
                            "cone": [1, 3]}
    # with the hypothesis met, the same flip is a counterexample
    monkeypatch.setattr(tropcm.theorems, "_unmet", lambda ideal, A, d=None: None)
    rep = cm_fan_audit(I, samples_per_cone=3, seed=0)
    assert rep["verdict"] == FAIL
    assert rep["evidence"]["witness_cone"] == [1, 3]
    assert rep["evidence"]["basis1"] != rep["evidence"]["basis2"]


@pytest.mark.slow
def test_cm_fan_audit_flags_depth_deficient_instance():
    # two skew planes: dim 3, depth 1, so neither CM nor almost CM; the
    # induced fan structure genuinely refines the combinatorial cones
    R6 = default_ring(6)
    gens = [f"x{i}*x{j}" for i in (1, 2, 3) for j in (4, 5, 6)]
    skew = ideal_from(R6, *gens)
    S = apply_change(random_gl(6, seed=5, bound=7), skew)
    rep = cm_fan_audit(S, samples_per_cone=3, seed=11)
    assert rep["verdict"] == HYPOTHESIS
    assert rep["evidence"] == {"reason": "not a regular sequence: x1, x2",
                            "cone": [1, 2]}
