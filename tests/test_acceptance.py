"""Acceptance suite: every criterion at its stated tolerance (exact).

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream).  The
instance corpus is the four hypersurface presentations plus their seeded
generic coordinates (seed 42, bound 100, over Q).
"""

import random
from fractions import Fraction
from itertools import combinations

from tropcm import (ConeCA, MonomialOrder, Quasivaluation, adic_order,
                    apply_change,
                    enumerate_generic_fan, epsilon_vector, genericity_audit,
                    initial_ideal, oplus_in_cone, primeness_check, random_gl,
                    sample_interior, scale, standard_basis_slice,
                    verify_epsilon_facts, verify_gr_presentation,
                    verify_initial_formula, verify_iterated_initial,
                    verify_quasival_decomposition, verify_weight_sum)
from tropcm.macaulay import graded_slice, initial_slice_oracle
from tropcm.theorems import PASS, _random_homogeneous


def _report(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_initial_formula_all_cones(e_pluck_generic):
    failures = []
    checked = 0
    for codim in (0, 1):
        for cone in enumerate_generic_fan(6, 5, codim):
            for k in range(3):
                w = sample_interior(cone, k)
                rep = verify_initial_formula(e_pluck_generic, cone.A, w)
                checked += 1
                if rep["verdict"] != PASS:
                    failures.append((cone.label(), w, rep["verdict"]))
    _report(1, not failures,
            f"initial-ideal formula on {checked} (cone, w) pairs "
            f"(15 maximal + 20 codim-1 cones, 3 samples each); "
            f"failures: {failures[:3]}")


def test_criterion_2_gr_presentation(e_conic, e_quad4_generic, e_pluck_generic):
    failures = []
    checked = 0

    def check(ideal, A):
        nonlocal checked
        rep = verify_gr_presentation(ideal, frozenset(A))
        checked += 1
        if rep["verdict"] != PASS:
            failures.append((sorted(A), rep["verdict"]))

    check(e_conic, {0})
    for size in (1, 2):
        for A in combinations(range(4), size):
            check(e_quad4_generic, A)
    pool = [A for size in range(1, 5) for A in combinations(range(6), size)]
    rng = random.Random("criterion-2")
    for A in rng.sample(pool, 10):
        check(e_pluck_generic, A)
    _report(2, not failures,
            f"Hilbert-series and basis identity for the graded quotient on "
            f"{checked} subsets; failures: {failures[:3]}")


def test_criterion_3_quasival_decomposition(e_conic, e_quad4_generic):
    failures = []
    checked = 0

    def check(ideal, A):
        nonlocal checked
        A = frozenset(A)
        n = ideal.ring.nvars
        for w in (sample_interior(ConeCA(A, n), 7), epsilon_vector(A, n)):
            rep = verify_quasival_decomposition(ideal, A, w, maxdeg=4,
                                                samples=50, seed=11)
            checked += 1
            if rep["verdict"] != PASS:
                failures.append((sorted(A), w, rep["verdict"]))

    for A in combinations(range(3), 1):
        check(e_conic, A)
    for A in combinations(range(4), 2):
        check(e_quad4_generic, A)
    _report(3, not failures,
            f"value decomposition on all standard monomials to degree 4 plus "
            f"50 random elements, {checked} (A, w) pairs; failures: {failures[:3]}")


def test_criterion_4_epsilon_facts(generic_corpus):
    dims = {"e-lin": 2, "e-conic": 2, "e-quad4": 3, "e-pluck": 5}
    failures = []
    checked = 0
    for name, ideal in generic_corpus.items():
        n = ideal.ring.nvars
        d = dims[name]
        audit = genericity_audit(ideal, maxA=d - 1, seed=0)
        if not audit["pass"]:
            failures.append((name, "audit"))
            continue
        for size in range(1, d):
            for A in combinations(range(n), size):
                rep = verify_epsilon_facts(ideal, frozenset(A))
                checked += 1
                if rep["verdict"] != PASS:
                    failures.append((name, sorted(A)))
    _report(4, not failures,
            f"eps_A tropical membership and v(x_i) = (eps_A)_i on {checked} "
            f"audited subsets across four generic instances; failures: {failures[:3]}")


def test_criterion_5_iterated_initials(e_quad4_generic, e_pluck_generic):
    failures = []
    checked = 0
    for size in (1, 2):
        for A in combinations(range(4), size):
            for i in A:
                rep = verify_iterated_initial(e_quad4_generic, frozenset(A), i)
                checked += 1
                if rep["verdict"] != PASS:
                    failures.append(("e-quad4", sorted(A), i))
    pool = [(A, i) for size in (1, 2, 3) for A in combinations(range(6), size)
            for i in A]
    rng = random.Random("criterion-5")
    for A, i in rng.sample(pool, 10):
        rep = verify_iterated_initial(e_pluck_generic, frozenset(A), i)
        checked += 1
        if rep["verdict"] != PASS:
            failures.append(("e-pluck", sorted(A), i))
    _report(5, not failures,
            f"iterated initial degenerations agree on {checked} (A, i) pairs; "
            f"failures: {failures[:3]}")


def test_criterion_6_weight_sum_additivity(generic_corpus):
    dims = {"e-lin": 2, "e-conic": 2, "e-quad4": 3, "e-pluck": 5}
    failures = []
    checked = 0
    for name, ideal in generic_corpus.items():
        n = ideal.ring.nvars
        cones = enumerate_generic_fan(n, dims[name], 0)
        for k in range(5):
            cone = cones[k % len(cones)]
            u = sample_interior(cone, 100 + 2 * k)
            w = sample_interior(cone, 101 + 2 * k)
            rep = verify_weight_sum(ideal, u, w, maxdeg=4)
            checked += 1
            if rep["verdict"] != PASS:
                failures.append((name, cone.label(), rep["verdict"]))
    _report(6, not failures,
            f"value-table additivity v_u + v_w = v_(u+w) on {checked} seeded "
            f"shared-cone pairs; failures: {failures[:3]}")


def test_criterion_7_codim1_primeness(e_lin, e_lin_generic, e_quad4_generic,
                                      e_pluck_generic):
    failures = []
    checked = 0
    for name, ideal, d in (("e-quad4", e_quad4_generic, 3),
                           ("e-pluck", e_pluck_generic, 5)):
        n = ideal.ring.nvars
        for cone in enumerate_generic_fan(n, d, 1):
            inw = initial_ideal(sample_interior(cone, 3), ideal)
            verdict, cert = primeness_check(inw)
            checked += 1
            if not (verdict == "Prime"
                    and cert["method"] == "principal-quadric-rank"
                    and cert["data"]["rank"] >= 3):
                failures.append((name, "codim1", cone.label(), verdict))
        for cone in enumerate_generic_fan(n, d, 0):
            inw = initial_ideal(sample_interior(cone, 3), ideal)
            verdict, cert = primeness_check(inw)
            checked += 1
            if not (verdict == "NotPrime"
                    and cert["method"] == "principal-quadric-rank"
                    and cert["data"]["rank"] <= 2):
                failures.append((name, "maximal", cone.label(), verdict))
    for ideal in (e_lin, e_lin_generic):
        for codim in (0, 1):
            for cone in enumerate_generic_fan(3, 2, codim):
                inw = initial_ideal(sample_interior(cone, 3), ideal)
                verdict, _ = primeness_check(inw)
                checked += 1
                if verdict != "Prime":
                    failures.append(("e-lin", codim, cone.label(), verdict))
    _report(7, not failures,
            f"rank certificates across {checked} cones: codim-1 prime, "
            f"maximal not prime, linear always prime; failures: {failures[:3]}")


def test_criterion_8_macaulay_oracle_equivalence(corpus, generic_corpus):
    failures = []
    checked = 0
    for name in corpus:
        for tag, ideal in (("plain", corpus[name]), ("generic", generic_corpus[name])):
            n = ideal.ring.nvars
            rng = random.Random(f"criterion-8:{name}:{tag}")
            for _ in range(10):
                w = tuple(Fraction(rng.randint(0, 5)) for _ in range(n))
                inw = initial_ideal(w, ideal)
                for degree in range(1, 5):
                    oracle, _ = initial_slice_oracle(list(ideal.generators), w, degree)
                    engine, _ = graded_slice(list(inw.generators), degree)
                    checked += 1
                    if oracle != engine:
                        failures.append((name, tag, w, degree))
    _report(8, not failures,
            f"graded slices of in_w(I) match the Macaulay-matrix oracle on "
            f"{checked} (instance, w, degree) triples; failures: {failures[:3]}")


def test_criterion_9_genericity_audit_batch(e_pluck):
    reseeds = 0
    failures = []
    for seed in range(1, 6):
        g = random_gl(6, seed, 100)
        candidate = apply_change(g, e_pluck)
        audit = genericity_audit(candidate, maxA=4, max_subsets=20, seed=seed)
        if not audit["pass"]:
            reseeds += 1
            g = random_gl(6, seed + 1000, 100)
            candidate = apply_change(g, e_pluck)
            audit = genericity_audit(candidate, maxA=4, max_subsets=20, seed=seed)
            if not audit["pass"]:
                failures.append(seed)
    ok = not failures and reseeds <= 1
    _report(9, ok,
            f"dimension checks dim(I + <x_A>) = 5 - |A| over seeds 1..5, "
            f"20 subsets each; reseeds: {reseeds}")


def test_criterion_10_quasivaluation_axioms(e_conic_generic, e_quad4_generic):
    failures = []
    checked = 0

    def axioms(v, ring, tag):
        nonlocal checked
        rng = random.Random(f"criterion-10:{tag}")
        for _ in range(200):
            f = _random_homogeneous(ring, rng, 3)
            g = _random_homogeneous(ring, rng, 3)
            vf, vg = v.evaluate(f), v.evaluate(g)
            checked += 1
            if not (v.evaluate(f * g) >= vf + vg
                    and v.evaluate(f + g) >= min(vf, vg)
                    and v.evaluate(f.scale(5)) == vf):
                failures.append((tag, str(f), str(g)))
                return

    conic, quad = e_conic_generic, e_quad4_generic
    axioms(Quasivaluation.weight(conic, (2, 0, 1)), e_conic_generic.ring,
           "weight-conic")
    axioms(Quasivaluation.degree(conic), e_conic_generic.ring, "deg-conic")
    axioms(Quasivaluation.adic(conic, {0}), e_conic_generic.ring,
           "adic-conic")
    axioms(scale(Fraction(3, 2), Quasivaluation.weight(quad, (0, 1, 1, 0))),
           e_quad4_generic.ring, "scaled-quad4")
    axioms(oplus_in_cone([Quasivaluation.weight(quad, (0, 0, 1, 0)),
                          Quasivaluation.weight(quad, (0, 0, 0, 1))]),
           e_quad4_generic.ring, "oplus-quad4")
    # cross-validation: the adic order equals the epsilon-weight value on
    # every standard monomial to degree 4
    for ideal, n, A in ((conic, 3, frozenset({1})),
                        (quad, 4, frozenset({0, 3}))):
        eps = epsilon_vector(A, n)
        veps = Quasivaluation.weight(ideal, eps)
        order = MonomialOrder.weighted(eps)
        for deg in range(5):
            for mono in standard_basis_slice(ideal, order, deg):
                b = ideal.ring.monomial(mono)
                checked += 1
                if veps.evaluate(b) != adic_order(A, b, ideal):
                    failures.append(("adic-vs-eps", str(b)))
    _report(10, not failures,
            f"superadditivity, min-of-sum, and scale invariance over 200 "
            f"seeded pairs per quasivaluation, plus adic/epsilon agreement "
            f"({checked} checks); failures: {failures[:3]}")
