"""Executable verification of the structural claims on concrete instances.

Every check computes its two sides through disjoint code paths (initial
ideals vs generators with x_A set to zero, Hilbert recursion vs basis
equality, normal-form evaluation vs adic membership) and compares
exactly.  Failed hypotheses are reported as such, never silently folded
into pass or fail; verdicts are ``pass``, ``fail``, ``undetermined``
(primeness outside certificate range) or ``hypothesis-not-met``; the
claims that cut by x_A all take theirs from one gate, ``_unmet``.  Only the
fan sweeps (``fan.sweep``), which compare samples rather than two routes,
reuse a weight basis across the weights of its Groebner cone
(``groebner.rebase``, exact).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .fan import ConeCA, cone_contains, epsilon_vector, sweep, trop_membership
from .groebner import (buchberger_reduced, eliminate,
                       hilbert_series_quotient, ideal_membership,
                       initial_ideal, krull_dimension, normal_form,
                       radical_membership)
from .macaulay import matrix_rank
from .orders import GREVLEX, MonomialOrder, integer_weight
from .polynomials import (Polynomial, mono_div, mono_divides,
                          monomials_of_degree)
from .quasival import (INFINITY, ConeShareError, Quasivaluation, adic_order,
                       oplus_in_cone, standard_basis_slice)

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"
HYPOTHESIS = "hypothesis-not-met"

_POWMAX = 4     # highest power the radicality spot check tries


def _report(claim, params, verdict, evidence):
    """The JSON entry of one checked claim."""
    return {"claim": claim, "params": params, "verdict": verdict,
            "evidence": evidence}


def _fmt_w(w):
    return ",".join(str(Fraction(x)) for x in w)


def _fmt_A(A):
    return sorted(i + 1 for i in A)


def _basis_strings(ideal):
    return buchberger_reduced(ideal, GREVLEX).strings()


def _instance(ideal, **extra):
    inst = {"generators": [str(g) for g in ideal.generators]}
    inst.update(extra)
    return inst


def _unmet(ideal, A, d=None):
    """Why a claim may not cut by x_A, or None when |A| <= d - 1 (if ``d`` is
    given) and x_A is a regular sequence on R = k[x]/I.  For variables that is
    HS(R/(x_A)R) = (1-t)^|A| HS(R) (proof in the README): I_A k[x], which
    keeps x_A as free variables, has the Hilbert series of I."""
    if d is not None and len(A) > d - 1:
        return "|A| exceeds d - 1"
    if hilbert_series_quotient(eliminate(ideal, A)) != hilbert_series_quotient(ideal):
        return "not a regular sequence: " + ", ".join(
            ideal.ring.names[i] for i in sorted(A))
    return None


# ---------------------------------------------------------------------------
# equality-of-ideals claims

def verify_initial_formula(ideal, A, w) -> dict:
    """in_w(I) against the extension of the elimination ideal I_A."""
    n = ideal.ring.nvars
    A = frozenset(A)
    d = krull_dimension(ideal)
    inst = _instance(ideal, A=_fmt_A(A), w=_fmt_w(w), d=d)
    if reason := ("w outside the relative interior of C_A"
                  if not cone_contains(ConeCA(A, n), w, interior=True)
                  else _unmet(ideal, A, d)):
        return _report("initial-formula", inst, HYPOTHESIS, {"reason": reason})
    evidence = {"w_in_relative_interior": True,
                "regular_sequence_size_ok": True,
                "complement_bound_ok": (n - len(A)) <= n - d + 1}
    lhs = initial_ideal(w, ideal)
    lhs_basis = evidence["initial_ideal_basis"] = _basis_strings(lhs)
    rhs_basis = evidence["eliminated_extension_basis"] = _basis_strings(
        eliminate(ideal, A))
    if lhs_basis == rhs_basis:
        return _report("initial-formula", inst, PASS, evidence)
    evidence["witness"] = "reduced bases differ"
    return _report("initial-formula", inst, FAIL, evidence)


def verify_gr_presentation(ideal, A) -> dict:
    """Associated graded of ord_A: Hilbert identity plus basis identity.

    HS(k[x]/in_eps(I)) must equal HS(k[x]/I_A k[x]), which is
    HS(k[x_rest]/I_A) / (1-t)^|A|, and the initial ideal must equal the
    extension I_A k[x], so the quotient really is a polynomial ring over
    the sliced algebra.
    """
    n = ideal.ring.nvars
    A = frozenset(A)
    d = krull_dimension(ideal)
    inst = _instance(ideal, A=_fmt_A(A), d=d)
    if reason := _unmet(ideal, A):
        return _report("gr-presentation", inst, HYPOTHESIS, {"reason": reason})
    eps = epsilon_vector(A, n)
    lhs_ideal = initial_ideal(eps, ideal)
    lhs_series = hilbert_series_quotient(lhs_ideal)
    rhs_ideal = eliminate(ideal, A)
    rhs_series = hilbert_series_quotient(rhs_ideal)
    series_ok = lhs_series == rhs_series
    lhs_basis = _basis_strings(lhs_ideal)
    basis_ok = lhs_basis == _basis_strings(rhs_ideal)
    evidence = {
        "cut_dimension": rhs_series.dimension() - len(A),
        "expected_cut_dimension": d - len(A),
        "initial_series": str(lhs_series),
        "sliced_series_with_free_variables": str(rhs_series),
        "series_equal": series_ok,
        "basis_equal": basis_ok,
        "initial_ideal_basis": lhs_basis,
    }
    verdict = PASS if (series_ok and basis_ok) else FAIL
    if verdict == FAIL:
        evidence["witness"] = ("Hilbert series differ" if not series_ok
                               else "reduced bases differ")
    return _report("gr-presentation", inst, verdict, evidence)


def verify_iterated_initial(ideal, A, i) -> dict:
    """Two-step initial degeneration against the one-step one."""
    ring = ideal.ring
    n = ring.nvars
    A = frozenset(A)
    if i not in A:
        raise ValueError("index must belong to A")
    d = krull_dimension(ideal)
    inst = _instance(ideal, A=_fmt_A(A), i=i + 1, d=d)
    if reason := _unmet(ideal, A, d):
        return _report("iterated-initial", inst, HYPOTHESIS,
                       {"reason": reason})
    step = initial_ideal(epsilon_vector([i], n), ideal)
    lhs = initial_ideal(epsilon_vector(A - {i}, n), step)
    rhs = initial_ideal(epsilon_vector(A, n), ideal)
    lhs_basis, rhs_basis = _basis_strings(lhs), _basis_strings(rhs)
    evidence = {"two_step_basis": lhs_basis, "one_step_basis": rhs_basis}
    verdict = PASS if lhs_basis == rhs_basis else FAIL
    if verdict == FAIL:
        evidence["witness"] = "reduced bases differ"
    return _report("iterated-initial", inst, verdict, evidence)


# ---------------------------------------------------------------------------
# quasivaluation claims

def _random_homogeneous(ring, rng, maxdeg):
    """Small random homogeneous polynomial, possibly zero."""
    d = rng.randint(1, maxdeg)
    monos = monomials_of_degree(ring.nvars, d)
    terms = {}
    for m in monos:
        if rng.random() < min(1.0, 4.0 / len(monos)):
            c = rng.randint(-3, 3)
            if c:
                terms[m] = ring.field.coerce(c)
    if not terms:
        m = monos[rng.randrange(len(monos))]
        terms[m] = ring.field.coerce(rng.choice([1, -1, 2]))
    return Polynomial(ring, terms)


def verify_quasival_decomposition(ideal, A, w, maxdeg=4, samples=50,
                                  seed=0) -> dict:
    """v_w against min(w)*deg + sum over A of (w_i - min(w))*ord_i.

    Checked on every standard monomial up to ``maxdeg`` (adapted basis of
    the w-refined order) and on seeded random homogeneous elements, whose
    expected value is the minimum of the right side over their adapted
    expansion.
    """
    ring = ideal.ring
    n = ring.nvars
    A = frozenset(A)
    w = tuple(Fraction(x) for x in w)
    inst = _instance(ideal, A=_fmt_A(A), w=_fmt_w(w), maxdeg=maxdeg,
                     samples=samples, seed=seed)
    if reason := ("w outside C_A" if not cone_contains(ConeCA(A, n), w)
                  else _unmet(ideal, A)):
        return _report("quasival-decomposition", inst, HYPOTHESIS,
                       {"reason": reason})
    vw = Quasivaluation.weight(ideal, w)
    iw, scale = integer_weight(w)
    lo = min(iw)
    steps = [(i, iw[i] - lo) for i in sorted(A) if iw[i] != lo]

    def rhs_on_monomial(mono):
        total = lo * sum(mono)
        for i, step in steps:
            # the ideal keeps ord_i of each monomial for later claims
            o = ideal.memo(("ord", (i,), mono), lambda: adic_order(
                [i], ring.monomial(mono), ideal))
            if o is INFINITY:
                return INFINITY
            total += step * o
        return Fraction(total, scale)

    worder = MonomialOrder.weighted(w)
    checked = 0
    table = []
    for deg in range(0, maxdeg + 1):
        for mono in standard_basis_slice(ideal, worder, deg):
            lhs = vw.evaluate(ring.monomial(mono))
            rhs = rhs_on_monomial(mono)
            checked += 1
            if len(table) < 12:
                table.append({"element": str(ring.monomial(mono)),
                              "v_w": str(lhs), "decomposition": str(rhs)})
            if lhs != rhs:
                return _report(
                    "quasival-decomposition", inst, FAIL,
                    {"witness": str(ring.monomial(mono)),
                     "v_w": str(lhs), "decomposition": str(rhs),
                     "checked": checked, "value_table": table})
    gb = buchberger_reduced(ideal, worder)
    rng = random.Random(repr(("decomp", seed, _fmt_w(w), sorted(A))))
    # no homogeneous element has a positive degree below 1
    for _ in range(samples if maxdeg >= 1 else 0):
        f = _random_homogeneous(ring, rng, maxdeg)
        lhs = vw.evaluate(f)
        nf = normal_form(f, gb)
        if nf.is_zero():
            rhs = INFINITY
        else:
            rhs = min(rhs_on_monomial(m) for m in nf.terms)
        checked += 1
        if lhs != rhs:
            return _report(
                "quasival-decomposition", inst, FAIL,
                {"witness": str(f), "v_w": str(lhs), "decomposition": str(rhs),
                 "checked": checked, "value_table": table})
    return _report("quasival-decomposition", inst, PASS,
                   {"checked": checked, "value_table": table})


def verify_weight_sum(ideal, u, w, maxdeg=4) -> dict:
    """Additivity of values in a shared Groebner cone: v_u + v_w = v_{u+w}."""
    ring = ideal.ring
    u = tuple(Fraction(x) for x in u)
    w = tuple(Fraction(x) for x in w)
    inst = _instance(ideal, u=_fmt_w(u), w=_fmt_w(w), maxdeg=maxdeg)
    vu = Quasivaluation.weight(ideal, u)
    vw = Quasivaluation.weight(ideal, w)
    try:
        vsum = oplus_in_cone([vu, vw])
    except ConeShareError as exc:
        return _report("weight-sum", inst, HYPOTHESIS, {"reason": str(exc)})
    total = tuple(a + b for a, b in zip(u, w))
    vtotal = Quasivaluation.weight(ideal, total)
    order = MonomialOrder.weighted(total)
    checked = 0
    for deg in range(0, maxdeg + 1):
        for mono in standard_basis_slice(ideal, order, deg):
            b = ring.monomial(mono)
            a1, a2 = vu.evaluate(b), vw.evaluate(b)
            s = vtotal.evaluate(b)
            o = vsum.evaluate(b)
            checked += 1
            if a1 + a2 != s or o != s:
                return _report(
                    "weight-sum", inst, FAIL,
                    {"witness": str(b), "v_u": str(a1), "v_w": str(a2),
                     "v_sum": str(s), "oplus": str(o), "checked": checked})
    return _report("weight-sum", inst, PASS, {"checked": checked})


def verify_epsilon_facts(ideal, A) -> dict:
    """eps_A lies in the tropical variety and v_{eps_A}(x_i) = (eps_A)_i.

    With x_A, x_j regular for every j outside A, no minimal prime of
    I + <x_A> holds a variable, so in_eps(I) = I_A k[x] holds no monomial."""
    ring = ideal.ring
    n = ring.nvars
    A = frozenset(A)
    inst = _instance(ideal, A=_fmt_A(A))
    if reason := _unmet(ideal, A, krull_dimension(ideal)) or next(
            filter(None, (_unmet(ideal, A | {j})
                          for j in range(n) if j not in A)), None):
        return _report("epsilon-facts", inst, HYPOTHESIS, {"reason": reason})
    eps = epsilon_vector(A, n)
    member = trop_membership(eps, ideal)
    veps = Quasivaluation.weight(ideal, eps)
    values = [veps.evaluate(ring.variable(i)) for i in range(n)]
    values_ok = all(values[i] == eps[i] for i in range(n))
    evidence = {"trop_membership": member,
                "variable_values": [str(v) for v in values]}
    if member and values_ok:
        return _report("epsilon-facts", inst, PASS, evidence)
    evidence["witness"] = ("monomial found in the initial ideal" if not member
                           else "variable value differs from the weight entry")
    return _report("epsilon-facts", inst, FAIL, evidence)


# ---------------------------------------------------------------------------
# primeness certificates

def _gram_matrix(q):
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


def _exact_divide(f, g):
    """Quotient f/g when g divides f exactly, else None."""
    ring = f.ring
    q = ring.zero()
    rem = f
    gm, gc = g.leading(GREVLEX)
    while not rem.is_zero():
        m, c = rem.leading(GREVLEX)
        if not mono_divides(gm, m):
            return None
        t = ring.monomial(mono_div(m, gm), c / gc)
        q = q + t
        rem = rem - t * g
    return q


def _linear_factor_search(g):
    """Exhaustive small-template search for a linear factor of g over Q.

    Templates are linear forms with coefficients drawn from residues mod
    small primes, lifted to centered integers; a candidate counts only if
    exact division over the rationals succeeds, so hits are certificates
    and misses prove nothing.
    """
    ring = g.ring
    n = ring.nvars
    if n > 4 or g.degree() > 3:
        return None
    seen = set()
    for p in (2, 3, 5, 7):
        centered = lambda a: a - p if a > p // 2 else a
        for coeffs in _templates(n, p):
            lifted = tuple(centered(a) for a in coeffs)
            if lifted in seen:
                continue
            seen.add(lifted)
            ell = ring.zero()
            for i, a in enumerate(lifted):
                if a:
                    ell = ell + ring.variable(i).scale(a)
            if ell.is_zero():
                continue
            q = _exact_divide(g, ell)
            if q is not None:
                return ell, q
    return None


def _templates(n, p):
    """Nonzero coefficient tuples over F_p, first nonzero entry 1."""
    def rec(prefix, normalized):
        if len(prefix) == n:
            if normalized:
                yield prefix
            return
        if not normalized:
            yield from rec(prefix + (0,), False)
            yield from rec(prefix + (1,), True)
        else:
            for a in range(p):
                yield from rec(prefix + (a,), True)
    yield from rec((), False)


def primeness_check(ideal):
    """(verdict, certificate) with verdict Prime, NotPrime, or Undetermined.

    The certificate menu covers linear ideals, monomial ideals, principal
    quadrics (symmetric rank), and principal cubics in few variables via
    factor search.  Everything else is honestly Undetermined.  A
    certificate is ``{"method", "data"}``, the method one of linear,
    monomial, principal-quadric-rank and small-field-factor-search.
    """
    gb = buchberger_reduced(ideal, GREVLEX)
    basis = list(gb.basis)
    if not basis:
        return "Prime", {"method": "linear",
                         "data": {"generators": [], "note": "zero ideal"}}
    if any(g.degree() == 0 for g in basis):
        return "NotPrime", {"method": "monomial",
                            "data": {"witness": "1", "note": "unit ideal"}}
    if all(g.degree() == 1 for g in basis):
        return "Prime", {"method": "linear",
                         "data": {"generators": [str(g) for g in basis]}}
    if all(len(g.terms) == 1 for g in basis):
        # monomial ideal: prime only when generated by variables
        for g in basis:
            (m, _), = g.terms.items()
            if sum(m) >= 2:
                i = next(k for k, e in enumerate(m) if e)
                rest = tuple(e - 1 if k == i else e for k, e in enumerate(m))
                return "NotPrime", {
                    "method": "monomial",
                    "data": {"witness": str(g),
                             "factors": [str(ideal.ring.variable(i)),
                                         str(ideal.ring.monomial(rest))]}}
    if len(basis) == 1:
        g = basis[0]
        content = g.monomial_content()
        if sum(content) > 0:
            cofactor = _exact_divide(g, ideal.ring.monomial(content))
            return "NotPrime", {
                "method": "monomial",
                "data": {"witness": str(g),
                         "factors": [str(ideal.ring.monomial(content)),
                                     str(cofactor)]}}
        if g.degree() == 2:
            M = _gram_matrix(g)
            if M is None:
                return "Undetermined", {
                    "method": "principal-quadric-rank",
                    "data": {"note": "rank certificate unavailable in "
                                     "characteristic 2"}}
            rank = matrix_rank(M)
            return ("Prime" if rank >= 3 else "NotPrime"), {
                "method": "principal-quadric-rank",
                "data": {"rank": rank,
                         "matrix": [[str(x) for x in row] for row in M]}}
        if g.degree() == 3:
            hit = _linear_factor_search(g)
            if hit is not None:
                ell, q = hit
                return "NotPrime", {
                    "method": "small-field-factor-search",
                    "data": {"witness": str(g), "factors": [str(ell), str(q)]}}
            return "Undetermined", {
                "method": "small-field-factor-search",
                "data": {"note": "no lifted factorization found; not a proof"}}
    return "Undetermined", None


def radicality_spot_check(ideal, samples=50, seed=0) -> dict:
    """Property-based evidence for radicality; failures are certificates."""
    ring = ideal.ring
    inst = _instance(ideal, samples=samples, powmax=_POWMAX, seed=seed)
    verdict, cert = primeness_check(ideal)
    if verdict == "Prime":
        return _report(
            "radicality-spot", inst, PASS,
            {"note": "prime by certificate, hence radical",
             "certificate": cert})
    rng = random.Random(repr(("radical", seed)))
    candidates = [ring.variable(i) for i in range(ring.nvars)]
    candidates += [_random_homogeneous(ring, rng, 2) for _ in range(samples)]
    tried = 0
    for f in candidates:
        if f.is_zero() or ideal_membership(f, ideal):
            continue
        tried += 1
        # f in rad(I) \ I proves I is not radical; a power in I, if a small
        # one is, names the exponent
        if not radical_membership(f, ideal):
            continue
        power = f
        for m in range(2, _POWMAX + 1):
            power = power * f
            if ideal_membership(power, ideal):
                return _report(
                    "radicality-spot", inst, FAIL,
                    {"witness": str(f), "power": m,
                     "note": "f^m in I with f not in I"})
        return _report(
            "radicality-spot", inst, FAIL,
            {"witness": str(f),
             "note": "radical member that is not a member"})
    return _report("radicality-spot", inst, PASS,
                   {"note": "no non-radical witness found",
                    "sampled": tried})


def well_poised_check(ideal, samples_per_cone=3, seed=0) -> dict:
    """Primeness across all strata; cross-checked against linearity.

    For audited generic instances the expectation is: linear ideals are
    prime on every stratum, non-linear ones fail primeness somewhere on
    the top-dimensional stratum.
    """
    d = krull_dimension(ideal)
    inst = _instance(ideal, d=d, samples_per_cone=samples_per_cone, seed=seed)
    linear = all(g.degree() == 1 for g in buchberger_reduced(ideal, GREVLEX))
    primeness = {}  # reduced grevlex basis -> (verdict, certificate)
    cones = []
    verdicts = []
    for codim, cone, w, inw in sweep(ideal, d, range(d), samples_per_cone, seed):
        # the certificate depends only on the reduced basis
        key = tuple(_basis_strings(inw))
        if key not in primeness:
            primeness[key] = primeness_check(inw)
        verdict, cert = primeness[key]
        verdicts.append(verdict)
        cones.append({"codim": codim, "A": list(cone.label()),
                      "w": _fmt_w(w), "prime_verdict": verdict,
                      "certificate": cert})
    evidence = {"linear_ideal": linear, "cones": cones}
    if any(v == "Undetermined" for v in verdicts):
        evidence["note"] = "primeness undetermined on some cone"
        return _report("well-poised", inst, UNDETERMINED, evidence)
    all_prime = all(v == "Prime" for v in verdicts)
    evidence["status"] = "well-poised" if all_prime else "not-well-poised"
    consistent = (all_prime and linear) or (not all_prime and not linear)
    verdict = PASS if consistent else FAIL
    if verdict == FAIL:
        evidence["witness"] = ("linear ideal with a non-prime initial ideal"
                               if linear else
                               "non-linear ideal prime on every sampled stratum")
    return _report("well-poised", inst, verdict, evidence)


def cm_fan_audit(ideal, samples_per_cone=3, seed=0) -> dict:
    """Constancy of the initial ideal on the interior of each maximal cone;
    on a cone where it fails, ``_unmet`` may name an unmet hypothesis."""
    d = krull_dimension(ideal)
    inst = _instance(ideal, d=d, samples_per_cone=samples_per_cone, seed=seed)
    first = {}      # cone -> (its first sample, the reduced grevlex basis there)
    for _, cone, w, inw in sweep(ideal, d, (0,), samples_per_cone, seed):
        # reduced grevlex bases: equal iff the ideals are
        basis = _basis_strings(inw)
        base_w, base = first.setdefault(cone, (w, basis))
        if basis != base:
            if reason := _unmet(ideal, cone.A, d):
                return _report(
                    "cm-fan-coincidence", inst, HYPOTHESIS,
                    {"reason": reason, "cone": list(cone.label())})
            return _report(
                "cm-fan-coincidence", inst, FAIL,
                {"witness_cone": list(cone.label()),
                 "w1": _fmt_w(base_w), "w2": _fmt_w(w),
                 "basis1": base, "basis2": basis})
    evidence = {"cones": [{"A": list(cone.label()), "basis": basis}
                          for cone, (_, basis) in first.items()]}
    if samples_per_cone <= 1:
        evidence["note"] = "insufficient sampling: single sample per cone"
    return _report("cm-fan-coincidence", inst, PASS, evidence)
