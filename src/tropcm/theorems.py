"""Executable verification of the structural claims on concrete instances.

Every check computes its two sides through disjoint code paths (initial
ideals vs generators with x_A set to zero, Hilbert recursion vs basis
equality, normal-form evaluation vs adic membership) and compares
exactly.  Failed hypotheses are reported as such, never silently folded
into pass or fail; verdicts are ``pass``, ``fail``, ``undetermined``
(primeness outside certificate range) or ``hypothesis-not-met``; the
claims that cut by x_A all take theirs from one gate, ``_unmet``.  One
helper, ``_verdict``, builds every report but those of ``cm-fan`` and an
``undetermined`` well-poisedness, so a ``fail`` carries the evidence of a
``pass`` plus a ``witness``.  Only the fan sweeps (``fan.sweep``), which
compare samples rather than two routes, reuse a weight basis across the
weights of its Groebner cone (``groebner.rebase``, exact).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

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


def _verdict(claim, params, evidence=None, witness=None, reason=None):
    """``hypothesis-not-met`` when there is a ``reason``; else ``pass`` with
    ``evidence``, or ``fail`` with that evidence plus ``witness``."""
    if reason:
        return _report(claim, params, HYPOTHESIS, {"reason": reason})
    if witness is None:
        return _report(claim, params, PASS, evidence)
    return _report(claim, params, FAIL, {**evidence, "witness": witness})


def _bases_differ(lhs_basis, rhs_basis):
    return None if lhs_basis == rhs_basis else "reduced bases differ"


def _fmt_w(w):
    return ",".join(str(Fraction(x)) for x in w)


def _fmt_A(A):
    return sorted(i + 1 for i in A)


def _basis_strings(ideal):
    return buchberger_reduced(ideal, GREVLEX).strings()


def _instance(ideal, **extra):
    return {"generators": [str(g) for g in ideal.generators], **extra}


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
        return _verdict("initial-formula", inst, reason=reason)
    lhs_basis = _basis_strings(initial_ideal(w, ideal))
    rhs_basis = _basis_strings(eliminate(ideal, A))
    return _verdict("initial-formula", inst, {
        "w_in_relative_interior": True, "regular_sequence_size_ok": True,
        "complement_bound_ok": (n - len(A)) <= n - d + 1,
        "initial_ideal_basis": lhs_basis,
        "eliminated_extension_basis": rhs_basis},
        _bases_differ(lhs_basis, rhs_basis))


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
        return _verdict("gr-presentation", inst, reason=reason)
    lhs_ideal = initial_ideal(epsilon_vector(A, n), ideal)
    lhs_series = hilbert_series_quotient(lhs_ideal)
    rhs_ideal = eliminate(ideal, A)
    rhs_series = hilbert_series_quotient(rhs_ideal)
    series_ok = lhs_series == rhs_series
    lhs_basis = _basis_strings(lhs_ideal)
    bases_differ = _bases_differ(lhs_basis, _basis_strings(rhs_ideal))
    return _verdict("gr-presentation", inst, {
        "cut_dimension": rhs_series.dimension() - len(A),
        "expected_cut_dimension": d - len(A),
        "initial_series": str(lhs_series),
        "sliced_series_with_free_variables": str(rhs_series),
        "series_equal": series_ok, "basis_equal": not bases_differ,
        "initial_ideal_basis": lhs_basis},
        bases_differ if series_ok else "Hilbert series differ")


def verify_iterated_initial(ideal, A, i) -> dict:
    """Two-step initial degeneration against the one-step one."""
    n = ideal.ring.nvars
    A = frozenset(A)
    if i not in A:
        raise ValueError("index must belong to A")
    d = krull_dimension(ideal)
    inst = _instance(ideal, A=_fmt_A(A), i=i + 1, d=d)
    if reason := _unmet(ideal, A, d):
        return _verdict("iterated-initial", inst, reason=reason)
    step = initial_ideal(epsilon_vector([i], n), ideal)
    lhs = initial_ideal(epsilon_vector(A - {i}, n), step)
    rhs = initial_ideal(epsilon_vector(A, n), ideal)
    lhs_basis, rhs_basis = _basis_strings(lhs), _basis_strings(rhs)
    return _verdict("iterated-initial", inst,
                    {"two_step_basis": lhs_basis, "one_step_basis": rhs_basis},
                    _bases_differ(lhs_basis, rhs_basis))


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
        return _verdict("quasival-decomposition", inst, reason=reason)
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
            total += step * o
        return Fraction(total, scale)

    worder = MonomialOrder.weighted(w)

    def values():
        """(element, v_w, decomposition, tabled) for each checked element."""
        for deg in range(0, maxdeg + 1):
            for mono in standard_basis_slice(ideal, worder, deg):
                b = ring.monomial(mono)
                yield b, vw.evaluate(b), rhs_on_monomial(mono), True
        gb = buchberger_reduced(ideal, worder)
        rng = random.Random(repr(("decomp", seed, _fmt_w(w), sorted(A))))
        # no homogeneous element has a positive degree below 1
        for _ in range(samples if maxdeg >= 1 else 0):
            f = _random_homogeneous(ring, rng, maxdeg)
            yield f, vw.evaluate(f), min((rhs_on_monomial(m) for m in
                                          normal_form(f, gb).terms),
                                         default=INFINITY), False

    checked = 0
    table = []
    for f, lhs, rhs, tabled in values():
        checked += 1
        if tabled and len(table) < 12:
            table.append({"element": str(f), "v_w": str(lhs),
                          "decomposition": str(rhs)})
        if lhs != rhs:
            return _verdict("quasival-decomposition", inst, {
                "v_w": str(lhs), "decomposition": str(rhs),
                "checked": checked, "value_table": table}, str(f))
    return _verdict("quasival-decomposition", inst,
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
        # v_u (+) v_w is v_{u+w} itself once they share a Groebner cone
        oplus_in_cone([vu, vw])
    except ConeShareError as exc:
        return _verdict("weight-sum", inst, reason=str(exc))
    total = tuple(a + b for a, b in zip(u, w))
    vtotal = Quasivaluation.weight(ideal, total)
    order = MonomialOrder.weighted(total)
    checked = 0
    for deg in range(0, maxdeg + 1):
        for mono in standard_basis_slice(ideal, order, deg):
            b = ring.monomial(mono)
            a1, a2, s = vu.evaluate(b), vw.evaluate(b), vtotal.evaluate(b)
            checked += 1
            if a1 + a2 != s:
                return _verdict("weight-sum", inst, {
                    "v_u": str(a1), "v_w": str(a2), "v_sum": str(s),
                    "oplus": str(s), "checked": checked}, str(b))
    return _verdict("weight-sum", inst, {"checked": checked})


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
        return _verdict("epsilon-facts", inst, reason=reason)
    eps = epsilon_vector(A, n)
    member = trop_membership(eps, ideal)
    veps = Quasivaluation.weight(ideal, eps)
    values = tuple(veps.evaluate(ring.variable(i)) for i in range(n))
    return _verdict("epsilon-facts", inst, {
        "trop_membership": member, "variable_values": [str(v) for v in values]},
        "monomial found in the initial ideal" if not member else (
            None if values == eps
            else "variable value differs from the weight entry"))


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
        # templates: tuples over F_p whose first nonzero entry is 1
        for coeffs in product(range(p), repeat=n):
            lifted = tuple(centered(a) for a in coeffs)
            if next(filter(None, coeffs), 0) != 1 or lifted in seen:
                continue
            seen.add(lifted)
            ell = ring.zero()
            for i, a in enumerate(lifted):
                if a:
                    ell = ell + ring.variable(i).scale(a)
            q = _exact_divide(g, ell)
            if q is not None:
                return ell, q
    return None


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
        return _verdict("radicality-spot", inst, {
            "note": "prime by certificate, hence radical", "certificate": cert})
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
                return _verdict("radicality-spot", inst, {
                    "power": m, "note": "f^m in I with f not in I"}, str(f))
        return _verdict("radicality-spot", inst, {
            "note": "radical member that is not a member"}, str(f))
    return _verdict("radicality-spot", inst, {
        "note": "no non-radical witness found", "sampled": tried})


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
    return _verdict("well-poised", inst, evidence, None if all_prime == linear
                    else "linear ideal with a non-prime initial ideal" if linear
                    else "non-linear ideal prime on every sampled stratum")


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
