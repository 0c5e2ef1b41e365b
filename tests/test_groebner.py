import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from tropcm import (GREVLEX, LEX, QQ, HilbertSeries, Ideal, MonomialOrder,
                    NonHomogeneousError, PrimeField, buchberger_reduced,
                    contains_monomial, default_ring, eliminate, extend_ideal,
                    hilbert_series_quotient, ideal_membership, initial_ideal,
                    krull_dimension, normal_form, parse_polynomial,
                    radical_membership)
import tropcm.groebner
from tropcm.cache import GBCache, digest
from tropcm.macaulay import graded_slice, initial_slice_oracle
from tropcm.polynomials import monomials_of_degree

from conftest import elimination, ideal_from

R3 = default_ring(3)


def gb_strings(ideal, order=GREVLEX):
    return buchberger_reduced(ideal, order).strings()


# -- reduced bases ------------------------------------------------------------

def test_linear_system():
    I = ideal_from(R3, "x1 + x2", "x1 - x2")
    assert gb_strings(I) == ["x1", "x2"]


def test_principal_ideal_is_monic_generator():
    I = ideal_from(R3, "3*x1*x3 - 3*x2^2")
    assert gb_strings(I) == ["x2^2 - x1*x3"]


def test_generic_transform_keeps_principal(e_pluck_generic):
    assert len(gb_strings(e_pluck_generic)) == 1


def test_reduced_basis_canonical_across_generating_sets():
    f = parse_polynomial("x1*x3 - x2^2", R3)
    g = parse_polynomial("x1^2 + x2*x3", R3)
    I = Ideal(R3, [f, g])
    x1 = R3.variable(0)
    regenerated = Ideal(R3, [f + g, g, (f * x1)])
    assert I == regenerated
    for order in (GREVLEX, LEX, MonomialOrder.weighted((1, 0, 2))):
        assert gb_strings(I, order) == gb_strings(regenerated, order)


def test_rejects_inhomogeneous_generator():
    with pytest.raises(NonHomogeneousError):
        ideal_from(R3, "x1 + 1")


# -- normal forms -------------------------------------------------------------

def test_normal_form_membership_and_fixed_points():
    I = ideal_from(R3, "x1*x3 - x2^2")
    gb = buchberger_reduced(I, GREVLEX)
    f = parse_polynomial("(x1*x3 - x2^2)*(x1 + x2)", R3)
    assert normal_form(f, gb).is_zero()
    standard = parse_polynomial("x1*x2", R3)
    assert normal_form(standard, gb) == standard


def test_normal_form_single_reduction_under_weight_order():
    I = ideal_from(R3, "x1*x3 - x2^2")
    gb = buchberger_reduced(I, MonomialOrder.weighted((1, 0, 0)))
    f = parse_polynomial("x2^2", R3)
    assert normal_form(f, gb) == parse_polynomial("x1*x3", R3)


# -- initial ideals -----------------------------------------------------------

def test_initial_ideal_constant_weight_is_identity(e_conic, e_pluck):
    for I in (e_conic, e_pluck):
        n = I.ring.nvars
        assert initial_ideal((1,) * n, I) == I
        assert initial_ideal((Fraction(5, 2),) * n, I) == I


def test_initial_ideal_conic():
    I = ideal_from(R3, "x1*x3 - x2^2")
    assert gb_strings(initial_ideal((1, 0, 0), I)) == ["x2^2"]


def test_initial_ideal_binomial():
    R2 = default_ring(2)
    I = ideal_from(R2, "x1 + x2")
    assert gb_strings(initial_ideal((0, 1), I)) == ["x1"]


def test_initial_ideal_idempotent(e_quad4_generic):
    w = (0, 2, 3, 0)
    first = initial_ideal(w, e_quad4_generic)
    assert initial_ideal(w, first) == first


def test_initial_ideal_invariances(e_conic_generic):
    w = (Fraction(1), Fraction(0), Fraction(2))
    base = initial_ideal(w, e_conic_generic)
    shifted = tuple(x + Fraction(7, 3) for x in w)
    scaled = tuple(Fraction(5, 2) * x for x in w)
    assert initial_ideal(shifted, e_conic_generic) == base
    assert initial_ideal(scaled, e_conic_generic) == base


def test_initial_degeneration_preserves_hilbert_series(generic_corpus):
    rng = random.Random(7)
    for I in generic_corpus.values():
        n = I.ring.nvars
        hs = hilbert_series_quotient(I)
        for _ in range(3):
            w = tuple(Fraction(rng.randint(0, 5)) for _ in range(n))
            assert hilbert_series_quotient(initial_ideal(w, I)) == hs


def test_initial_ideal_rebases_its_carried_basis_only_on_a_miss(
        e_quad4_generic, monkeypatch, fresh_cache):
    calls = []
    original = tropcm.groebner.rebase

    def counted(gb, order):
        calls.append(order)
        return original(gb, order)

    monkeypatch.setattr(tropcm.groebner, "rebase", counted)
    w = (Fraction(3), Fraction(0), Fraction(1), Fraction(2))
    inw = initial_ideal(w, e_quad4_generic)
    assert calls == []
    first = buchberger_reduced(inw, GREVLEX)
    assert calls == [GREVLEX]
    again = initial_ideal(w, e_quad4_generic)
    assert buchberger_reduced(again, GREVLEX) is first
    assert calls == [GREVLEX]


def test_initial_ideal_matches_macaulay_oracle(corpus, generic_corpus):
    rng = random.Random(3)
    for name in corpus:
        for I in (corpus[name], generic_corpus[name]):
            n = I.ring.nvars
            w = tuple(Fraction(rng.randint(0, 4)) for _ in range(n))
            inw = initial_ideal(w, I)
            for degree in range(1, 5):
                oracle, _ = initial_slice_oracle(list(I.generators), w, degree)
                engine, _ = graded_slice(list(inw.generators), degree)
                assert oracle == engine, (name, w, degree)


# -- elimination --------------------------------------------------------------

def test_eliminate_conic():
    I = ideal_from(R3, "x1*x3 - x2^2")
    E = eliminate(I, [0])
    assert E.ring.names == ("x2", "x3")
    assert gb_strings(E) == ["x2^2"]


def test_eliminate_linear_keeps_induced_relation():
    # I + <x3> = <x1 + x2, x3>, so the presentation of R/<y3> has kernel <x1 + x2>
    I = ideal_from(R3, "x1 + x2 + x3")
    E = eliminate(I, [2])
    assert E.ring.names == ("x1", "x2")
    assert gb_strings(E) == ["x1 + x2"]


def test_eliminate_empty_subset_is_identity(e_conic):
    assert eliminate(e_conic, []) is e_conic


def test_eliminate_extension_round_trip(e_quad4_generic):
    A = [0, 1]
    E = eliminate(e_quad4_generic, A)
    back = extend_ideal(E, e_quad4_generic.ring, [2, 3])
    assert back.ring is e_quad4_generic.ring
    for g in back.generators:
        assert ideal_membership(g, Ideal(e_quad4_generic.ring,
                                         list(e_quad4_generic.generators)
                                         + [e_quad4_generic.ring.variable(i)
                                            for i in A]))


# -- membership ---------------------------------------------------------------

def test_ideal_membership_examples():
    I = ideal_from(R3, "x1*x3 - x2^2", "x1")
    assert ideal_membership(I.generators[0], I)
    assert ideal_membership(parse_polynomial("x2^2", R3), I)
    assert not ideal_membership(R3.one(), ideal_from(R3, "x1*x3 - x2^2"))


def test_radical_membership_examples():
    assert radical_membership(parse_polynomial("x1", R3), ideal_from(R3, "x1^2"))
    assert not radical_membership(parse_polynomial("x2", R3), ideal_from(R3, "x1"))
    square = ideal_from(R3, "x1^2 + 2*x1*x2 + x2^2")
    assert radical_membership(parse_polynomial("x1 + x2", R3), square)


TWISTED_CUBIC = ("x1*x3 - x2^2", "x2*x4 - x3^2", "x1*x4 - x2*x3")

# name -> (generators of I, generators of rad(I), probes); a probe's kind is
# "I" for f in I, "rad" for f in rad(I) but not in I, "out" for f not in rad(I)
KNOWN_RADICALS = {
    "monomial": (("x1^2", "x2^3"), ("x1", "x2"), [
        ("x1^2*x3", "I"), ("x2^3", "I"), ("x1", "rad"), ("x1 + x2", "rad"),
        ("x1*x2 + x2*x3", "rad"), ("x1*x2*x4", "rad"), ("x3", "out"),
        ("x1 + x3", "out"), ("x3^2 - x1*x4", "out")]),
    "squared-linear-form": (("x1^2 - 2*x1*x2 + x2^2",), ("x1 - x2",), [
        ("x1^2 - 2*x1*x2 + x2^2", "I"), ("x1 - x2", "rad"),
        ("x1*x3 - x2*x3", "rad"), ("x1^3 - x2^3", "rad"), ("x1", "out"),
        ("x1^2 - x2^2 + x3^2", "out")]),
    "linear-plus-square": (("x1 + x2", "x3^2"), ("x1 + x2", "x3"), [
        ("x1 + x2", "I"), ("x1*x4 + x2*x4", "I"), ("x3", "rad"),
        ("x1 + x2 + x3", "rad"), ("x3*x4^2", "rad"), ("x4", "out"),
        ("x1^2 + x3*x4", "out")]),
    "twisted-cubic-squares": (
        tuple(f"({g})^2" for g in TWISTED_CUBIC), TWISTED_CUBIC, [
            ("x1*x3 - x2^2", "rad"), ("x1*x4 - x2*x3 + x2*x4 - x3^2", "rad"),
            ("x1^2*x4 - x1*x2*x3", "rad"), ("x1", "out"),
            ("x1*x4 + x2*x3", "out"), ("x1^3 + x4^3", "out")]),
}
PROBE_FIELDS = {"Q": QQ, "F32003": PrimeField(32003)}


@pytest.mark.parametrize("field_name", sorted(PROBE_FIELDS))
@pytest.mark.parametrize("name", sorted(KNOWN_RADICALS))
def test_radical_membership_against_a_known_radical(name, field_name):
    ring = default_ring(4, PROBE_FIELDS[field_name])
    gens, radical, probes = KNOWN_RADICALS[name]
    I, rad = ideal_from(ring, *gens), ideal_from(ring, *radical)
    for text, kind in probes:
        f = parse_polynomial(text, ring)
        # the probe's kind, checked by plain membership
        assert ideal_membership(f, I) == (kind == "I"), text
        assert ideal_membership(f, rad) == (kind != "out"), text
        assert radical_membership(f, I) == (kind != "out"), text


@pytest.mark.parametrize("field_name", sorted(PROBE_FIELDS))
def test_radical_membership_in_a_unit_ideal(field_name):
    ring = default_ring(3, PROBE_FIELDS[field_name])
    unit = ideal_from(ring, "3", "x1^2 - x2*x3")
    for text in ("x1", "x2*x3", "x1^3 + x2^3 - x3^3"):
        assert radical_membership(parse_polynomial(text, ring), unit)


@pytest.mark.parametrize("text", ["0", "1", "-2/3", "x1 + x2^2", "x1^3 - x3"])
def test_radical_membership_rejects_a_zero_constant_or_mixed_f(text):
    with pytest.raises(ValueError):
        radical_membership(parse_polynomial(text, R3), ideal_from(R3, "x1^2"))


# -- monomial detection -------------------------------------------------------

def brute_monomial_search(ideal, maxdeg=4):
    gb = buchberger_reduced(ideal, GREVLEX)
    for d in range(1, maxdeg + 1):
        for m in monomials_of_degree(ideal.ring.nvars, d):
            if normal_form(ideal.ring.monomial(m), gb).is_zero():
                return m
    return None


def test_contains_monomial_examples():
    assert contains_monomial(ideal_from(R3, "x1*x3")) == (1, 0, 1)
    assert contains_monomial(ideal_from(R3, "x1 + x2")) is None
    assert contains_monomial(ideal_from(R3, "x1 + x2", "x1 - x2")) == (1, 0, 0)


def test_contains_monomial_agrees_with_brute_force():
    cases = [
        ideal_from(R3, "x1*x3 - x2^2"),
        ideal_from(R3, "x2^2"),
        ideal_from(R3, "x1 + x2", "x2 + x3"),
        ideal_from(R3, "x1*x2 - x3^2", "x3^2"),
    ]
    for I in cases:
        assert contains_monomial(I) == brute_monomial_search(I)


# -- Hilbert series and dimension ----------------------------------------------

def test_hilbert_series_zero_ideal():
    I = Ideal(R3, [])
    assert hilbert_series_quotient(I) == HilbertSeries((1,), 3)


def test_hilbert_series_principal_quadrics(e_pluck):
    I = ideal_from(R3, "x2^2")
    assert hilbert_series_quotient(I) == HilbertSeries((1, 0, -1), 3)
    assert hilbert_series_quotient(e_pluck) == HilbertSeries((1, 0, -1), 6)


def test_hilbert_series_order_independent(e_quad4_generic):
    base = hilbert_series_quotient(e_quad4_generic)
    for order in (LEX, MonomialOrder.weighted((0, 1, 1, 3))):
        assert buchberger_reduced(e_quad4_generic, order).hilbert_series() == base


def test_hilbert_function_counts_standard_monomials(e_conic):
    hs = hilbert_series_quotient(e_conic)
    gb = buchberger_reduced(e_conic, GREVLEX)
    lms = gb.leading_monomials()
    for m in range(6):
        count = sum(1 for mono in monomials_of_degree(3, m)
                    if not any(all(a <= b for a, b in zip(l, mono)) for l in lms))
        assert hs.hilbert_function(m) == count >= 0


def test_krull_dimension_examples(e_pluck):
    assert krull_dimension(Ideal(R3, [])) == 3
    assert krull_dimension(e_pluck) == 5
    assert krull_dimension(ideal_from(R3, "x1", "x2", "x3")) == 0
    with pytest.raises(ValueError):
        krull_dimension(Ideal(R3, [R3.one()]))


def test_corpus_dimensions(corpus, generic_corpus):
    expected = {"e-lin": 2, "e-conic": 2, "e-quad4": 3, "e-pluck": 5}
    for name, d in expected.items():
        assert krull_dimension(corpus[name]) == d
        assert krull_dimension(generic_corpus[name]) == d


def test_hilbert_series_computed_once_per_basis(e_pluck, monkeypatch, fresh_cache):
    gb = buchberger_reduced(e_pluck, GREVLEX)
    calls = []
    build = HilbertSeries.from_leading_monomials

    def counted(cls, gens, n):
        calls.append(n)
        return build(gens, n)

    monkeypatch.setattr(HilbertSeries, "from_leading_monomials",
                        classmethod(counted))
    series = hilbert_series_quotient(e_pluck)
    assert krull_dimension(e_pluck) == krull_dimension(e_pluck) == 5
    assert hilbert_series_quotient(e_pluck) is series
    assert gb.hilbert_series() is series
    assert calls == [6]


# -- cache ---------------------------------------------------------------------

def test_cache_persists_to_directory(tmp_path, fresh_cache):
    fresh_cache(tmp_path)
    I = ideal_from(R3, "x1*x3 - x2^2", "x1^2 + x2*x3")
    gb = buchberger_reduced(I, GREVLEX)
    files = list(tmp_path.glob("*.json"))
    assert files
    fresh_cache(tmp_path)
    J = ideal_from(R3, "x1*x3 - x2^2", "x1^2 + x2*x3")
    again = buchberger_reduced(J, GREVLEX)
    assert again.strings() == gb.strings()


def test_cache_canonical_key_shares_across_generating_sets(tmp_path, fresh_cache):
    fresh_cache(tmp_path)
    f = parse_polynomial("x1*x3 - x2^2", R3)
    g = parse_polynomial("x1^2 + x2*x3", R3)
    order = MonomialOrder.weighted((2, 0, 1))
    first = buchberger_reduced(Ideal(R3, [f, g]), order)
    n_files = len(list(tmp_path.glob("*.json")))
    second = buchberger_reduced(Ideal(R3, [g, f + g]), order)
    assert first.strings() == second.strings()
    # keys hash the generators as given: the second set gets entries of its own
    assert len(list(tmp_path.glob("*.json"))) >= n_files


CACHE_ORDERS = {"grevlex": GREVLEX,
                "weight": MonomialOrder.weighted((Fraction(1, 2), 0, Fraction(1, 3))),
                "elim": elimination({0}, 3)}


def count_parses(monkeypatch):
    calls = []
    original = tropcm.groebner.parse_polynomial

    def counted(text, ring):
        calls.append(text)
        return original(text, ring)

    monkeypatch.setattr(tropcm.groebner, "parse_polynomial", counted)
    return calls


def test_cache_entries_record_ring_and_order(tmp_path, fresh_cache):
    fresh_cache(tmp_path)
    I = ideal_from(R3, "x1*x3 - x2^2", "x1^2 + x2*x3")
    for order in reversed(CACHE_ORDERS.values()):
        buchberger_reduced(I, order)
    entries = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
    # two weight bases, and the grevlex basis that drives both weight runs
    assert len(entries) == 3
    assert all(set(e) == {"basis", "ring", "order"} for e in entries)


@pytest.mark.parametrize("order", CACHE_ORDERS.values(), ids=list(CACHE_ORDERS))
def test_cache_fresh_memory_and_disk_agree(tmp_path, monkeypatch, fresh_cache, order):
    parses = count_parses(monkeypatch)
    I = ideal_from(R3, "x1*x3 - x2^2", "x1^2 + x2*x3")
    fresh_cache(tmp_path)
    fresh = buchberger_reduced(I, order)
    memory = buchberger_reduced(I, order)
    assert parses == []                    # a memory hit parses nothing
    fresh_cache(tmp_path)
    disk = buchberger_reduced(ideal_from(R3, "x1*x3 - x2^2", "x1^2 + x2*x3"), order)
    assert parses                          # the entry came from disk
    assert fresh.strings() == memory.strings() == disk.strings()
    assert disk.leading_monomials() == fresh.leading_monomials()


@pytest.mark.parametrize("damage", [
    lambda text: text[:len(text) // 2],                 # truncated JSON
    lambda text: json.dumps({"ring": "QQ[x1,x2,x3]"}),  # no basis
    lambda text: json.dumps({"basis": ["x1 +* y7"]}),   # not a polynomial
    lambda text: json.dumps({"basis": "x1"}),           # not a list
    lambda text: json.dumps({"basis": ["x1^2 - x2"]}),  # not homogeneous
    lambda text: json.dumps({"basis": ["x1"]}),         # no ring, no order
    lambda text: json.dumps(dict(json.loads(text), ring="Fp:7[x1,x2,x3]")),
    lambda text: json.dumps(dict(json.loads(text), order="lex")),
], ids=["truncated", "no-basis", "unparsable", "not-a-list", "non-homogeneous",
        "no-metadata", "other-ring", "other-order"])
def test_cache_unreadable_entry_is_recomputed(tmp_path, fresh_cache, damage):
    I = ideal_from(R3, "x1*x3 - x2^2", "x1^2 + x2*x3")
    fresh_cache(tmp_path)
    expected = buchberger_reduced(I, GREVLEX)
    files = sorted(tmp_path.glob("*.json"))
    for path in files:
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    fresh_cache(tmp_path)
    again = buchberger_reduced(ideal_from(R3, "x1*x3 - x2^2", "x1^2 + x2*x3"), GREVLEX)
    assert again.strings() == expected.strings()
    raw_key = digest(I.generator_key(), GREVLEX.descriptor())
    entry = json.loads((tmp_path / f"{raw_key}.json").read_text(encoding="utf-8"))
    assert entry == {"basis": expected.strings(), "ring": "Q[x1,x2,x3]",
                     "order": "grevlex"}


class _Strings:
    def __init__(self, *strings):
        self._strings = list(strings)

    def strings(self):
        return self._strings


def test_cache_writers_sharing_a_directory_do_not_collide(tmp_path, monkeypatch):
    # a second cache on the same directory stands in for another process; it
    # writes the same key while the first is between its write and rename
    first, second = GBCache(str(tmp_path)), GBCache(str(tmp_path))
    replace = os.replace
    raced = []

    def racing(src, dst):
        if not raced:
            raced.append(src)
            second.put("key", _Strings("x2"), {})
        replace(src, dst)

    monkeypatch.setattr(os, "replace", racing)
    first.put("key", _Strings("x1"), {})
    assert raced
    assert os.listdir(tmp_path) == ["key.json"]
    assert json.loads((tmp_path / "key.json").read_text())["basis"] == ["x1"]


def test_digest_is_sha256():
    parts = ("QQ[x1,x2]", "x1^2 - x2", "weight(1/2,0);grevlex")
    data = b"".join(p.encode("utf-8") + b"\x00" for p in parts)
    assert digest(*parts) == hashlib.sha256(data).hexdigest()


# -- prime-field coefficients ---------------------------------------------------

def test_prime_field_pipeline():
    from tropcm.fields import PrimeField
    from tropcm import (apply_change, genericity_audit, random_gl,
                        verify_initial_formula)
    ring = default_ring(3).__class__(("x1", "x2", "x3"), PrimeField(32003))
    I = Ideal(ring, [parse_polynomial("x1*x3 - x2^2", ring)])
    assert gb_strings(I) == ["x2^2 + 32002*x1*x3"]
    assert gb_strings(initial_ideal((1, 0, 0), I)) == ["x2^2"]
    assert krull_dimension(I) == 2
    g = random_gl(3, seed=2, bound=100, field=PrimeField(32003))
    J = apply_change(g, I)
    assert genericity_audit(J, maxA=1).passed
    assert verify_initial_formula(J, frozenset({0}), (1, 0, 0)).verdict == "pass"
