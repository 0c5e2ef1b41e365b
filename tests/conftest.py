"""Shared instance corpus: hypersurfaces and their seeded generic versions."""

from fractions import Fraction

import pytest

import tropcm.cache
from tropcm import (GREVLEX, Ideal, MonomialOrder, apply_change,
                    default_ring, parse_polynomial, random_gl)
from tropcm.polynomials import mono_div, mono_divides

SEED = 42
BOUND = 100


def ideal_from(ring, *texts):
    return Ideal(ring, [parse_polynomial(t, ring) for t in texts])


def compare(order, a, b):
    """-1, 0, or 1 as ``a`` is below, equal to, or above ``b`` in ``order``."""
    if len(a) != len(b):
        raise ValueError("monomials from rings of different sizes")
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def elimination(A, n):
    """The order eliminating the 0-based variables ``A`` of ``n``: the
    weight -1 on them and 0 elsewhere, ties broken by grevlex."""
    return MonomialOrder.weighted([-(i in A) for i in range(n)])


def fraction_weight_value(w, exps):
    """Reference <w, exps>: one Fraction product per coordinate, summed."""
    return sum((Fraction(a) * e for a, e in zip(w, exps)), Fraction(0))


def reference_to_string(f):
    """Reference canonical text: the term-by-term formatter that
    ``Polynomial.to_string`` replaced, sorted by ``GREVLEX.key``."""
    if not f.terms:
        return "0"
    pieces = []
    for i, m in enumerate(sorted(f.terms, key=GREVLEX.key, reverse=True)):
        body = "*".join(
            f"{f.ring.names[j]}^{e}" if e > 1 else f.ring.names[j]
            for j, e in enumerate(m) if e)
        cs = str(f.terms[m])
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        if body and mag == "1":
            text = body
        elif body:
            text = f"{mag}*{body}"
        else:
            text = mag
        if i == 0:
            pieces.append(f"-{text}" if neg else text)
        else:
            pieces.append(f" - {text}" if neg else f" + {text}")
    return "".join(pieces)


def fraction_normal_form(f, basis, order):
    """Reference remainder of f by a Groebner basis: textbook division, one
    Fraction quotient c/lc per step, the leading term first."""
    ring = f.ring
    heads = [g.leading(order) + (g,) for g in basis]
    p, rem = f, ring.zero()
    while not p.is_zero():
        m, c = p.leading(order)
        for gm, gc, g in heads:
            if mono_divides(gm, m):
                p = p - ring.monomial(mono_div(m, gm), c / gc) * g
                break
        else:
            term = ring.monomial(m, c)
            rem, p = rem + term, p - term
    return rem


@pytest.fixture()
def fresh_cache(monkeypatch):
    """A new empty process-wide basis cache, installed for one test.

    ``fresh_cache(directory=None)`` installs another one, as a new process
    would start with, optionally mirrored to ``directory``, and returns it.
    """
    def install(directory=None):
        cache = tropcm.cache.GBCache(directory=str(directory) if directory else None)
        monkeypatch.setattr(tropcm.cache, "_default", cache)
        return cache

    install()
    return install


@pytest.fixture(scope="session")
def ring3():
    return default_ring(3)


@pytest.fixture(scope="session")
def ring4():
    return default_ring(4)


@pytest.fixture(scope="session")
def ring6():
    return default_ring(6)


@pytest.fixture(scope="session")
def e_lin(ring3):
    return ideal_from(ring3, "x1 + x2 + x3")


@pytest.fixture(scope="session")
def e_conic(ring3):
    return ideal_from(ring3, "x1*x3 - x2^2")


@pytest.fixture(scope="session")
def e_quad4(ring4):
    text = " + ".join(f"x{i}*x{j}" for i in range(1, 5) for j in range(i, 5))
    return ideal_from(ring4, text)


@pytest.fixture(scope="session")
def e_pluck(ring6):
    return ideal_from(ring6, "x1*x6 - x2*x5 + x3*x4")


def _generic(ideal, seed=SEED, bound=BOUND):
    g = random_gl(ideal.ring.nvars, seed, bound)
    return apply_change(g, ideal)


@pytest.fixture(scope="session")
def e_rnc4_generic():
    """The generic rational normal quartic, as the benchmark builds it."""
    top, bottom = ["x1", "x2", "x3", "x4"], ["x2", "x3", "x4", "x5"]
    minors = [f"{top[a]}*{bottom[b]} - {top[b]}*{bottom[a]}"
              for a in range(4) for b in range(a + 1, 4)]
    return _generic(ideal_from(default_ring(5), *minors))


@pytest.fixture(scope="session")
def e_lin_generic(e_lin):
    return _generic(e_lin)


@pytest.fixture(scope="session")
def e_conic_generic(e_conic):
    return _generic(e_conic)


@pytest.fixture(scope="session")
def e_quad4_generic(e_quad4):
    return _generic(e_quad4)


@pytest.fixture(scope="session")
def e_pluck_generic(e_pluck):
    return _generic(e_pluck)


@pytest.fixture(scope="session")
def corpus(e_lin, e_conic, e_quad4, e_pluck):
    return {"e-lin": e_lin, "e-conic": e_conic,
            "e-quad4": e_quad4, "e-pluck": e_pluck}


@pytest.fixture(scope="session")
def generic_corpus(e_lin_generic, e_conic_generic, e_quad4_generic,
                   e_pluck_generic):
    return {"e-lin": e_lin_generic, "e-conic": e_conic_generic,
            "e-quad4": e_quad4_generic, "e-pluck": e_pluck_generic}
