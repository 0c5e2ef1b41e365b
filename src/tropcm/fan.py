"""Cones C_A, the generic fan, epsilon vectors, and tropical membership.

A cone is stored combinatorially as its subset A of variable indices
(0-based internally, 1-based on every external surface): C_A is the set
of weight vectors whose coordinates outside A all attain the minimum.
All membership tests are exact rational comparisons.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .groebner import holds_monomial, initial_ideal


class ConeCA:
    """C_A = {w : w_i = min(w) for all i outside A}; dimension |A| + 1."""

    __slots__ = ("A", "n")

    def __init__(self, A, n):
        if any(i < 0 or i >= n for i in A):
            raise ValueError("cone subset out of range")
        self.A, self.n = A, n

    def __eq__(self, other):
        if other.__class__ is not ConeCA:
            return NotImplemented
        return self.A == other.A and self.n == other.n

    def __hash__(self):
        return hash((self.A, self.n))

    @property
    def complement(self):
        return frozenset(range(self.n)) - self.A

    def label(self):
        """1-based sorted subset, the external name of the cone."""
        return tuple(sorted(i + 1 for i in self.A))


def cone_contains(cone: ConeCA, w, interior=False) -> bool:
    """Closed containment; ``interior`` restricts to the relative interior."""
    if len(w) != cone.n:
        raise ValueError("weight vector length mismatch")
    w = [Fraction(x) for x in w]
    lo = min(w)
    if any(w[i] != lo for i in cone.complement):
        return False
    if interior and any(w[i] <= lo for i in cone.A):
        return False
    return True


def epsilon_vector(A, n):
    """(0,1)-vector with ones exactly on A."""
    A = set(A)
    if any(i < 0 or i >= n for i in A):
        raise ValueError("subset out of range")
    return tuple(Fraction(1) if i in A else Fraction(0) for i in range(n))


def sample_interior(cone: ConeCA, seed: int):
    """Deterministic rational point of the relative interior, min entry 0."""
    rng = random.Random(("interior", tuple(sorted(cone.A)), cone.n, seed).__repr__())
    w = [Fraction(0)] * cone.n
    for i in sorted(cone.A):
        w[i] = Fraction(rng.randint(1, 9))
    if len(cone.A) == cone.n:
        # A = [n] leaves no coordinate pinned at the minimum; renormalize
        lo = min(w)
        w = [x - lo for x in w]
    return tuple(w)


def enumerate_generic_fan(n, d, codim=0):
    """All cones C_A with |A^c| = n - d + 1 + codim, deterministically ordered."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    if not 0 <= codim <= d - 1:
        raise ValueError("codimension must lie in [0, d-1]")
    size_Ac = n - d + 1 + codim
    size_A = n - size_Ac
    return [ConeCA(frozenset(A), n)
            for A in combinations(range(n), size_A)]


def sample_cones(cones, limit, key):
    """``cones``, or a seeded sample of ``limit`` of them in label order when
    there are more; ``key`` seeds the draw, so equal keys draw equal cones."""
    if limit is None or len(cones) <= limit:
        return cones
    return sorted(random.Random(repr(key)).sample(cones, limit),
                  key=ConeCA.label)


def sweep(ideal, d, codims, samples_per_cone, seed):
    """(codim, cone, w, in_w(I)) for ``samples_per_cone`` interior samples
    w of each cone of each stratum in ``codims``, w drawn with seeds
    ``seed``, ``seed + 1``, ...  The weight bases of I that the sweep
    computes are tried on each later weight (see ``groebner.rebase``)."""
    if samples_per_cone < 1:
        # no sample is no evidence: neither a pass nor a fail
        raise ValueError("samples_per_cone must be at least 1")
    bases = []
    for codim in codims:
        for cone in enumerate_generic_fan(ideal.ring.nvars, d, codim):
            for k in range(samples_per_cone):
                w = sample_interior(cone, seed + k)
                yield codim, cone, w, initial_ideal(w, ideal, bases)


def trop_membership(w, ideal) -> bool:
    """w lies in Trop(I): the initial ideal contains no monomial."""
    return ideal.is_zero() or not holds_monomial(initial_ideal(w, ideal))
