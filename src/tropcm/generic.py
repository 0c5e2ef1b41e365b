"""Seeded linear coordinate changes and the genericity audit.

Randomness stands in for the non-constructive dense open subsets of GL_n:
a change of coordinates is sampled from a seeded generator, and the audit
then checks exactly the dimension statements the downstream verifications
rely on.  An instance that passes is certified generic *for this run*,
nothing stronger.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .fields import QQ, PrimeField
from .groebner import Ideal, krull_dimension
from .macaulay import row_echelon


class LinearChange:
    """Invertible n x n matrix; row j holds the image of the j-th variable."""

    __slots__ = ("matrix", "seed", "bound", "field")

    def __init__(self, matrix, seed, bound, field=QQ):
        self.matrix, self.seed, self.bound, self.field = matrix, seed, bound, field

    def __eq__(self, other):
        if other.__class__ is not LinearChange:
            return NotImplemented
        return (self.matrix, self.seed, self.bound, self.field) == (
            other.matrix, other.seed, other.bound, other.field)

    def __hash__(self):
        return hash((self.matrix, self.seed, self.bound, self.field))

    @property
    def n(self):
        return len(self.matrix)


def random_gl(n, seed, bound=100, field=QQ):
    """Seeded invertible matrix with entries in [-bound, bound] (or in F_p).

    Resampling on singular draws is capped; hitting the cap signals a
    degenerate configuration rather than looping forever.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    rng = random.Random(repr(("gl", n, seed, bound, field.name)))
    for _ in range(100):
        if isinstance(field, PrimeField):
            matrix = tuple(tuple(field.coerce(rng.randrange(field.p))
                                 for _ in range(n)) for _ in range(n))
        else:
            matrix = tuple(tuple(Fraction(rng.randint(-bound, bound))
                                 for _ in range(n)) for _ in range(n))
        if len(row_echelon(matrix)[1]) == n:   # full rank
            return LinearChange(matrix, seed, bound, field)
    raise RuntimeError("could not sample an invertible matrix (degenerate field?)")


def apply_change(g: LinearChange, ideal: Ideal) -> Ideal:
    """Substitute x_j -> sum_i g[j][i] x_i in every generator."""
    ring = ideal.ring
    if g.n != ring.nvars:
        raise ValueError("matrix size does not match the ring")
    images = []
    for j in range(g.n):
        img = ring.zero()
        for i, c in enumerate(g.matrix[j]):
            if c:
                img = img + ring.variable(i).scale(c)
        images.append(img)
    return Ideal(ring, [p.substitute(images, ring) for p in ideal.generators])


class AuditCheck:
    __slots__ = ("A", "expected_dim", "actual_dim")    # A: 1-based, sorted

    def __init__(self, A, expected_dim, actual_dim):
        self.A, self.expected_dim, self.actual_dim = A, expected_dim, actual_dim

    def __eq__(self, other):
        if other.__class__ is not AuditCheck:
            return NotImplemented
        return (self.A, self.expected_dim, self.actual_dim) == (
            other.A, other.expected_dim, other.actual_dim)

    def __hash__(self):
        return hash((self.A, self.expected_dim, self.actual_dim))

    @property
    def ok(self):
        return self.expected_dim == self.actual_dim

    def to_dict(self):
        return {"A": list(self.A), "expected_dim": self.expected_dim,
                "actual_dim": self.actual_dim, "pass": self.ok}


class GenericityAudit:
    __slots__ = ("d", "seed", "checks")

    def __init__(self, d, seed):
        self.d, self.seed, self.checks = d, seed, []

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.ok]

    def to_dict(self):
        return {"d": self.d, "seed": self.seed, "pass": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


def genericity_audit(ideal, maxA=None, max_subsets=None, seed=0) -> GenericityAudit:
    """Check dim(I + <x_i : i in A>) = d - |A| for subsets up to size maxA.

    When the subset family is large, a seeded sample of ``max_subsets`` is
    audited instead.  Failures are recorded, not raised.
    """
    n = ideal.ring.nvars
    d = krull_dimension(ideal)
    if maxA is None:
        maxA = d - 1
    if maxA > d - 1:
        raise ValueError("maxA cannot exceed d - 1")
    subsets = [A for size in range(1, maxA + 1)
               for A in combinations(range(n), size)]
    if max_subsets is not None and len(subsets) > max_subsets:
        rng = random.Random(repr(("audit", seed, n, d, maxA)))
        subsets = sorted(rng.sample(subsets, max_subsets))
    audit = GenericityAudit(d=d, seed=seed)
    ring = ideal.ring
    for A in subsets:
        cut = Ideal(ring, list(ideal.generators) + [ring.variable(i) for i in A])
        actual = krull_dimension(cut)
        audit.checks.append(AuditCheck(tuple(i + 1 for i in A), d - len(A), actual))
    return audit
