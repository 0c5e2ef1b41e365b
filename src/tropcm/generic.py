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

from .fan import enumerate_generic_fan, sample_cones
from .fields import QQ, PrimeField
from .groebner import Ideal, eliminate, krull_dimension
from .macaulay import matrix_rank


def random_gl(n, seed, bound=100, field=QQ):
    """Seeded invertible matrix with entries in [-bound, bound] (or in F_p),
    a tuple of rows; row j holds the image of the j-th variable.

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
        if matrix_rank(matrix) == n:
            return matrix
    raise RuntimeError("could not sample an invertible matrix (degenerate field?)")


def apply_change(matrix, ideal: Ideal) -> Ideal:
    """Substitute x_j -> sum_i matrix[j][i] x_i in every generator."""
    ring = ideal.ring
    if len(matrix) != ring.nvars:
        raise ValueError("matrix size does not match the ring")
    images = []
    for row in matrix:
        img = ring.zero()
        for i, c in enumerate(row):
            if c:
                img = img + ring.variable(i).scale(c)
        images.append(img)
    return Ideal(ring, [p.substitute(images) for p in ideal.generators])


def genericity_audit(ideal, maxA=None, max_subsets=None, seed=0) -> dict:
    """Check dim(I + <x_i : i in A>) = d - |A| for subsets up to size maxA.

    When the subset family is large, a seeded sample of ``max_subsets`` is
    audited instead.  Failures are recorded, not raised: the result is
    ``{"d", "seed", "pass", "checks"}``, with one check
    ``{"A" (1-based), "expected_dim", "actual_dim", "pass"}`` per subset.
    """
    n = ideal.ring.nvars
    d = krull_dimension(ideal)
    if maxA is None:
        maxA = d - 1
    if maxA > d - 1:
        raise ValueError("maxA cannot exceed d - 1")
    # |A| = 1, ..., maxA: the strata of codimension d - 2 down to d - 1 - maxA
    cones = [cone for size in range(1, maxA + 1)
             for cone in enumerate_generic_fan(n, d, d - 1 - size)]
    checks = []
    for cone in sample_cones(cones, max_subsets, ("audit", seed, n, d, maxA)):
        # k[x]/(I + <x_A>) is k[x]/I_A k[x] without the |A| free variables x_A
        expected = d - len(cone.A)
        actual = krull_dimension(eliminate(ideal, cone.A)) - len(cone.A)
        checks.append({"A": list(cone.label()), "expected_dim": expected,
                       "actual_dim": actual, "pass": actual == expected})
    return {"d": d, "seed": seed, "pass": all(c["pass"] for c in checks),
            "checks": checks}
