import random
from itertools import combinations, product

import pytest

from tropcm import (ConeCA, cone_contains, default_ring, enumerate_generic_fan,
                    epsilon_vector, initial_ideal, sample_interior,
                    trop_membership)
from tropcm.fan import sample_cones, sweep

from conftest import grevlex_basis, ideal_from

R3 = default_ring(3)


def test_enumerate_counts():
    cones = enumerate_generic_fan(3, 2, 0)
    assert [c.label() for c in cones] == [(1,), (2,), (3,)]
    assert len(enumerate_generic_fan(6, 5, 0)) == 15
    assert len(enumerate_generic_fan(6, 5, 1)) == 20


def test_enumerate_parameter_errors():
    with pytest.raises(ValueError):
        enumerate_generic_fan(3, 4, 0)
    with pytest.raises(ValueError):
        enumerate_generic_fan(3, 2, 2)


def test_cone_contains_examples():
    c34 = ConeCA(frozenset({2, 3}), 4)
    assert cone_contains(c34, (0, 0, 1, 1), interior=True)
    assert cone_contains(c34, (0, 0, 0, 1))
    assert not cone_contains(c34, (0, 0, 0, 1), interior=True)
    c1 = ConeCA(frozenset({0}), 3)
    assert cone_contains(c1, (2, 1, 1), interior=True)


def test_face_lattice_containment():
    big = ConeCA(frozenset({0, 1}), 4)
    small = ConeCA(frozenset({0}), 4)
    for seed in range(5):
        w = sample_interior(small, seed)
        assert cone_contains(small, w)
        assert cone_contains(big, w)


def test_sample_interior_deterministic_and_interior():
    for A, n in [(frozenset({2, 3}), 4), (frozenset(), 3),
                 (frozenset({0}), 3), (frozenset({0, 1, 2}), 3)]:
        cone = ConeCA(A, n)
        w1 = sample_interior(cone, 11)
        w2 = sample_interior(cone, 11)
        assert w1 == w2
        assert min(w1) == 0
        if A != frozenset(range(n)):
            assert cone_contains(cone, w1, interior=True)


def test_epsilon_vectors():
    assert epsilon_vector({0}, 3) == (1, 0, 0)
    assert epsilon_vector(set(), 3) == (0, 0, 0)
    assert epsilon_vector({2, 3}, 4) == (0, 0, 1, 1)


def test_epsilon_in_cone_closure_and_interior():
    for n in (3, 4):
        for size in range(n + 1):
            A = frozenset(range(size))
            cone = ConeCA(A, n)
            eps = epsilon_vector(A, n)
            assert cone_contains(cone, eps)
            assert cone_contains(cone, eps, interior=True) == (size != n)


@pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 3)])
def test_support_union_property(n, d):
    # w lies in some cone with |A^c| = n - d + 1 iff at least that many
    # coordinates attain the minimum; exhaustive over a small grid
    need = n - d + 1
    cones = enumerate_generic_fan(n, d, 0)
    for w in product((0, 1, 2), repeat=n):
        in_support = any(cone_contains(c, w) for c in cones)
        hits = sum(1 for x in w if x == min(w))
        assert in_support == (hits >= need)


def test_sample_cones_keeps_a_small_family_and_samples_a_large_one():
    cones = enumerate_generic_fan(6, 4, 1)         # |A| = 2: 15 cones
    assert sample_cones(cones, None, ("k",)) is cones
    assert sample_cones(cones, 15, ("k",)) is cones
    drawn = sample_cones(cones, 10, ("codim1", 42, 6, 2))
    # the draw of random.Random(repr(key)).sample, in label order
    expected = random.Random(repr(("codim1", 42, 6, 2))).sample(
        list(combinations(range(6), 2)), 10)
    assert [c.label() for c in drawn] == sorted(
        tuple(i + 1 for i in A) for A in expected)
    assert sample_cones(cones, 10, ("codim1", 42, 6, 2)) == drawn
    assert sample_cones(cones, 10, ("codim1", 43, 6, 2)) != drawn


def test_sweep_samples_each_cone_of_each_stratum_in_order(e_quad4_generic):
    got = list(sweep(e_quad4_generic, 3, (0, 1), 2, 5))
    expected = [(codim, cone, sample_interior(cone, 5 + k))
                for codim in (0, 1)
                for cone in enumerate_generic_fan(4, 3, codim)
                for k in range(2)]
    assert [(codim, cone, w) for codim, cone, w, _ in got] == expected
    # the reused weight bases give the initial ideals a fresh run gives
    for _, _, w, inw in got:
        assert grevlex_basis(inw) == grevlex_basis(
            initial_ideal(w, e_quad4_generic))


def test_trop_membership_examples():
    R2 = default_ring(2)
    I = ideal_from(R2, "x1 + x2")
    assert trop_membership((1, 1), I)
    assert not trop_membership((0, 1), I)
    conic = ideal_from(R3, "x1*x3 - x2^2")
    assert not trop_membership((1, 0, 0), conic)
    # the least monomial of <x1^201> lies past the witness search's cap
    assert not trop_membership((0, 0), ideal_from(R2, "x1^201"))


def test_epsilon_in_trop_for_audited_subsets(e_pluck_generic):
    for A in [{0}, {3}, {0, 1}, {0, 2, 4}]:
        eps = epsilon_vector(A, 6)
        assert trop_membership(eps, e_pluck_generic)


def test_groebner_cone_equal():
    conic = ideal_from(R3, "x1*x3 - x2^2")
    assert (grevlex_basis(initial_ideal((1, 0, 0), conic))
            == grevlex_basis(initial_ideal((1, 0, 0), conic)))
    assert (grevlex_basis(initial_ideal((1, 0, 0), conic))
            != grevlex_basis(initial_ideal((0, 1, 0), conic)))


def test_groebner_cone_equal_within_generic_cone(e_quad4_generic):
    cone = ConeCA(frozenset({1, 2}), 4)
    u = sample_interior(cone, 0)
    w = sample_interior(cone, 1)
    assert (grevlex_basis(initial_ideal(u, e_quad4_generic))
            == grevlex_basis(initial_ideal(w, e_quad4_generic)))


def test_interior_samples_share_initial_ideal(e_pluck_generic):
    # fan-structure coincidence on one maximal cone of a generic instance
    cone = ConeCA(frozenset({0, 1, 2, 3}), 6)
    base = grevlex_basis(initial_ideal(sample_interior(cone, 0), e_pluck_generic))
    for seed in (1, 2):
        assert grevlex_basis(
            initial_ideal(sample_interior(cone, seed), e_pluck_generic)) == base
