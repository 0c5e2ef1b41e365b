from fractions import Fraction

import pytest

from tropcm import FieldError, GFElement, PrimeField, QQ, field_from_name
from tropcm.fields import is_prime


def test_rational_coercion_lowest_terms():
    c = QQ.coerce(Fraction(-3, -6))
    assert c.numerator == 1 and c.denominator == 2


def test_prime_field_arithmetic():
    F = PrimeField(7)
    a, b = F.coerce(3), F.coerce(5)
    assert a + b == F.coerce(1)
    assert a * b == F.coerce(1)
    assert a / b == a * F.coerce(3)  # 5^{-1} = 3 mod 7
    assert -a == F.coerce(4)
    assert bool(F.zero()) is False


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(FieldError):
        PrimeField(32004)


def test_mixed_moduli_raise():
    with pytest.raises(FieldError):
        GFElement(1, 5) + GFElement(1, 7)


def test_fraction_coercion_into_fp():
    F = PrimeField(5)
    assert F.coerce(Fraction(1, 2)) == F.coerce(3)  # 2 * 3 = 1 mod 5
    with pytest.raises(FieldError):
        F.coerce(Fraction(1, 5))


def test_field_names_round_trip():
    assert field_from_name("Q") is QQ
    assert field_from_name("Fp:32003") == PrimeField(32003)
    for name in ("R", "QQ", "Fp", "Fp:"):
        with pytest.raises(FieldError, match="unknown field descriptor"):
            field_from_name(name)


def test_is_prime_small_values():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(32003)


# the least strong pseudoprime to every base the test uses
PSEUDOPRIME_TO_2_THROUGH_41 = 3317044064679887385961981


@pytest.mark.parametrize("n, prime", [
    (10**18 + 3, True),
    (10**14 + 31, True),
    (561, False),           # a Carmichael number
    (2047, False),          # the least strong pseudoprime to base 2
    (318665857834031151167461, False),  # strong pseudoprime to 2, ..., 37
    (PSEUDOPRIME_TO_2_THROUGH_41 - 2, False),
])
def test_is_prime_is_exact_on_large_and_pseudoprime_moduli(n, prime):
    assert is_prime(n) is prime


def test_a_modulus_beyond_the_exact_test_is_refused():
    with pytest.raises(FieldError, match="beyond the exact primality test"):
        is_prime(PSEUDOPRIME_TO_2_THROUGH_41)
    with pytest.raises(FieldError):
        field_from_name(f"Fp:{10**30 + 57}")


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(is_prime(n) == trial(n) for n in range(-3, 5000))
