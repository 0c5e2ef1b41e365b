"""Hilbert series of quotients by monomial ideals, via pivot recursion.

A series is stored in reduced form: an integer numerator N(t) over
(1-t)^pole, with every common factor of (1-t) cancelled on construction,
so N(1) != 0 unless N = 0.  Equality, Krull dimension (the pole order at
t = 1) and Hilbert function values are read from that form.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from math import comb

from .polynomials import mono_degree, mono_divides, mono_gcd


def minimalize(gens):
    """Minimal generating set of the monomial ideal spanned by ``gens``."""
    gens = sorted(set(gens), key=lambda m: (mono_degree(m), m))
    out = []
    for m in gens:
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def _poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _times_one_minus_t_pow(num, e):
    """Multiply num by (1 - t^e) in place."""
    num.extend([0] * e)
    for i in range(len(num) - 1, e - 1, -1):
        num[i] -= num[i - e]


def hilbert_numerator(gens, n):
    """N(t) with HS(k[x_1..x_n] / <gens>) = N(t) / (1-t)^n, gens monomials."""
    gens = minimalize(gens)
    if any(mono_degree(m) == 0 for m in gens):
        return [0]
    # pairwise coprime generators: Koszul product formula
    coprime = all(
        not any(mono_gcd(gens[i], gens[j]).count(0) < n
                for j in range(i + 1, len(gens)))
        for i in range(len(gens)))
    if len(gens) <= 1 or coprime:
        num = [1]
        for m in gens:
            _times_one_minus_t_pow(num, mono_degree(m))
        return num
    # pivot on the variable hitting the most generators that are not variables
    counts = [0] * n
    for m in gens:
        if mono_degree(m) >= 2:
            for i, e in enumerate(m):
                if e:
                    counts[i] += 1
    j = max(range(n), key=lambda i: counts[i])
    colon = [tuple(e - 1 if i == j and e > 0 else e for i, e in enumerate(m))
             for m in gens]
    pivot = tuple(1 if i == j else 0 for i in range(n))
    plus = [m for m in gens if m[j] == 0] + [pivot]
    # short exact sequence 0 -> S/(I:x_j) -> S/I -> S/(I + <x_j>) -> 0
    # gives N = N_plus + t * N_colon
    return _poly_trim([a + b for a, b in zip_longest(
        hilbert_numerator(plus, n), [0] + hilbert_numerator(colon, n), fillvalue=0)])


class HilbertSeries:
    """N(t) / (1-t)^nvars with integer N, kept as (numerator, pole) after
    cancelling the common (1-t) factors."""

    __slots__ = ("numerator", "pole")

    def __init__(self, numerator, nvars):
        num, pole = _poly_trim(list(numerator)), nvars
        # (1-t) divides N while N(1) = 0, and then N = (1-t)Q with
        # q_k = n_0 + ... + n_k; the zero series divides down to pole 0
        while pole > 0 and sum(num) == 0:
            num, pole = list(accumulate(num[:-1])) or [0], pole - 1
        self.numerator, self.pole = tuple(num), pole

    @classmethod
    def from_leading_monomials(cls, gens, n):
        return cls(hilbert_numerator(gens, n), n)

    def dimension(self):
        """Pole order at t = 1: the Krull dimension of the graded quotient."""
        return self.pole

    def hilbert_function(self, m):
        """Dimension of the degree-m graded piece."""
        n = self.pole
        total = 0
        for j, c in enumerate(self.numerator):
            if c and m - j >= 0:
                total += c * (comb(n - 1 + m - j, n - 1) if n > 0 else (1 if m == j else 0))
        return total

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return (self.numerator, self.pole) == (other.numerator, other.pole)

    def __hash__(self):
        return hash((self.numerator, self.pole))

    def __str__(self):
        num, pole = self.numerator, self.pole
        terms = []
        for i, c in enumerate(num):
            if c:
                if i == 0:
                    terms.append(str(c))
                else:
                    mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                    t = "t" if i == 1 else f"t^{i}"
                    terms.append(("-" if c < 0 else "+") + f" {mag}{t}"
                                 if terms else (("-" if c < 0 else "") + f"{mag}{t}"))
        nums = " ".join(terms) if terms else "0"
        if pole == 0:
            return nums
        return f"({nums}) / (1-t)^{pole}"
