"""Exact multivariate polynomials, monomials, initial forms, and parsing.

Monomials are plain exponent tuples.  A :class:`Polynomial` is a map from
exponent tuples to nonzero scalars together with its :class:`Ring`; the
zero polynomial has an empty term map, so structural equality is semantic
equality.  Weights follow the min convention throughout: the initial form
of ``f`` keeps the terms whose inner product with the weight vector is
minimal.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .fields import QQ
from .orders import GREVLEX, grevlex_key, integer_weight


class RingMismatchError(ValueError):
    """Operands live in different rings (variables or coefficient field)."""


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (column {pos + 1})")


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """Exponent vector of x^a / x^b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_gcd(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


def monomials_of_degree(n, d):
    """All exponent tuples of total degree d in n variables, grevlex-descending;
    a new list on every call, sorted once per (n, d)."""
    return list(_monomials(n, d))


@lru_cache(maxsize=128)
def _monomials(n, d):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    if n == 0:
        return ((),) if d == 0 else ()
    rec((), d, n)
    out.sort(key=GREVLEX.key, reverse=True)
    return tuple(out)


def weight_value(w, exps):
    """Inner product <w, exps> as an exact rational."""
    if len(w) != len(exps):
        raise ValueError(f"weight length {len(w)} != monomial length {len(exps)}")
    iw, scale = integer_weight(w)
    return Fraction(sum(map(mul, iw, exps)), scale)


# ---------------------------------------------------------------------------
# rings

class Ring:
    """Ambient polynomial ring: variable names plus a coefficient field."""

    __slots__ = ("names", "field", "nvars")

    def __init__(self, names, field=QQ):
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names, self.field, self.nvars = names, field, len(names)

    def __eq__(self, other):
        if other.__class__ is not Ring:
            return NotImplemented
        return self is other or (self.names == other.names and self.field == other.field)

    def __hash__(self):
        return hash((self.names, self.field))

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one()})

    def variable(self, i):
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: self.field.one()})

    def monomial(self, exps, coeff=1):
        return Polynomial(self, {tuple(exps): self.field.coerce(coeff)})

    def extended(self, extra_name):
        if extra_name in self.names:
            raise ValueError(f"variable {extra_name!r} already present")
        return Ring(self.names + (extra_name,), self.field)

    def descriptor(self):
        return f"{self.field.name}[{','.join(self.names)}]"


def default_ring(n, field=QQ, stem="x"):
    return Ring(tuple(f"{stem}{i + 1}" for i in range(n)), field)


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Immutable term map over a fixed ring; zero coefficients never stored."""

    __slots__ = ("ring", "terms", "_text")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}
        self._text = None       # to_string(), formatted on the first str()

    # -- predicates and views -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Maximal total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self):
        """Map of degree -> homogeneous part, ascending degrees."""
        comps = {}
        for m, c in self.terms.items():
            comps.setdefault(mono_degree(m), {})[m] = c
        return {d: Polynomial(self.ring, t) for d, t in sorted(comps.items())}

    def monomial_content(self):
        """GCD of the monomials of f (exponent tuple); zero vector for f = 0."""
        it = iter(self.terms)
        try:
            g = next(it)
        except StopIteration:
            return (0,) * self.ring.nvars
        for m in it:
            g = mono_gcd(g, m)
        return g

    # -- arithmetic ------------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"{self.ring.descriptor()} vs {other.ring.descriptor()}")

    def __add__(self, other):
        self._check_ring(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m)
            s = c if s is None else s + c
            if s:
                res[m] = s
            elif m in res:
                del res[m]
        return Polynomial(self.ring, res)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check_ring(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = res.get(m)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    res[m] = s
                elif m in res:
                    del res[m]
        return Polynomial(self.ring, res)

    def scale(self, c):
        c = self.ring.field.coerce(c)
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative powers are not polynomials")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    # -- weights and leading data ----------------------------------------------

    def initial_form(self, w):
        """Sum of the terms of minimal weight; an integer ``w`` is used as is."""
        if not self.terms:
            raise ValueError("initial form of the zero polynomial is undefined")
        if len(w) != self.ring.nvars:
            raise ValueError(
                f"weight length {len(w)} != number of variables {self.ring.nvars}")
        iw = w if all(type(x) is int for x in w) else integer_weight(w)[0]
        vals = {m: sum(map(mul, iw, m)) for m in self.terms}
        lo = min(vals.values())
        return Polynomial(self.ring, {m: c for m, c in self.terms.items() if vals[m] == lo})

    def leading(self, order):
        """(exponent tuple, coefficient) of the leading term under ``order``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    # -- ring moves -------------------------------------------------------------

    def substitute(self, images):
        """Map x_i -> images[i], polynomials of the same ring."""
        ring = self.ring
        if len(images) != ring.nvars:
            raise ValueError("one image per variable required")
        out = ring.zero()
        pow_cache = [dict() for _ in images]
        for m, c in self.terms.items():
            part = ring.one().scale(c)
            for i, e in enumerate(m):
                if e:
                    pe = pow_cache[i].get(e)
                    if pe is None:
                        pe = images[i] ** e
                        pow_cache[i][e] = pe
                    part = part * pe
            out = out + part
        return out

    def extend(self, superring):
        """The same polynomial in ``superring``, whose variables begin with
        this ring's: the exponents are padded with zeros."""
        pad = (0,) * (superring.nvars - self.ring.nvars)
        return Polynomial(superring, {m + pad: c for m, c in self.terms.items()})

    # -- formatting --------------------------------------------------------------

    def to_string(self):
        """Canonical text form; parse(to_string()) reproduces the polynomial."""
        if not self.terms:
            return "0"
        names = self.ring.names
        pieces = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            mag = str(self.terms[m])
            neg = mag[0] == "-"
            if neg:
                mag = mag[1:]
            factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
            if mag != "1" or not factors:
                factors.insert(0, mag)
            pieces.append(" - " if neg else " + ")
            pieces.append("*".join(factors))
        pieces[0] = "-" if pieces[0] == " - " else ""
        return "".join(pieces)

    def __str__(self):
        if self._text is None:
            self._text = self.to_string()
        return self._text

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# parsing

_OPS = set("+-*^()/")
_NOT_A_DIVISOR = "division only by a nonzero constant"
# runs of ASCII digits, of word characters (str.isalnum or '_'), of spaces;
# str.isdigit would also take '²' and '٣'
_RUN = re.compile(r"([0-9]+)|(\w+)|\s+")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _OPS:
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch == "#":
            break
        run = _RUN.match(text, i)
        if run is None or (run.lastindex == 2 and not (ch.isalpha() or ch == "_")):
            raise ParseError(f"unexpected character {ch!r}", i)
        j = run.end()
        if run.lastindex:
            toks.append(("int" if run.lastindex == 1 else "name", text[i:j], i))
        i = j
    toks.append(("end", "", n))
    return toks


class _Parser:
    """Recursive descent for +, -, *, ^, parentheses, and a/b coefficients.

    A sum is read into one term dict, and the numbers and variable powers
    of a product into one exponent list and one coefficient; only
    parenthesised factors and their powers use Polynomial arithmetic.
    """

    def __init__(self, toks, ring):
        self.toks = toks
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return p

    def expr(self):
        field = self.ring.field
        terms = {}
        sign = 1
        while True:
            exps, num, den, rest = self.term()
            c = field.coerce(Fraction(sign * num, den))
            if rest is None:
                items = ((tuple(exps), c),)
            else:
                items = ((mono_mul(m, exps), c * v) for m, v in rest.terms.items())
            for m, v in items:
                s = terms.get(m)
                terms[m] = v if s is None else s + v
            op = self.peek()[0]
            if op != "+" and op != "-":
                return Polynomial(self.ring, terms)
            self.pos += 1
            sign = -1 if op == "-" else 1

    def term(self):
        """``(exps, num, den, rest)``: the product is num/den * x^exps * rest,
        where ``rest`` is the product of its parenthesised factors or None."""
        ring = self.ring
        exps = [0] * ring.nvars
        num = den = 1
        rest = None
        div = None          # column of the '/' before the current factor
        while True:
            # a factor: signs, an atom, an optional ^int
            kind, text, col = self.take()
            while kind == "-" or kind == "+":
                if kind == "-":
                    num = -num
                kind, text, col = self.take()
            if kind == "name":
                try:
                    i = ring.names.index(text)
                except ValueError:
                    raise ParseError(f"unknown variable {text!r}", col) from None
                e = self.exponent()
                if div is not None and e:
                    raise ParseError(_NOT_A_DIVISOR, div)
                exps[i] += e
            elif kind == "int":
                v = int(text) ** self.exponent()
                if div is None:
                    num *= v
                elif not ring.field.coerce(v):
                    raise ParseError(_NOT_A_DIVISOR, div)
                else:
                    den *= v
            elif kind == "(":
                q = self.expr()
                self.take(")")
                e = self.exponent()
                if e != 1:
                    q = q ** e
                if div is not None:
                    if q.is_zero() or q.degree() > 0:
                        raise ParseError(_NOT_A_DIVISOR, div)
                    (v,) = q.terms.values()
                    q = ring.monomial((0,) * ring.nvars, ring.field.one() / v)
                rest = q if rest is None else rest * q
            else:
                raise ParseError(f"unexpected {text or 'end of input'!r}", col)
            kind, _, col = self.peek()
            if kind != "*" and kind != "/":
                return exps, num, den, rest
            self.pos += 1
            div = col if kind == "/" else None

    def exponent(self):
        """The int after a '^', or 1 without one."""
        if self.peek()[0] != "^":
            return 1
        self.pos += 1
        return int(self.take("int")[1])


def parse_polynomial(text, ring):
    """Parse the ideal-file grammar: + - * ^, parentheses, a/b coefficients."""
    return _Parser(_tokenize(text), ring).parse()
