"""Exact Gaussian-rational arithmetic.

All coefficient arithmetic in the engine happens over Q(i).  A value
(a + b*i)/d is stored as three Python ints with d > 0 and
gcd(a, b, d) = 1.  That form is canonical, so equality and hashing are
structural.  An operation does at most one gcd, and none when both
operands have d = 1; `re` and `im` give the two parts as Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


class GaussianRational:
    """(a + b*i)/d with exact rational parts.  Immutable and hashable."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # over the lcm of two reduced denominators no prime divides
            # a, b and d at once, so the triple is already canonical
            dr, di = re.denominator, im.denominator
            d = dr * di // gcd(dr, di)
            a = re.numerator * (d // dr)
            b = im.numerator * (d // di)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, value):
        if isinstance(value, GaussianRational):
            return value
        return cls(value)

    # -- parts ----------------------------------------------------------

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return self._a == 0 and self._b == 0

    def is_real(self):
        return self._b == 0

    def __bool__(self):
        return self._a != 0 or self._b != 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        return _sum(self, other._a, other._b, other._d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        return _sum(self, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if d == 1:
            return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        d2 = other._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        self._d * n)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def conjugate(self):
        # immutable, so a real value is its own conjugate
        if not self._b:
            return self
        return _make(self._a, -self._b, self._d)

    def norm_sq(self):
        """|z|^2, a nonnegative Fraction."""
        return Fraction(self._a * self._a + self._b * self._b,
                        self._d * self._d)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            if type(other) is int:
                return self._b == 0 and self._d == 1 and self._a == other
            try:
                other = GaussianRational.of(other)
            except (TypeError, ValueError):
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # hash(Fraction(n)) == hash(n), so both branches are hash((re, im))
        if self._d == 1:
            return hash((self._a, self._b))
        return hash((self.re, self.im))

    # -- display ------------------------------------------------------

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (str(self.re), str(self.im))

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return _imag_str(im)
        sign = "+" if im > 0 else "-"
        return "%s%s%s" % (re, sign, _imag_str(abs(im)))


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _make(a, b, d):
    """(a + b*i)/d from ints already in canonical form."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a, b, d):
    """(a + b*i)/d from ints with d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _sum(z, a, b, d):
    """z + (a + b*i)/d for a canonical triple (a, b, d)."""
    dz = z._d
    if dz == d:
        if d == 1:
            return _make(z._a + a, z._b + b, 1)
        return _reduced(z._a + a, z._b + b, d)
    # adding a Gaussian integer keeps gcd(a, b, d) = 1
    if d == 1:
        return _make(z._a + a * dz, z._b + b * dz, dz)
    if dz == 1:
        return _make(z._a * d + a, z._b * d + b, d)
    return _reduced(z._a * d + a * dz, z._b * d + b * dz, dz * d)


def _imag_str(b):
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return "%si" % b


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)

# The grammar of a sum of terms, shared with `dsl`: the text is cut at
# each sign whose last non-blank predecessor is not one of * ^ / ( + -,
# so a body takes a sign only after one of those.
_SIGNED_TERM = re.compile(
    r"(?!\s*\Z)\s*([+-]?)((?:\s*[+-])*(?:[^-+*^/(]|[*^/(](?:\s*[+-])*)*)")

# An unsigned literal term: [N] i [/D] or N [/D] [i], with D nonzero.
# Blanks may stand around '/', before an 'i' and at either end, never
# inside a run of digits.
_LITERAL = re.compile(r" *(?=[0-9i])(?P<num>[0-9]*) *(?P<i>i)?"
                      r"(?: */ *(?P<den>[0-9]*[1-9][0-9]*))?"
                      r"(?(i)| *(?P<j>i)?) *")


class ScalarLiteralError(ValueError):
    """A malformed Gaussian-rational literal."""


def signed_terms(text):
    """[(sign, body)] of a sum, sign 1 or -1; blank text has no terms."""
    return [(-1 if sign == "-" else 1, body)
            for sign, body in _SIGNED_TERM.findall(text)]


def parse_scalar(text):
    """Parse a Gaussian-rational literal: '-2', 'i', '3/2', '1-2i', '-i/2'.

    Terms are joined by one sign each.  Spaces may stand around '/',
    before an 'i' and at either end of a term, but not between two
    digits, so '1 2' is refused.  Raises ScalarLiteralError on malformed
    input, a zero denominator included.
    """
    terms = signed_terms(text)
    if not terms:
        raise ScalarLiteralError("empty scalar literal")
    real = imag = 0
    for sign, body in terms:
        m = _LITERAL.fullmatch(body)
        if m is None:
            raise ScalarLiteralError("bad scalar literal: %r" % text)
        value = Fraction(sign * int(m["num"] or 1), int(m["den"] or 1))
        if m["i"] or m["j"]:
            imag += value
        else:
            real += value
    return GaussianRational(real, imag)
