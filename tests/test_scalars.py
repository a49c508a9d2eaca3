"""Gaussian-rational arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hermform import scalars
from hermform.scalars import GaussianRational, I, ONE, ZERO, parse_scalar
from hermform.scalars import ScalarLiteralError, signed_terms


def rand_scalar(rng):
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)))


def test_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(3, 2), -1)
    assert a + b == GaussianRational(Fraction(5, 2), 1)
    assert a * b == GaussianRational(Fraction(3, 2) + 2,
                                     3 - 1)  # (1+2i)(3/2-i)
    assert I * I == GaussianRational(-1)
    assert (a - a).is_zero()


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        if b:
            assert (a / b) * b == a
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.norm_sq() == (a * a.conjugate()).re


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_immutable_and_hashable():
    a = GaussianRational(1, 1)
    with pytest.raises(AttributeError):
        a.re = 5
    assert len({GaussianRational(1, 2), GaussianRational(1, 2)}) == 1


@pytest.mark.parametrize("text,want", [
    ("-2", GaussianRational(-2)),
    ("i", I),
    ("-i", -I),
    ("3/2", GaussianRational(Fraction(3, 2))),
    ("1-2i", GaussianRational(1, -2)),
    ("i/2", GaussianRational(0, Fraction(1, 2))),
    ("-i/2", GaussianRational(0, Fraction(-1, 2))),
    ("2i", GaussianRational(0, 2)),
    ("1+i", GaussianRational(1, 1)),
    ("0", ZERO),
])
def test_parse_scalar(text, want):
    assert parse_scalar(text) == want


@pytest.mark.parametrize("text", ["", "x", "1//2", "2.5", "++", "1+*i"])
def test_parse_scalar_rejects(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_str_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        a = rand_scalar(rng)
        assert parse_scalar(str(a)) == a


# -- differential test against a pair-of-Fractions reference -------------

def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_str(x):
    def imag(b):
        return {1: "i", -1: "-i"}.get(b, "%si" % b)
    re, im = x
    if not im:
        return str(re)
    if not re:
        return imag(im)
    return "%s%s%s" % (re, "+" if im > 0 else "-", imag(abs(im)))


def rand_part(rng):
    """A Fraction that is zero, small, an integer, or has a numerator and
    a denominator above 2**64."""
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    big = 2 ** rng.randint(65, 130)
    return Fraction(rng.randint(-big, big), rng.randint(1, big))


def rand_pair(rng):
    kind = rng.randrange(4)
    re = Fraction(0) if kind == 1 else rand_part(rng)
    im = Fraction(0) if kind == 2 else rand_part(rng)
    return re, im


def assert_matches(z, ref):
    assert isinstance(z, GaussianRational)
    assert (z.re, z.im) == ref
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    # canonical (a + b i)/d
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1


def test_differential_against_fraction_pairs():
    rng = random.Random(101)
    checked = 0
    for _ in range(400):
        x, y = rand_pair(rng), rand_pair(rng)
        a, b = GaussianRational(*x), GaussianRational(*y)
        assert_matches(a, x)
        assert_matches(a + b, (x[0] + y[0], x[1] + y[1]))
        assert_matches(a - b, (x[0] - y[0], x[1] - y[1]))
        assert_matches(a * b, ref_mul(x, y))
        assert_matches(-a, (-x[0], -x[1]))
        assert_matches(a.conjugate(), (x[0], -x[1]))
        assert a.norm_sq() == x[0] * x[0] + x[1] * x[1]
        assert isinstance(a.norm_sq(), Fraction)
        if y != (0, 0):
            assert_matches(a / b, ref_div(x, y))
            checked += 1
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        # mixed with int and Fraction, from either side
        k, f = rng.randint(-5, 5), rand_part(rng)
        assert_matches(a + k, (x[0] + k, x[1]))
        assert_matches(k - a, (k - x[0], -x[1]))
        assert_matches(f * a, (f * x[0], f * x[1]))
        if x != (0, 0):
            assert_matches(f / a, ref_div((f, Fraction(0)), x))
        # equality against GaussianRational, int and Fraction
        assert (a == b) == (x == y)
        assert a == GaussianRational(*x)
        assert (a == k) == (x == (k, 0)) and (a != k) == (x != (k, 0))
        assert (a == x[0]) == (x[1] == 0)
        assert (a == f) == (x == (f, 0))
        assert hash(a) == hash(x)
        assert bool(a) == (x != (0, 0))
        assert a.is_zero() == (x == (0, 0)) and a.is_real() == (x[1] == 0)
        assert str(a) == ref_str(x)
        assert repr(a) == "GaussianRational(%r, %r)" % (str(x[0]), str(x[1]))
        assert parse_scalar(str(a)) == a
    assert checked > 300


def test_constructor_takes_what_fraction_takes():
    assert hash(GaussianRational(Fraction(4, 2), 0)) == hash((2, 0))
    assert GaussianRational(Fraction(6, 4), Fraction(-3, 9)) == \
        GaussianRational(Fraction(3, 2), Fraction(-1, 3))
    assert {GaussianRational(Fraction(1, 2), 1): 1}[
        GaussianRational(1) / 2 + I] == 1
    assert GaussianRational("3/6", 0.5) == GaussianRational(
        Fraction(1, 2), Fraction(1, 2))
    assert (ONE == "x") is False and (ONE != None) is True


def test_every_attribute_is_read_only():
    a = GaussianRational(1, 2)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)
    assert a == GaussianRational(1, 2)


# Each term is [N]i[/D] or N[/D][i], and terms are joined by one sign:
# side-by-side terms, runs of signs and a second '/' are refused.
@pytest.mark.parametrize("text", [
    "ii", "i2", "i 1/2", "3i1/2", "--1", "1--2", "+-i", "3/2i/5", "1/2/3",
    "i/0", "1/0i", "²", "1_0", "٣",
])
def test_parse_scalar_refuses_what_the_grammar_does_not_state(text):
    with pytest.raises(ScalarLiteralError, match="bad scalar literal"):
        parse_scalar(text)


@pytest.mark.parametrize("text,want", [
    ("1/2i", GaussianRational(0, Fraction(1, 2))),
    ("2i/3", GaussianRational(0, Fraction(2, 3))),
    ("i/2", GaussianRational(0, Fraction(1, 2))),
    ("-i/2", GaussianRational(0, Fraction(-1, 2))),
    ("1 - 2 i", GaussianRational(1, -2)),
    ("1+i", GaussianRational(1, 1)),
    (" + 3 / 4 ", GaussianRational(Fraction(3, 4))),
])
def test_parse_scalar_reads_each_stated_form(text, want):
    assert parse_scalar(text) == want


def test_signed_terms_cut_only_after_an_operand():
    assert signed_terms("") == signed_terms(" ") == []
    assert signed_terms("-") == [(-1, "")]
    assert signed_terms("p1*-2 + -3 * p2 - q1^2") == [
        (1, "p1*-2 "), (1, " -3 * p2 "), (-1, " q1^2")]
    assert signed_terms("--1") == [(-1, "-1")]
    assert signed_terms("1 - 2i") == [(1, "1 "), (-1, " 2i")]


def test_fuzzed_literals_fail_only_as_literal_errors_and_round_trip():
    read = []

    @settings(max_examples=300, derandomize=True, deadline=None,
              database=None)
    @given(st.text(alphabet="0123456789i/+-² ", max_size=8))
    @example("1/2i/3")
    def check(text):
        try:
            value = parse_scalar(text)
        except ScalarLiteralError:
            return
        read.append(value)
        assert parse_scalar(str(value)) == value, text

    check()
    assert len(read) > 10


# A blank may stand around '/', before an 'i' and at either end of a
# term, never between two digits: '1 2' was read as 12.
@pytest.mark.parametrize("text", ["1 2", "1 2/3", "1/2 3", "1 0i", "1 2i",
                                  "2/1 0"])
def test_parse_scalar_refuses_blanks_between_digits(text):
    with pytest.raises(ScalarLiteralError, match="bad scalar literal"):
        parse_scalar(text)


@pytest.mark.parametrize("text,want", [
    ("2 i", GaussianRational(0, 2)),
    ("1 / 2", GaussianRational(Fraction(1, 2))),
    ("1 - 2 i", GaussianRational(1, -2)),
    (" i / 2", GaussianRational(0, Fraction(1, 2))),
    ("3 / 4 i", GaussianRational(0, Fraction(3, 4))),
])
def test_parse_scalar_reads_blanks_between_the_parts_of_a_term(text, want):
    assert parse_scalar(text) == want


def test_parse_scalar_sums_no_scalars(monkeypatch):
    """A literal's terms are summed as rationals, real and imaginary
    apart, and make one scalar."""
    sums = []
    add = scalars._sum

    def counted_sum(*args):
        sums.append(args)
        return add(*args)
    monkeypatch.setattr(scalars, "_sum", counted_sum)
    assert parse_scalar("1/2 + i") == GaussianRational(Fraction(1, 2), 1)
    assert parse_scalar("1 - 2i + 3/4 + i/2") == GaussianRational(
        Fraction(7, 4), Fraction(-3, 2))
    assert sums == []
