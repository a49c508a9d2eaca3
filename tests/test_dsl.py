"""DSL parser and canonical printer."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hermform import catalog, dsl, model
from hermform.dsl import DslError, models_equal, parse, print_model


IWASAWA_SRC = """\
# classical nilmanifold model
algebra iwasawa dim 3
holo p1 p2 p3
d p3 = -p1*p2
"""


def test_holo_shorthand_matches_catalog():
    spec = parse(IWASAWA_SRC)
    built = catalog.nakamura("III.2")
    assert [g.name for g in spec.generators] == \
        [g.name for g in built.generators]
    assert spec.differentials == built.differentials


def test_roundtrip_all_catalog_instances():
    for ident, params in catalog.default_instances():
        spec = catalog.load(ident, params)
        text = print_model(spec)
        again = parse(text)
        assert models_equal(spec, again), ident
        # printing is a fixed point
        assert print_model(again) == text


def test_gen_line_variants():
    spec = parse("""\
algebra t dim 3
gen a : (1,0) odd conj ab
gen ab : (0,1) conj a
gen w : (1,1) even trunc 3 real
dbar a = w
del ab = w
""")
    assert spec.generator("w").truncation == 3
    assert spec.generator("w").conjugate == "w"
    assert spec.generator("a").truncation == 2


def test_parameters_in_expressions():
    spec = parse("""\
algebra pm dim 2
holo p1 p2
param c = 2i
d p2 = c * p1*p2
""")
    image = spec.differentials["del"]["p2"]
    mono = next(iter(image))
    from hermform.scalars import GaussianRational
    assert image[mono] == GaussianRational(0, 2)


def test_given_parameters_bind_declared_params():
    """A value given to `parse` binds a declared param, over its default,
    and the model is the one whose source states that value."""
    source = "algebra pm dim 2\nholo p1 p2\nparam c{}\nd p2 = c * p1*q1\n"
    want = parse(source.format(" = 1/2"))
    for default in ("", " = 3"):
        for value in (Fraction(1, 2), dsl.parse_scalar("1/2")):
            spec = parse(source.format(default), {"c": value})
            assert models_equal(spec, want)
            assert spec.parameters == want.parameters
    with pytest.raises(DslError, match="pm takes no parameter 'd', 'e'$"):
        parse(source.format(""), {"e": 1, "c": 1, "d": 1})


def test_expression_edge_cases():
    spec = catalog.calabi_eckmann(1, 1)
    e = dsl.parse_expression(spec, "w1 + 1 * w2 - w1")
    assert e.equals(spec.gen("w2"))
    e = dsl.parse_expression(spec, "-i*phi")
    assert e.equals(spec.gen("phi") * dsl.parse_scalar("-i"))
    e = dsl.parse_expression(spec, "w2^1")
    assert e.equals(spec.gen("w2"))


@pytest.mark.parametrize("src,fragment", [
    ("gen a : (1,0) conj b\n", "header"),
    ("algebra x dim 2\nalgebra y dim 2\n", "duplicate header"),
    ("algebra x dim 1\ngen a : (1,0)\n", "conj"),
    ("algebra x dim 1\nholo p1\nd p2 = 0\n", "unknown generator"),
    ("algebra x dim 1\nholo p1\nd p1 = q7\n", "unknown generator"),
    ("algebra x dim 1\nholo p1\nd p1 = p1^x\n", "exponent"),
    ("algebra x dim 1\nholo p1\nd p1 = p1 p1\n", "bad literal"),
    ("algebra x dim 2\nholo p1 p2\nd p1 = p1*p2\nd p1 = 0\n", "duplicate"),
    ("algebra x dim 1\nwhat now\n", "unknown statement"),
    ("algebra x dim 2\ngen w : (1,1) real\n", "truncation"),
])
def test_errors_carry_position(src, fragment):
    with pytest.raises(DslError) as e:
        parse(src)
    assert fragment in str(e.value)


def test_error_line_numbers():
    with pytest.raises(DslError) as e:
        parse("algebra x dim 1\nholo p1\n\nd p1 = bogus\n")
    assert e.value.line == 4


def test_parse_file(tmp_path):
    path = tmp_path / "m.alg"
    path.write_text(IWASAWA_SRC, encoding="utf-8")
    spec = dsl.parse_file(str(path))
    assert spec.name == "iwasawa"
    path.write_bytes(IWASAWA_SRC.encode("utf-8") + b"\xff")
    with pytest.raises(DslError, match="m.alg is not UTF-8 text"):
        dsl.parse_file(str(path))


def test_printer_splits_mixed_coefficients():
    spec = parse("""\
algebra m dim 2
holo p1 p2
d p2 = p1*p2 + i*p1*p2
""")
    # coefficient 1+i must round-trip through the printer
    text = print_model(spec)
    assert models_equal(spec, parse(text))


# Fuzzed model text: a header and generators, well-formed `d` lines of
# holomorphic generators (terms of bidegree (2,0) and (1,1)), then
# malformed lines and bare noise.
FUZZ_COEFFS = ("", "2", "-1", "i", "-i", "1/2", "2+i", "c")
FUZZ_SKELETONS = (
    ("algebra m dim 2\nholo p1 p2\nparam c = 2i", ("p1", "p2"), ("q1", "q2")),
    ("algebra m dim 3\nholo p1 p2 p3\nparam c = 2i", ("p1", "p2", "p3"),
     ("q1", "q2", "q3")),
)


def _model_text(skeleton):
    src, holo, anti = skeleton
    names = holo + anti
    term = st.tuples(
        st.sampled_from("+-"), st.sampled_from(FUZZ_COEFFS),
        st.sampled_from(holo), st.sampled_from(names)).map(
            lambda t: "%s %s%s*%s" % (t[0], t[1] and t[1] + " * ", t[2], t[3]))
    valid = st.dictionaries(st.sampled_from(holo),
                            st.lists(term, min_size=1, max_size=3)).map(
        lambda d: ["d %s = %s" % (name, " ".join(terms))
                   for name, terms in d.items()])
    noise = st.one_of(
        st.tuples(st.sampled_from(("d", "del", "dbar")),
                  st.sampled_from(names + ("x",)),
                  st.lists(st.sampled_from(names + FUZZ_COEFFS + (
                      "^2", "*", "+", "-", "1/0", "x")), max_size=4)).map(
            lambda t: "%s %s = %s" % (t[0], t[1], " ".join(t[2]))),
        st.sampled_from((
            "param c", "param p1 = 1", "param q1", "algebra n dim 2",
            "# note", "holo", "del p1 p2", "gen p1 : (1,0) conj q1",
            "gen w : (1,1) even trunc 3 real", "gen v : (2,0) odd conj v")),
        st.text(alphabet="pq1 d=*^+-", max_size=6))
    return st.tuples(valid, st.lists(noise, max_size=2),
                     st.sampled_from(("\n", "\r\n"))).map(
        lambda t: t[2].join([src] + t[0] + t[1]))


def test_fuzzed_text_fails_only_as_dsl_error_and_round_trips():
    parsed = []

    @settings(max_examples=40, derandomize=True, deadline=None,
              database=None)
    @given(st.sampled_from(FUZZ_SKELETONS).flatmap(_model_text))
    def check(text):
        try:
            spec = parse(text)
        except DslError:
            return
        parsed.append(any(spec.differentials.values()))
        assert models_equal(parse(print_model(spec)), spec), text

    check()
    assert any(parsed), "no drawn text parsed with a nonzero differential"


def test_parameter_named_like_a_generator_is_refused():
    """The printer lists parameters after generators, so such a model
    would not parse back."""
    for src in ("algebra m dim 1\nparam p1 = 2\nholo p1\n",
                "algebra m dim 1\nparam q1 = 2\nholo p1\n"):
        with pytest.raises(DslError, match="parameter .1 is also a generator"):
            parse(src)


@pytest.mark.parametrize("text,want", [
    ("p1*-2", "-2*p1"),
    ("p1 + -2*p2", "p1 - 2*p2"),
    ("- i/2 * p1", "p1 * -1/2i"),
    ("2 * p1^1 - 1/2i*p2", "-i/2*p2 + p1*2"),
])
def test_a_sign_opens_a_term_or_a_factor_after_an_operator(text, want):
    spec = catalog.nakamura("III.2")
    assert dsl.parse_expression(spec, text).equals(
        dsl.parse_expression(spec, want))


@pytest.mark.parametrize("text,fragment", [
    ("2*-p1", "bad literal '-p1'"),
    ("ii*p1", "bad literal 'ii'"),
    ("i 1/2*p1", "bad literal 'i 1/2'"),
    ("3/2i/5*p1", "bad literal '3/2i/5'"),
    ("p1 +", "empty term"),
    ("p1^²", "bad exponent"),
    ("(p1)", "bad literal '(p1)'"),
])
def test_expressions_outside_the_grammar_are_refused(text, fragment):
    with pytest.raises(DslError, match=re.escape(fragment)):
        dsl.parse_expression(catalog.nakamura("III.2"), text)


def test_truncation_takes_decimal_digits_only():
    with pytest.raises(DslError, match="trunc needs an integer"):
        parse("algebra x dim 1\ngen w : (1,1) even trunc ² real\n")


EXPR_TOKENS = ("p1", "q1", "c", "i", "2", "1/2", "²", "^", "*", "+", "-",
               "(", ")", "/", " ")


def test_fuzzed_expressions_fail_only_as_dsl_errors():
    parsed = []

    @settings(max_examples=150, derandomize=True, deadline=None,
              database=None)
    @given(st.lists(st.sampled_from(EXPR_TOKENS), max_size=8).map("".join))
    @example("3/2i/5*p1*q1")
    @example("p1^²*q1")
    def check(expr):
        try:
            parse("algebra m dim 2\nholo p1 p2\nparam c = 2i\n"
                  "d p2 = %s\n" % expr)
        except DslError:
            return
        parsed.append(expr)

    check()
    assert parsed


def test_parse_enumerates_the_monomial_table_once(monkeypatch):
    """Expressions are parsed against the spec that the parse returns,
    so each parse builds one monomial table."""
    calls = []
    table = model._monomial_table

    def counted(generators):
        calls.append(len(generators))
        return table(generators)
    monkeypatch.setattr(model, "_monomial_table", counted)
    for ident, params in catalog.default_instances():
        text = print_model(catalog.load(ident, params))
        calls.clear()
        assert print_model(parse(text)) == text
        assert len(calls) == 1, ident
