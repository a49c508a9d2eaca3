"""DSL parser and canonical printer."""

import pytest

from hermform import catalog, dsl
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
    for table_a, table_b in ((spec.del_assignments, built.del_assignments),
                            (spec.dbar_assignments, built.dbar_assignments)):
        assert set(table_a) == set(table_b)
        for k in table_a:
            assert table_a[k].components == table_b[k].components


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
    form = spec.del_assignments["p2"]
    mono = next(iter(form.components))
    from hermform.scalars import GaussianRational
    assert form.components[mono] == GaussianRational(0, 2)


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
