"""CLI verbs, exit codes and output formats."""

import io
import json
from fractions import Fraction

import pytest

from hermform import catalog, linalg, model
from hermform.calculus import AssemblyError, HodgeEngine
from hermform.cli import paper_notation, run
from hermform.catalog import CatalogError, engine_for, load
from hermform.obstructions import torus_table
from hermform.scalars import GaussianRational


def invoke(argv, env_ascii=False, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_list():
    code, out, _ = invoke(["list"])
    assert code == 0
    assert "iwasawa" in out
    assert "nakamura:V.17" in out


def test_cohomology_json_deterministic():
    args = ["cohomology", "--model", "torus:2", "--json"]
    code, out1, _ = invoke(args)
    code2, out2, _ = invoke(args)
    assert code == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["betti"] == [1, 4, 6, 4, 1]
    assert doc["h_dbar"][1][1] == 4


def test_cohomology_diamond_matches_json():
    code, text, _ = invoke(["cohomology", "--model", "iwasawa",
                            "--theories", "bc"])
    assert code == 0
    code, js, _ = invoke(["cohomology", "--model", "iwasawa",
                          "--theories", "bc", "--json"])
    doc = json.loads(js)
    # every number printed in the diamond appears in the JSON grid
    printed = [int(tok) for line in text.splitlines()[1:]
               for tok in line.split()]
    flat = [v for row in doc["h_bc"] for v in row]
    assert sorted(printed) == sorted(flat)


def test_formality_verdicts_and_witness():
    code, out, _ = invoke(["formality", "--model", "iwasawa",
                           "--notion", "bott-chern", "--ascii"])
    assert code == 0
    assert "geom_bott_chern: no" in out
    assert "witness:" in out
    assert "metric-independent obstruction" in out
    code, out, _ = invoke(["formality", "--model", "torus:2"])
    assert code == 0
    for notion in ("geom_dolbeault", "geom_bott_chern", "geom_abc",
                   "geom_aeppli", "geom_de_rham"):
        assert "%s: yes" % notion in out


def test_massey_verb():
    code, out, _ = invoke(["massey", "--model", "iwasawa",
                           "--a", "p1*p2", "--b", "q1*q2", "--c", "q1*q2",
                           "--ascii"])
    assert code == 0
    assert "nonzero: yes" in out
    assert "bidegree: (1,3)" in out


def test_massey_rejects_non_harmonic_input():
    code, _, err = invoke(["massey", "--model", "iwasawa",
                           "--a", "p3", "--b", "q1", "--c", "q1"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("slot", ("--a", "--b", "--c"))
def test_massey_rejects_zero_input(slot):
    args = {"--a": "p1", "--b": "p1", "--c": "p1", slot: "0"}
    code, out, err = invoke(["massey", "--model", "iwasawa"]
                            + [x for kv in args.items() for x in kv])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is zero" in err


def test_verify_appendix_single_case():
    code, out, _ = invoke(["verify-appendix", "--case", "III.2"])
    assert code == 0
    assert "1/1 cases verified" in out


def test_ce_verb():
    code, out, _ = invoke(["ce", "--u", "1", "--v", "1", "--all-checks"])
    assert code == 0
    assert "geometrically Bott-Chern formal: yes" in out
    assert "geometrically Dolbeault formal: no" in out


def test_obstruct_verb(tmp_path):
    path = tmp_path / "k3.json"
    t = torus_table(2)
    doc = {"n": 2, "h_dbar": None, "h_bc": None, "h_a": None,
           "betti": [1, 0, 22, 0, 1]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(["obstruct", "--input", str(path)])
    assert code == 0
    assert "geom_riemannian: obstructed" in out
    assert "22 > 6" in out


def test_obstruct_bad_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = invoke(["obstruct", "--input", str(path)])
    assert code == 1
    code, _, err = invoke(["obstruct", "--input", str(tmp_path / "none")])
    assert code == 1


def test_parse_verb(tmp_path):
    path = tmp_path / "m.alg"
    path.write_text("algebra m dim 3\nholo p1 p2 p3\nd p3 = -p1*p2\n",
                    encoding="utf-8")
    code, out, _ = invoke(["parse", str(path), "--validate"])
    assert code == 0
    assert "ok: m" in out
    path.write_text("algebra m dim 3\nholo p1 p2\nd p2 = -p1*p3\n",
                    encoding="utf-8")
    code, _, err = invoke(["parse", str(path)])
    assert code == 1


@pytest.mark.parametrize("argv", (["parse"], ["obstruct", "--input"]))
def test_non_utf8_file_is_user_error(tmp_path, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = invoke(argv + [str(path)])
    assert (code, out) == (1, "")
    assert err == "error: %s is not UTF-8 text (byte 0: invalid start " \
        "byte)\n" % path


def test_missing_model_is_user_error():
    code, _, err = invoke(["cohomology"])
    assert code == 1
    assert "needs --model or --file" in err
    code, _, _ = invoke(["cohomology", "--model", "no-such-model"])
    assert code == 1


@pytest.mark.parametrize("model,params,refused", (
    ("ce:u=1,v=1,w=2", [], "'w'"),
    ("ce:u=1", ["v=1", "w=2"], "'w'"),
    ("torus:2", ["x=1"], "'x'"),
    ("iwasawa", ["u=1"], "'u'"),
    ("example1:invariant", ["alpha=1"], "'alpha'"),
    ("nakamura:IV.3", ["alpha=1"], "'alpha'"),
    ("nakamura:V.17", ["alpha=1", "beta=1", "gamma=2", "delta=1"],
     "'delta', 'gamma'")))
def test_a_parameter_the_identifier_does_not_take_is_user_error(
        model, params, refused):
    """V.17 takes alpha and beta, ce takes u and v, by identifier or
    --param, and every other identifier takes none."""
    argv = ["cohomology", "--model", model]
    for kv in params:
        argv += ["--param", kv]
    code, out, err = invoke(argv)
    assert (code, out) == (1, "")
    assert err.endswith("takes no parameter %s\n" % refused)


def test_parameters_the_identifier_takes_are_accepted():
    for model, params in (("ce:u=1", ["v=1"]),
                          ("nakamura:V.17", ["alpha=1", "beta=-1"])):
        argv = ["cohomology", "--model", model]
        for kv in params:
            argv += ["--param", kv]
        assert invoke(argv)[0] == 0


def test_too_many_monomials_is_user_error_before_enumeration(monkeypatch,
                                                            tmp_path):
    def enumerate_all(generators):
        raise AssertionError("the monomials were enumerated")
    monkeypatch.setattr(model, "_monomial_table", enumerate_all)
    code, out, err = invoke(["cohomology", "--model", "torus:40"])
    assert (code, out) == (1, "")
    assert "%d monomials" % 2 ** 80 in err
    assert "limit of %d" % model.MAX_MONOMIALS in err
    path = tmp_path / "big.hf"
    path.write_text("algebra big dim 1\ngen w : (1,1) even trunc 100000\n",
                    encoding="utf-8")
    code, out, err = invoke(["cohomology", "--file", str(path)])
    assert (code, out) == (1, "")
    assert "100000 monomials" in err


@pytest.mark.parametrize("fault", (ArithmeticError("Gram matrix is singular"),
                                   ZeroDivisionError("division by zero"),
                                   KeyError((1, 0)), IndexError("index"),
                                   linalg.DimensionMismatch("lengths"),
                                   ValueError("a plain ValueError")))
def test_internal_fault_exits_2_without_traceback(monkeypatch, fault):
    def broken(self, v):
        raise fault
    monkeypatch.setattr(linalg.Projector, "coefficients", broken)
    code, out, err = invoke(["massey", "--model", "iwasawa", "--a", "p1*p2",
                             "--b", "q1*q2", "--c", "q1*q2"])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(fault) in err


def test_zero_denominator_is_a_user_error(tmp_path):
    """A zero denominator in a scalar literal exits 1 with one line from
    each entry point: a --param value, a massey expression, a DSL file."""
    path = tmp_path / "zero.hf"
    path.write_text("algebra z dim 3\nholo p1 p2 p3\nd p3 = -1/0*p1*p2\n",
                    encoding="utf-8")
    for argv in (["cohomology", "--model", "nakamura:V.17",
                  "--param", "alpha=1/0", "--param", "beta=1"],
                 ["massey", "--model", "iwasawa", "--a", "1/0*p1*p2",
                  "--b", "q1*q2", "--c", "q1*q2"],
                 ["parse", str(path)]):
        code, out, err = invoke(argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "1/0" in err, argv


# grids that are not lists of lists, and Betti numbers that are not a list
NOT_LISTS = ('{"n": 2, "h_bc": 5}', '{"n": 2, "h_bc": [5]}',
             '{"n": 2, "h_bc": [[1], 5]}', '{"n": 2, "h_a": {"0": [1]}}',
             '{"n": 2, "betti": 5}', '{"n": 2, "betti": {"0": 1}}')


@pytest.mark.parametrize("doc", ('{"n": 2, "betti": [NaN]}', '{"n": NaN}',
                                 '{"n": "2"}', '{"n": 1.5}',
                                 '{"n": 1, "h_bc": [["x"]]}',
                                 '{"n": 1, "betti": [Infinity]}') + NOT_LISTS)
def test_malformed_table_counts_are_user_errors(tmp_path, doc):
    path = tmp_path / "table.json"
    path.write_text(doc, encoding="utf-8")
    code, out, err = invoke(["obstruct", "--input", str(path)])
    assert (code, out) == (1, "")
    want = "is not a list" if doc in NOT_LISTS else "not an integer"
    assert err.startswith("error: ") and want in err
    assert err.count("\n") == 1


def test_paper_notation_utf8_and_ascii():
    engine = engine_for("iwasawa")
    f = engine.spec.form_from_names(("p3", "q1", "q2", "q3"))
    assert paper_notation(engine.spec, f) == "φ^{3 1̄2̄3̄}".replace(" ", "")
    assert paper_notation(engine.spec, f, ascii_only=True) == "p3*q1*q2*q3"
    ce = load("ce:u=1,v=1")
    w = ce.gen("w1").wedge(ce.gen("w2"))
    assert paper_notation(ce, w) == "ω₁∧ω₂"


def test_form_and_paper_notation_write_every_kind_of_coefficient():
    """A unit body, coefficients 1 and -1, a complex coefficient in
    parentheses, a negative one after "+" read as "- ", in both
    renderers, which differ only in the product sign."""
    spec = load("iwasawa")
    f = (spec.one() * 2 + spec.gen("p1") - spec.gen("p2")
         + spec.gen("p3") * GaussianRational(1, 1)
         + spec.gen("q1") * GaussianRational(Fraction(-1, 2))
         + spec.form_from_names(("p1", "q2")) * GaussianRational(0, -3))
    plain = "2 - 1/2*q1 + (1+i)*p3 - p2 + p1 - 3i*p1*q2"
    assert f.pretty() == paper_notation(spec, f, ascii_only=True) == plain
    assert paper_notation(spec, f) == (
        "2 - 1/2·φ^{1̄} + (1+i)·φ^{3} - φ^{2} + φ^{1} - 3i·φ^{12̄}")
    ce = load("ce:u=1,v=1")
    g = (ce.gen("w1") * GaussianRational(0, 1)
         - ce.form_from_names(("phi", "w2"))
         + ce.one() * GaussianRational(1, -1))
    assert g.pretty() == "1-i + i*w1 - phi*w2"
    assert paper_notation(ce, g) == "1-i + i·ω₁ - φ∧ω₂"


def test_ascii_env_var(monkeypatch):
    monkeypatch.setenv("HERMFORM_ASCII", "1")
    code, out, _ = invoke(["formality", "--model", "iwasawa",
                           "--notion", "bott-chern"])
    assert code == 0
    assert "φ" not in out


# Pinned full stdout: witnesses and projections depend on the harmonic
# bases and on the order of the sweep, so a change to either shows here.
FORMALITY_IWASAWA = (
    'geom_dolbeault: no\n'
    '  witness: (q2) ^ (q1) violates dolbeault-harmonicity\n'
    'geom_bott_chern: no\n'
    '  witness: (q2) ^ (p1*p2*q1) violates bott_chern-harmonicity\n'
    '  metric-independent obstruction: holomorphic form p3 with del != 0\n'
    'geom_abc: no\n'
    '  witness: (q3) ^ (p3) violates wedge-closure of H_A + H_BC\n'
    'geom_aeppli: no\n'
    '  bc_equals_aeppli: no\n'
    '  module_condition: no\n'
    '  witness: (1) ^ (q1*q2) violates aeppli-harmonicity of H_A * H_BC\n'
    'geom_de_rham: no\n'
    '  witness: (q2) ^ (q1) violates de-rham-harmonicity\n'
)

MASSEY_IWASAWA = (
    'nonzero: yes\n'
    'bidegree: (1,3)\n'
    'representative: p3*q1*q2*q3\n'
    'aeppli projection: p3*q1*q2*q3\n'
    'indeterminacy dimension: 2\n'
)


def test_pinned_formality_and_massey_output():
    code, out, _ = invoke(["formality", "--model", "iwasawa", "--ascii"])
    assert code == 0
    assert out == FORMALITY_IWASAWA
    code, out, _ = invoke(["massey", "--model", "iwasawa", "--a", "p1*p2",
                           "--b", "q1*q2", "--c", "q1*q2", "--ascii"])
    assert code == 0
    assert out == MASSEY_IWASAWA


# The only catalog witness that comes from the del/dbar-closure pass of
# the ABC check rather than from a product.
FORMALITY_CE_1_2_ABC = (
    'geom_abc: no\n'
    '  witness: (phib*w2 - i*phib*w1) ^ (1) violates del-closure\n'
)


def test_pinned_abc_closure_witness():
    code, out, _ = invoke(["formality", "--model", "ce:u=1,v=2",
                           "--notion", "abc", "--ascii"])
    assert code == 0
    assert out == FORMALITY_CE_1_2_ABC


# Clean sweeps decided by the generator-set fast path: every notion on
# torus:3, Dolbeault and de Rham on IV.6 (whose other notions fail with
# witnesses from the canonical scan).
FORMALITY_TORUS_3 = (
    'geom_dolbeault: yes\n'
    'geom_bott_chern: yes\n'
    'geom_abc: yes\n'
    'geom_aeppli: yes\n'
    '  bc_equals_aeppli: yes\n'
    '  module_condition: yes\n'
    'geom_de_rham: yes\n'
)

FORMALITY_IV_6 = (
    'geom_dolbeault: yes\n'
    'geom_bott_chern: no\n'
    '  witness: (q2*q3) ^ (p2*p3) violates bott_chern-harmonicity\n'
    '  metric-independent obstruction: holomorphic form p4 with del != 0\n'
    'geom_abc: no\n'
    '  witness: (q4) ^ (p4) violates wedge-closure of H_A + H_BC\n'
    'geom_aeppli: no\n'
    '  bc_equals_aeppli: no\n'
    '  module_condition: no\n'
    '  witness: (1) ^ (q2*q3) violates aeppli-harmonicity of H_A * H_BC\n'
    'geom_de_rham: yes\n'
)


@pytest.mark.parametrize("model,expected", (
    ("torus:3", FORMALITY_TORUS_3), ("nakamura:IV.6", FORMALITY_IV_6)))
def test_pinned_clean_sweeps(model, expected):
    code, out, _ = invoke(["formality", "--model", model, "--ascii"])
    assert code == 0
    assert out == expected


def test_parse_parameters_reads_an_int_else_a_scalar_literal():
    assert catalog.parse_parameters([" u = 1", "v=-1/2", "w=i"]) == {
        "u": 1, "v": GaussianRational(Fraction(-1, 2)),
        "w": GaussianRational(0, 1)}
    assert type(catalog.parse_parameters(["u=1"])["u"]) is int
    assert catalog.parse_parameters(None) == {}
    with pytest.raises(CatalogError, match="'u' is not name=value"):
        catalog.parse_parameters(["u"])


@pytest.mark.parametrize("model,params", (
    ("ce:u=1/2,v=1", []), ("ce:u=1", ["v=1/2"]), ("ce:u=1", ["v=i"]),
    ("ce:u=1", [])))
def test_ce_needs_integer_parameters(model, params):
    """An identifier suffix and --param are read by one parser, so a
    non-integer ce parameter is the same user error either way."""
    argv = ["cohomology", "--model", model]
    for kv in params:
        argv += ["--param", kv]
    assert invoke(argv) == (1, "", "error: ce needs integer parameters u "
                                   "and v\n")


KODAIRA = """algebra kodaira dim 2
holo p1 p2
param a{}
d p2 = a*i*p1*q1
"""


def _dsl_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_param_binds_a_dsl_parameter(tmp_path):
    """--param gives a declared parameter its value, over its default."""
    bound = _dsl_file(tmp_path, "bound.hf", KODAIRA.format(" = 2"))
    free = _dsl_file(tmp_path, "free.hf", KODAIRA.format(""))
    other = _dsl_file(tmp_path, "other.hf", KODAIRA.format(" = 3"))
    want = invoke(["cohomology", "--json", "--file", bound])
    assert want[0] == 0
    for path in (free, other):
        assert invoke(["cohomology", "--json", "--file", path,
                       "--param", "a=2"]) == want
    code, out, err = invoke(["cohomology", "--file", free])
    assert (code, out) == (1, "")
    assert "parameter a has no value" in err


def test_a_parameter_the_dsl_file_does_not_declare_is_user_error(tmp_path):
    path = _dsl_file(tmp_path, "k.hf", KODAIRA.format(" = 2"))
    assert invoke(["cohomology", "--file", path, "--param", "x=1",
                   "--param", "a=1"]) == (
        1, "", "error: kodaira takes no parameter 'x'\n")


def test_massey_file_reads_the_bound_parameter(tmp_path):
    path = _dsl_file(tmp_path, "iw.hf", "algebra iw dim 3\nholo p1 p2 p3\n"
                     "param a\nd p3 = -a*p1*p2\n")
    model = ["massey", "--file", path, "--param", "a=2", "--b", "q1*q2",
             "--c", "q1*q2"]
    code, out, err = invoke(model + ["--a", "a*p1*p2"])
    assert (code, err) == (0, "")
    assert "nonzero: yes" in out
    assert invoke(model + ["--a", "2*p1*p2"]) == (code, out, err)


def test_model_and_file_together_is_user_error(tmp_path):
    path = _dsl_file(tmp_path, "k.hf", KODAIRA.format(" = 2"))
    assert invoke(["cohomology", "--model", "torus:2", "--file", path]) == (
        1, "", "error: cohomology needs --model or --file, not both\n")


@pytest.mark.parametrize("json_flag", ([], ["--json"]))
def test_unknown_theory_is_refused_before_any_output(json_flag):
    code, out, err = invoke(["cohomology", "--model", "torus:2",
                             "--theories", "dbar,zz"] + json_flag)
    assert (code, out, err) == (1, "", "error: unknown theory 'zz'\n")


def _model_file(tmp_path, text):
    path = tmp_path / "m.alg"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv,text", [
    (["cohomology", "--model", "ce:u=1,v=1", "--param", "u=3/2i/5"], None),
    (["cohomology", "--file"],
     "algebra x dim 2\nholo p1 p2\nd p2 = 3/2i/5*p1*q1\n"),
    (["parse"], "algebra x dim 1\ngen w : (1,1) even trunc \u00b2 real\n"),
    (["parse"], "algebra x dim 1\nholo p1\nd p1 = p1^\u00b2\n"),
], ids=["param-literal", "dsl-literal", "trunc-digit", "exponent-digit"])
def test_typed_input_is_a_user_error(tmp_path, argv, text):
    """A malformed literal, digit or exponent exits 1 with one error
    line, not 2 as an internal fault."""
    if text is not None:
        argv = argv + [_model_file(tmp_path, text)]
    code, out, err = invoke(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parse_takes_params(tmp_path):
    path = _model_file(tmp_path, "algebra pa dim 2\nholo p1 p2\nparam a\n"
                                 "d p2 = a*i*p1*q1\n")
    code, out, _ = invoke(["parse", path, "--validate", "--param", "a=1"])
    assert code == 0 and out == "ok: pa (n = 2, 4 generators)\n"
    code, _, err = invoke(["parse", path, "--validate"])
    assert code == 1 and "parameter a has no value" in err
    code, _, err = invoke(["parse", path, "--param", "b=1"])
    assert code == 1 and "pa takes no parameter 'b'" in err


def test_conjugates_share_a_truncation(tmp_path):
    """conj(a^2) = b^2 = 0 with a^2 != 0 would make conjugation no
    algebra map."""
    path = _model_file(tmp_path, "algebra t dim 3\n"
                                 "gen a : (1,1) even trunc 3 conj b\n"
                                 "gen b : (1,1) even trunc 2 conj a\n")
    code, _, err = invoke(["parse", path, "--validate"])
    assert code == 1
    assert "a and its conjugate b have truncations 3 and 2" in err


def test_param_reads_an_int_only_from_ascii_digits():
    assert catalog.parse_parameters(["u=-3", "v=+07"]) == {"u": -3, "v": 7}
    code, _, err = invoke(["cohomology", "--model", "ce:u=1_0,v=1"])
    assert code == 1 and "bad scalar literal: '1_0'" in err
    code, _, err = invoke(["cohomology", "--model", "ce:u=1,v=1",
                           "--param", "v=\u0663"])
    assert code == 1 and "bad scalar literal" in err


# d p1 = p2*p3 and d p2 = p4*p5 give del^2 p1 = p3*p4*p5, not 0
D_SQUARED_NONZERO = ("algebra bad dim 5\nholo p1 p2 p3 p4 p5\n"
                     "d p1 = p2*p3\nd p2 = p4*p5\n")


@pytest.mark.parametrize("argv", (["parse", "--validate"],
                                  ["cohomology", "--file"],
                                  ["formality", "--file"]))
def test_a_file_whose_d_squared_is_not_zero_is_a_user_error(tmp_path, argv):
    """The file's differential is the user's data, so d^2 != 0 exits 1
    with one line that names the file, not 2 as a broken invariant."""
    path = _model_file(tmp_path, D_SQUARED_NONZERO)
    code, out, err = invoke(argv + [path])
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: del^2 != 0 on generator p1" % path)
    assert err.count("\n") == 1


def test_a_later_assembly_fault_on_a_file_still_exits_2(tmp_path,
                                                        monkeypatch):
    """Only building the engine is the file's error: a disagreement
    found afterwards is still a broken invariant."""
    def broken(self, *args):
        raise AssemblyError("harmonic routes disagree")
    monkeypatch.setattr(HodgeEngine, "cohomology_table", broken)
    path = _model_file(tmp_path, "algebra m dim 3\nholo p1 p2 p3\n"
                                 "d p3 = -p1*p2\n")
    code, out, err = invoke(["cohomology", "--file", path])
    assert (code, out) == (2, "")
    assert err == "internal invariant violated: harmonic routes disagree\n"


def test_a_catalog_model_whose_d_squared_is_not_zero_exits_2(monkeypatch):
    """A catalog model is the library's data, so its d^2 != 0, found when
    the model is built, is a broken invariant."""
    monkeypatch.setitem(catalog._NAKAMURA, "V.2",
                        (5, {1: [(1, 2, 3)], 2: [(1, 4, 5)]}))
    code, out, err = invoke(["cohomology", "--model", "nakamura:V.2"])
    assert (code, out) == (2, "")
    assert err.startswith("internal invariant violated: del^2 != 0 on "
                          "generator p1")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", (["parse"], ["cohomology", "--file"],
                                  ["formality", "--file"]))
def test_a_monomial_past_the_volume_form_is_a_user_error(tmp_path, argv):
    """w^3 lies at (3,3), past the volume form w^2 at (2,2): the model is
    refused when it is built, on every verb, and nothing is printed."""
    path = _model_file(tmp_path, "algebra w dim 2\n"
                                 "gen w : (1,1) even trunc 4 real\n")
    assert invoke(argv + [path]) == (
        1, "", "error: monomial w^3 at (3, 3) lies past the volume form\n")


def test_a_harmonic_request_on_a_model_that_is_not_unimodular_exits_1(
        tmp_path):
    """d p2 = p1*p2 makes d of the (2n-1)-form p2*q1*q2 nonzero, so star
    gives no adjoint there: the two harmonic routes disagree because of
    the model, which is the user's error.  Its quotient tables exist."""
    path = _model_file(tmp_path, "algebra nu dim 2\nholo p1 p2\n"
                                 "d p2 = p1*p2\n")
    code, out, err = invoke(["formality", "--file", path])
    assert code == 1
    assert err == "error: model nu is not unimodular: d != 0 on degree 2n-1\n"
    assert invoke(["cohomology", "--file", path])[0] == 0


def test_blanks_between_digits_in_a_file_are_a_user_error(tmp_path):
    """'1 2' is two terms side by side, not 12."""
    path = _model_file(tmp_path, "algebra x dim 2\nholo p1 p2\n"
                                 "d p2 = 1 2*p1*q1\n")
    code, out, err = invoke(["cohomology", "--file", path])
    assert (code, out) == (1, "")
    assert "bad literal '1 2'" in err and err.count("\n") == 1


@pytest.mark.parametrize("doc,cell", (
    ('{"n": 1, "h_dbar": [[1,1,0],[1,1,0],[0,0,1]], "betti": [1,2,1,5]}',
     "cell (0,2) is outside 0..1"),
    ('{"n": 1, "betti": [1,2,1,5]}', "Betti index 3 is outside 0..2"),
))
def test_table_cells_out_of_range_are_user_errors(tmp_path, doc, cell):
    """A cell with p or q outside 0..n, or a Betti index outside 0..2n,
    is refused rather than compared with a torus bound of 0."""
    path = tmp_path / "table.json"
    path.write_text(doc, encoding="utf-8")
    code, out, err = invoke(["obstruct", "--input", str(path)])
    assert (code, out, err) == (1, "", "error: %s\n" % cell)
