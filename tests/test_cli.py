"""CLI verbs, exit codes and output formats."""

import io
import json

import pytest

from hermform import linalg, model
from hermform.cli import paper_notation, run
from hermform.catalog import engine_for, load
from hermform.obstructions import torus_table


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
