"""Formality verdicts, sub-verdicts, witnesses and implications."""

import io
import random
from fractions import Fraction

import pytest

from hermform import formality
from hermform.calculus import (AssemblyError, HarmonicBasis, HodgeEngine,
                               InnerProduct, apply_derivation)
from hermform.catalog import default_instances, engine_for, load_with_action
from hermform.cli import run
from hermform.formality import NOTIONS, check_all, check_formality
from hermform.linalg import Subspace
from hermform.model import invariant_submodel
from hermform.scalars import ONE


@pytest.fixture(scope="module")
def torus2():
    return engine_for("torus:2")


@pytest.fixture(scope="module")
def iwasawa():
    return engine_for("iwasawa")


def test_torus_formal_in_every_sense(torus2):
    reports = check_all(torus2)
    assert set(reports) == set(NOTIONS)
    for notion, report in reports.items():
        assert report.verdict, notion
        assert report.witness is None


def test_iwasawa_fails_everywhere(iwasawa):
    reports = check_all(iwasawa)
    for notion, report in reports.items():
        assert not report.verdict, notion


def test_witness_re_evaluates(iwasawa):
    report = check_formality(iwasawa, "geom_bott_chern")
    w = report.witness
    assert w is not None
    prod = w.left.wedge(w.right)
    assert prod.equals(w.product)
    assert not iwasawa.is_harmonic("bott_chern", prod)
    assert iwasawa.is_harmonic("bott_chern", w.left)
    assert iwasawa.is_harmonic("bott_chern", w.right)


def test_aeppli_sub_verdicts():
    # ce:u=0,v=1 is ABC formal but fails the Aeppli space equality
    engine = engine_for("ce:u=0,v=1")
    report = check_formality(engine, "geom_aeppli")
    assert set(report.sub_verdicts) == {"module_condition",
                                        "bc_equals_aeppli"}
    assert report.verdict == (report.sub_verdicts["module_condition"]
                              and report.sub_verdicts["bc_equals_aeppli"])
    assert not report.verdict
    torus = engine_for("torus:2")
    rep2 = check_formality(torus, "geom_aeppli")
    assert rep2.verdict
    assert all(rep2.sub_verdicts.values())


def test_implication_diagram_on_catalog():
    """aeppli => abc => bott_chern, and aeppli => dolbeault."""
    for ident in ("torus:1", "torus:2", "iwasawa", "ce:u=0,v=1",
                  "ce:u=1,v=1", "ce:u=1,v=2"):
        r = {n: check_formality(engine_for(ident), n).verdict
             for n in NOTIONS}
        if r["geom_aeppli"]:
            assert r["geom_abc"], ident
            assert r["geom_dolbeault"], ident
        if r["geom_abc"]:
            assert r["geom_bott_chern"], ident


def test_holomorphic_obstruction_abelian_vs_not(torus2, iwasawa):
    assert formality.holomorphic_closedness_obstruction(torus2) is None
    f = formality.holomorphic_closedness_obstruction(iwasawa)
    assert f is not None
    assert f.bidegree()[1] == 0
    assert apply_derivation(iwasawa.spec, "dbar", f).is_zero()
    assert not apply_derivation(iwasawa.spec, "del", f).is_zero()


def test_unknown_notion_rejected(torus2):
    with pytest.raises(ValueError):
        check_formality(torus2, "geom_unknown")


def test_unknown_notion_has_its_own_class(torus2):
    with pytest.raises(formality.UnknownNotionError, match="geom_unknown"):
        check_formality(torus2, "geom_unknown")
    out, err = io.StringIO(), io.StringIO()
    code = run(["formality", "--model", "torus:2", "--notion", "bogus"],
               out=out, err=err)
    assert code == 1
    assert err.getvalue().count("\n") == 1
    assert "unknown formality notion 'bogus'" in err.getvalue()


# -- the generator-set fast path ---------------------------------------------

@pytest.mark.parametrize("ident", ("torus:3", "torus:4"))
def test_generator_set_on_a_torus_is_the_degree_one_basis(ident):
    """On a torus every form is harmonic and the degree-one forms generate
    everything, so S is the degree-one basis of the right space, counted
    on the span: 2n forms in every grading, ABC included, whose row list
    ℋ_A then ℋ_BC holds 4n."""
    engine = engine_for(ident)
    n = engine.spec.n
    for notion, sweep in formality.SWEEPS.items():
        spaces = formality._Spaces(engine)
        holds, found = formality._generator_set(spaces, sweep)
        assert holds, notion
        ones = [d for d in engine.degrees(formality._grading(sweep.right))
                if sum(d) == 1]
        assert found == [(d, k) for d in ones
                         for k in range(spaces.get(sweep.right, d).space.dim)]
        assert len(found) == 2 * n, notion
    assert sum(len(formality._Spaces(engine).get("abc", d).rows)
               for d in ((1, 0), (0, 1))) == 4 * n


def test_generator_check_tests_the_unit_as_a_left_factor(monkeypatch):
    """(i) asks 1·s in the target too.  Strip ℋ_A of bidegree (1,0) on
    torus:1, giving it the RREF of every coordinate, whose kernel is 0:
    then 1·p1 is the one product of the Aeppli check that leaves ℋ_A,
    and the module condition must fail on it."""
    engine = HodgeEngine(load_with_action("torus:1")[0])
    real = engine.harmonic_space

    def stripped(theory, *degree):
        h = real(theory, *degree)
        if (theory, degree) == ("aeppli", (1, 0)):
            every = {c: {c: ONE} for c in range(h.space.ambient)}
            empty = HarmonicBasis(theory, degree, every, engine.spec,
                                  engine.basis(*degree))
            assert empty.dim == empty.space.dim == 0 < h.dim
            return empty
        return h
    monkeypatch.setattr(engine, "harmonic_space", stripped)
    sweep = formality.SWEEPS["geom_aeppli"]
    assert formality._generator_set(formality._Spaces(engine),
                                    sweep)[0] is False
    report = check_formality(engine, "geom_aeppli")
    assert report.sub_verdicts["module_condition"] is False
    w = report.witness
    assert w.left.components == engine.spec.one().components
    assert w.right.components == engine.spec.gen("p1").components


def test_generator_check_needs_degree_zero_to_be_the_unit(monkeypatch):
    """With more than the unit in degree 0 the induction on degree breaks,
    so the fast path declines and leaves the verdict to the scan."""
    engine = HodgeEngine(load_with_action("torus:1")[0])
    real = engine.basis
    extra = (1, 1)

    def padded(*degree):
        monos = real(*degree)
        return monos + [extra] if degree == (0, 0) else monos
    monkeypatch.setattr(engine, "basis", padded)
    for sweep in formality.SWEEPS.values():
        assert formality._generator_set(formality._Spaces(engine),
                                        sweep) == (None, [])


def test_generator_failure_with_a_clean_scan_is_an_internal_fault(
        iwasawa, monkeypatch):
    """A product of (i) outside the target must be confirmed by the
    canonical scan; a clean scan there is a broken invariant (exit 2)."""
    monkeypatch.setattr(formality, "_first_violation",
                        lambda spaces, sweep: None)
    with pytest.raises(AssemblyError, match="canonical scan"):
        check_formality(iwasawa, "geom_dolbeault")
    out, err = io.StringIO(), io.StringIO()
    code = run(["formality", "--model", "iwasawa"], out=out, err=err)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


# -- reference sweeps ------------------------------------------------------
#
# One loop per notion, written out separately and built only on
# harmonic_space, is_harmonic, Form.wedge and apply_derivation, so that the
# library's shared sweep is checked against an implementation that does
# not share its structure.  Each returns (verdict, sub_verdicts, witness)
# with the witness as (left, right, equation, product) or None.

def _ref_bidegree_pairs(engine):
    n = engine.spec.n
    bids = [bid for bid in engine.spec.bidegrees() if engine.basis(*bid)]
    return [((p, q), (r, s)) for p, q in bids for r, s in bids
            if p + r <= n and q + s <= n]


def _ref_dolbeault_like(engine, theory):
    for left, right in _ref_bidegree_pairs(engine):
        for a in engine.harmonic_space(theory, *left):
            for b in engine.harmonic_space(theory, *right):
                prod = a.wedge(b)
                if not engine.is_harmonic(theory, prod):
                    return False, {}, (a, b, "%s-harmonicity" % theory, prod)
    return True, {}, None


def _ref_abc(engine):
    spaces = {}
    for bid in engine.spec.bidegrees():
        if engine.basis(*bid):
            a = engine.harmonic_space("aeppli", *bid)
            bc = engine.harmonic_space("bott_chern", *bid)
            spaces[bid] = (Subspace(len(engine.basis(*bid)),
                                    a.space.basis + bc.space.basis),
                           a.forms + bc.forms)

    def inside(form):
        if form.is_zero():
            return True
        bid = form.bidegree()
        if bid not in spaces:
            return False
        vec = [form.components.get(m, 0) for m in engine.basis(*bid)]
        return spaces[bid][0].contains(vec)

    for bid in sorted(spaces):
        for f in spaces[bid][1]:
            for which in ("del", "dbar"):
                image = apply_derivation(engine.spec, which, f)
                if not inside(image):
                    return False, {}, (f, engine.spec.one(),
                                       "%s-closure" % which, image)
    for left, right in _ref_bidegree_pairs(engine):
        for a in spaces[left][1]:
            for b in spaces[right][1]:
                prod = a.wedge(b)
                if not inside(prod):
                    return False, {}, (a, b, "wedge-closure of H_A + H_BC",
                                       prod)
    return True, {}, None


def _ref_aeppli(engine):
    def module_witness():
        for left, right in _ref_bidegree_pairs(engine):
            for a in engine.harmonic_space("aeppli", *left):
                for b in engine.harmonic_space("bott_chern", *right):
                    prod = a.wedge(b)
                    if not engine.is_harmonic("aeppli", prod):
                        return (a, b, "aeppli-harmonicity of H_A * H_BC",
                                prod)
        return None

    witness = module_witness()
    equal = all(engine.harmonic_space("bott_chern", *bid).space.equals(
                    engine.harmonic_space("aeppli", *bid).space)
                for bid in engine.spec.bidegrees() if engine.basis(*bid))
    return (witness is None and equal,
            {"module_condition": witness is None, "bc_equals_aeppli": equal},
            witness)


def _ref_de_rham(engine):
    n = engine.spec.n
    for j in range(2 * n + 1):
        for k in range(2 * n + 1 - j):
            for a in engine.harmonic_space("de_rham", j):
                for b in engine.harmonic_space("de_rham", k):
                    prod = a.wedge(b)
                    if not engine.is_harmonic("de_rham", prod):
                        return False, {}, (a, b, "de-rham-harmonicity", prod)
    return True, {}, None


REFERENCE = {
    "geom_dolbeault": lambda e: _ref_dolbeault_like(e, "dolbeault"),
    "geom_bott_chern": lambda e: _ref_dolbeault_like(e, "bott_chern"),
    "geom_abc": _ref_abc,
    "geom_aeppli": _ref_aeppli,
    "geom_de_rham": _ref_de_rham,
}

SMALL_INSTANCES = [(ident, params) for ident, params in default_instances()
                   if load_with_action(ident, params)[0].n <= 4]


def _engine(ident, params, metric):
    """An engine under the default metric, a seeded per-generator metric
    (the weight of a monomial is the product of its generators'), or a
    seeded per-monomial metric (every monomial weighted on its own)."""
    spec, action = load_with_action(ident, params)
    filt = invariant_submodel(spec, action) if action else None
    ip = None
    if metric == "seeded":
        rng = random.Random(83)
        gen_weight = [Fraction(rng.randint(1, 4), rng.randint(1, 3))
                      for _ in spec.generators]
        weights = {}
        for bid in spec.bidegrees():
            for mono in spec.basis(*bid):
                w = Fraction(1)
                for g, e in zip(gen_weight, mono):
                    w *= g ** e
                weights[mono] = w
        ip = InnerProduct(weights)
    elif metric == "seeded2":
        rng = random.Random(131)
        ip = InnerProduct({mono: Fraction(rng.randint(1, 5), rng.randint(1, 4))
                           for bid in spec.bidegrees()
                           for mono in spec.basis(*bid)})
    return HodgeEngine(spec, ip, monomial_filter=filt)


def _as_tuple(report):
    w = report.witness
    return (report.verdict, report.sub_verdicts,
            None if w is None else (w.left, w.right, w.equation, w.product))


def _same(got, want):
    if got[:2] != want[:2] or (got[2] is None) != (want[2] is None):
        return False
    if got[2] is None:
        return True
    (gl, gr, ge, gp), (wl, wr, we, wp) = got[2], want[2]
    return (gl.components == wl.components and gr.components == wr.components
            and ge == we and gp.components == wp.components)


@pytest.mark.parametrize("metric", ("default", "seeded", "seeded2"))
@pytest.mark.parametrize(
    "ident,params", SMALL_INSTANCES,
    ids=[ident + "".join(",%s=%s" % kv for kv in sorted((p or {}).items()))
         for ident, p in SMALL_INSTANCES])
def test_check_formality_matches_reference_sweeps(ident, params, metric):
    """Verdict, sub-verdicts and witness of every notion agree with the
    separately written reference loops, under the default metric and two
    seeded metrics, one per generator and one per monomial."""
    engine = _engine(ident, params, metric)
    for notion in NOTIONS:
        got = _as_tuple(check_formality(engine, notion))
        want = REFERENCE[notion](engine)
        assert _same(got, want), (notion, got, want)
