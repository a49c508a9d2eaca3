"""Triple ABC-Massey products: potentials, verdicts, invariance."""

import itertools
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermform import linalg, scalars
from hermform.calculus import HodgeEngine, NotClosedError, apply_derivation
from hermform.catalog import APPENDIX_CASES, engine_for, load, massey_case
from hermform.formality import check_formality
from hermform.linalg import kernel_basis, orthogonal_project, solve
from hermform.massey import (PotentialError, solve_potential,
                             triple_abc_massey, verify_appendix_case)
from hermform.model import Form, ModelError
from hermform.scalars import ZERO, GaussianRational

from test_calculus import generator_metric

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def test_iwasawa_potential_oracle():
    """dbar q3 = -q1 q2 and del p3 = -p1 p2 force
    del dbar (p3 q3) = p1 p2 q1 q2 up to the sign bookkeeping; the
    solver must return a potential with the same del-dbar image."""
    engine = engine_for("iwasawa")
    spec = engine.spec
    target = spec.form_from_names(("p1", "p2", "q1", "q2"))
    f = solve_potential(engine, target)
    got = apply_derivation(spec, "del", apply_derivation(spec, "dbar", f))
    assert got.equals(target)
    # hand-check the classical potential
    hand = spec.gen("p3").wedge(spec.gen("q3"))
    hand_image = apply_derivation(
        spec, "del", apply_derivation(spec, "dbar", hand))
    assert hand_image.is_multiple_of(target)


def test_solve_potential_rejects_non_exact():
    engine = engine_for("torus:2")
    target = engine.spec.form_from_names(("p1", "q1"))
    with pytest.raises(PotentialError):
        solve_potential(engine, target)
    with pytest.raises(PotentialError):
        # no (p-1, q-1) source space at the (1,0) edge
        solve_potential(engine_for("iwasawa"),
                        engine_for("iwasawa").spec.gen("p1"))


def test_solve_potential_zero_target():
    engine = engine_for("iwasawa")
    assert solve_potential(engine, engine.spec.zero()).is_zero()


def _reference_potential(engine, target, bid):
    """The minimum-norm potential of a target at bid by two reductions:
    a particular solution minus its projection onto ker del dbar.  None
    when the target is not exact."""
    p, q = bid
    m = engine.matrix("ddbar", p - 1, q - 1)
    row = engine.row(target.components, p, q)
    x = solve(m, [row.get(i, ZERO) for i in range(m.rows)])
    if x is None:
        return None
    ker = kernel_basis(m)
    if ker.dim:
        projection = orthogonal_project(ker, x, engine.weights(p - 1, q - 1))
        x = [a - c for a, c in zip(x, projection)]
    return Form(engine.spec, {mono: a for mono, a
                              in zip(engine.basis(p - 1, q - 1), x) if a})


def _signed_targets(alpha, beta, gamma):
    """Both del-dbar targets of a triple product, signs included, each
    with its bidegree, taken from the factors since a target can be 0."""
    def sign(form):
        return GaussianRational(-1 if sum(form.bidegree()) % 2 else 1)
    return [(x.wedge(y) * sign(x), tuple(map(sum, zip(x.bidegree(),
                                                       y.bidegree()))))
            for x, y in ((alpha, beta), (beta, gamma))]


APPENDIX_RUNS = [(case, None) for case in APPENDIX_CASES if case != "V.17"] + [
    ("V.17", {"alpha": 1, "beta": 1}), ("V.17", {"alpha": 1, "beta": -1})]


def test_potentials_match_two_reduction_reference():
    """On every appendix case, under the default and a seeded
    per-generator metric, both signed targets, each of them plus a basis
    monomial, and del dbar of a seeded form: the minimum-norm potential
    is the reference's, bit for bit, and a target without one raises
    with the reason."""
    kinds = set()
    for case, params in APPENDIX_RUNS:
        alpha, beta, gamma, _, default = massey_case(case, params)
        spec = default.spec
        rng = random.Random(len(kinds) + 43)
        seeded = HodgeEngine(spec, generator_metric(
            spec, [Fraction(rng.randint(1, 4), rng.randint(1, 4))
                   for _ in spec.generators]))
        targets = _signed_targets(alpha, beta, gamma)
        targets += [(t + Form(spec, {spec.basis(*bid)[0]: 1}), bid)
                    for t, bid in targets if spec.basis(*bid)]
        # and del dbar of a seeded form, an exact target of wide support
        (p, q) = targets[0][1]
        x = {j: GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
             for j in range(len(default.basis(p - 1, q - 1)))}
        targets.append((default.form(default.matrix("ddbar", p - 1, q - 1)
                                     .mul_rows([{j: c for j, c in x.items()
                                                 if c}])[0], p, q), (p, q)))
        for engine in (default, seeded):
            for target, bid in targets:
                if target.is_zero():
                    kinds.add("zero")
                    assert solve_potential(engine, target).is_zero()
                    continue
                want = (_reference_potential(engine, target, bid)
                        if min(bid) > 0 else None)
                if want is None:
                    kinds.add("not exact" if min(bid) > 0 else "no source")
                    with pytest.raises(PotentialError, match=re.escape(
                            "target is not del-dbar-exact at %s" % (bid,)
                            if min(bid) > 0 else "no (p-1, q-1) source "
                            "space for bidegree %s" % (bid,))):
                        solve_potential(engine, target)
                else:
                    kinds.add("exact")
                    got = solve_potential(engine, target)
                    assert got.components == want.components
    assert kinds == {"zero", "exact", "not exact", "no source"}


def test_potentials_share_the_aeppli_closed_rref(monkeypatch):
    """The appendix product on a cold V.10 engine factors one projector
    (the Aeppli class at the product's bidegree) and no potential by
    `min_norm_solve`.  Each source's del-dbar RREF is built once and is
    the one the Aeppli harmonic space there reads, the solver is
    rank(del dbar) sized, and a second potential at a source adds no
    row to any Echelon."""
    alpha, beta, gamma, _, cached = massey_case("V.10")
    engine = HodgeEngine(cached.spec)
    projectors, adds, reads = [], [], []

    class CountedProjector(linalg.Projector):
        __slots__ = ()

        def __init__(self, space, weights=None):
            projectors.append(space)
            super().__init__(space, weights)

    def no_min_norm_solve(*args):
        raise AssertionError("min_norm_solve called")
    add = linalg.Echelon.add

    def counted_add(self, row):
        adds.append(row)
        return add(self, row)
    rref = engine._rref

    def traced_rref(ops, degree):
        key = (ops, degree)
        reads.append((key, key in engine._memo["_rref"], rref(ops, degree)))
        return reads[-1][2]
    monkeypatch.setattr(linalg, "Projector", CountedProjector)
    monkeypatch.setattr(linalg, "min_norm_solve", no_min_norm_solve)
    monkeypatch.setattr(linalg.Echelon, "add", counted_add)
    monkeypatch.setattr(engine, "_rref", traced_rref)

    verdict = triple_abc_massey(engine, alpha, beta, gamma)
    assert verdict.nonzero
    assert list(engine._memo["_projector"]) == [("aeppli", verdict.bidegree)]
    assert len(projectors) == 1
    targets = _signed_targets(alpha, beta, gamma)
    sources = [(p - 1, q - 1) for _, (p, q) in targets if p and q]
    assert set(engine._memo["min_norm_solver"]) == set(sources)
    for src in sources:
        key = (("ddbar",), src)
        built = engine._memo["_rref"][key]
        assert [hit for k, hit, _ in reads if k == key].count(False) == 1
        del reads[:]
        del engine._memo["harmonic_space"][("aeppli",) + src]
        engine.harmonic_space("aeppli", *src)
        assert [(k, hit) for k, hit, _ in reads] == [(key, True)]
        assert reads[0][2] is built
        assert len(engine.min_norm_solver(*src)._inv) == len(built)
        assert len(built) < len(engine.basis(*src)) - len(built)
    del adds[:]
    for target, _ in targets:
        solve_potential(engine, target)
    assert adds == []


def test_inputs_must_be_bott_chern_harmonic():
    engine = engine_for("iwasawa")
    spec = engine.spec
    p3 = spec.gen("p3")  # del p3 != 0
    good = spec.gen("p1")
    with pytest.raises(NotClosedError):
        triple_abc_massey(engine, p3, good, good)


@pytest.mark.parametrize("slot", range(3))
def test_zero_input_is_a_model_error(slot):
    """Zero is Bott-Chern harmonic but has no bidegree to place the
    product in."""
    engine = engine_for("iwasawa")
    spec = engine.spec
    inputs = [spec.gen("p1")] * 3
    inputs[slot] = spec.zero()
    name = ("alpha", "beta", "gamma")[slot]
    with pytest.raises(ModelError, match="^%s is zero" % name):
        triple_abc_massey(engine, *inputs)


def test_bad_supplied_potential_rejected():
    engine = engine_for("iwasawa")
    spec = engine.spec
    alpha = spec.form_from_names(("p1", "p2"))
    beta = spec.form_from_names(("q1", "q2"))
    wrong = spec.form_from_names(("p1", "q1"))
    with pytest.raises(PotentialError):
        triple_abc_massey(engine, alpha, beta, beta, f_ab=wrong)


def test_wrong_bidegree_potential_rejected():
    """A supplied potential must lie in the source bidegree, even when
    del dbar of it matches the target: on torus:2 both targets of
    (p1, p1, p1) are 0, and q1 is del-dbar-closed but of bidegree (0, 1),
    not (1, -1).  On iwasawa the target is nonzero."""
    engine = engine_for("torus:2")
    p1, q1 = engine.spec.gen("p1"), engine.spec.gen("q1")
    assert triple_abc_massey(engine, p1, p1, p1).representative.is_zero()
    for f_ab, f_bg in ((q1, None), (None, q1), (p1 + q1, None)):
        with pytest.raises(PotentialError):
            triple_abc_massey(engine, p1, p1, p1, f_ab=f_ab, f_bg=f_bg)
    alpha, beta, gamma, _, engine = massey_case("III.2")
    with pytest.raises(PotentialError):
        triple_abc_massey(engine, alpha, beta, gamma,
                          f_ab=engine.spec.form_from_names(("p1", "p2")))


def test_torus_products_vanish():
    engine = engine_for("torus:2")
    spec = engine.spec
    p1 = spec.gen("p1")
    verdict = triple_abc_massey(engine, p1, p1, p1)
    assert not verdict.nonzero
    assert verdict.representative.is_zero()


def test_iwasawa_product_nonzero_and_class_consistent():
    alpha, beta, gamma, listed, engine = massey_case("III.2")
    verdict = triple_abc_massey(engine, alpha, beta, gamma)
    assert verdict.nonzero
    assert verdict.bidegree == (1, 3)
    # the projection itself is Aeppli harmonic and has the listed class
    assert engine.is_harmonic("aeppli", verdict.harmonic_projection)
    assert verdict.harmonic_projection.is_multiple_of(listed) or \
        engine.class_of(listed, "aeppli") is not None


def _perturb(engine, f, rng, bid):
    """Add a random del-dbar-closed form of the potential bidegree."""
    p, q = bid
    ker = kernel_basis(engine.ddbar_matrix(p, q))
    basis = engine.basis(p, q)
    extra = engine.spec.zero()
    for v in ker.basis:
        c = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
        if c:
            extra = extra + Form(engine.spec,
                                 {m: c * a for m, a in zip(basis, v) if a})
    return f + extra


@pytest.mark.parametrize("case", ["III.2", "IV.3", "V.5"])
def test_verdict_invariant_under_potential_choice(case):
    alpha, beta, gamma, _, engine = massey_case(case)
    base = triple_abc_massey(engine, alpha, beta, gamma)
    sign_ab = GaussianRational(-1 if sum(alpha.bidegree()) % 2 else 1)
    sign_bg = GaussianRational(-1 if sum(beta.bidegree()) % 2 else 1)
    f_ab = solve_potential(engine, alpha.wedge(beta) * sign_ab)
    f_bg = solve_potential(engine, beta.wedge(gamma) * sign_bg)
    p, q = alpha.bidegree()
    r, s = beta.bidegree()
    u, v = gamma.bidegree()
    bid_ab = (p + r - 1, q + s - 1)
    bid_bg = (r + u - 1, s + v - 1)
    rng = random.Random(61)
    for _ in range(5):
        verdict = triple_abc_massey(
            engine, alpha, beta, gamma,
            f_ab=_perturb(engine, f_ab, rng, bid_ab),
            f_bg=_perturb(engine, f_bg, rng, bid_bg))
        assert verdict.nonzero == base.nonzero
        # classes agree modulo the indeterminacy subspace
        diff = [a - b for a, b in zip(verdict.aeppli_class,
                                      base.aeppli_class)]
        assert verdict.indeterminacy.contains(diff)


def test_verify_appendix_case_smoke():
    ok, report = verify_appendix_case("III.2")
    assert ok
    assert report["nonzero"] and report["matches_listed"]
    assert report["bidegree"] == (1, 3)


def test_conjugation_symmetry_of_products():
    """Conjugating all three inputs conjugates the product."""
    for case in ("III.2", "IV.3"):
        alpha, beta, gamma, _, engine = massey_case(case)
        v1 = triple_abc_massey(engine, alpha, beta, gamma)
        v2 = triple_abc_massey(engine, alpha.conjugate(), beta.conjugate(),
                               gamma.conjugate())
        assert v1.nonzero == v2.nonzero
        p, q = v1.bidegree
        assert v2.bidegree == (q, p)
        assert v2.harmonic_projection.is_multiple_of(
            v1.harmonic_projection.conjugate())


# Bott-Chern formality against ABC-Massey products (D. Angella and
# A. Tomassini, "On Bott-Chern cohomology and formality", J. Geom. Phys.
# 93, 2015).  If the Bott-Chern harmonic forms are closed under ^ and
# alpha ^ beta is del-dbar-exact, then it is a harmonic exact form, hence
# 0; any del-dbar-closed potential then puts the representative in the
# indeterminacy, so every defined product contains zero.  Products are
# classes, so one nonzero product rules out the formality for every
# metric.

FORMAL = (("torus:1", 17), ("torus:2", 2129), ("ce:u=0,v=1", 64),
          ("ce:u=1,v=1", 378))


@pytest.mark.parametrize("ident,defined", FORMAL)
def test_bott_chern_formal_models_have_only_zero_products(ident, defined):
    engine = engine_for(ident)
    assert check_formality(engine, "geom_bott_chern").verdict
    forms = [f for bid in engine.spec.bidegrees() if bid != (0, 0)
             for f in engine.harmonic_space("bott_chern", *bid)]
    count = 0
    for alpha, beta, gamma in itertools.product(forms, repeat=3):
        try:
            verdict = triple_abc_massey(engine, alpha, beta, gamma)
        except PotentialError:
            continue
        count += 1
        assert not verdict.nonzero, (ident, alpha, beta, gamma)
    assert count == defined


@pytest.mark.parametrize("case", ("III.2", "III.3", "IV.2", "IV.3", "IV.4",
                                  "IV.6"))
def test_appendix_models_are_not_bott_chern_formal(case):
    alpha, beta, gamma, _, engine = massey_case(case)
    assert triple_abc_massey(engine, alpha, beta, gamma).nonzero
    assert not check_formality(engine, "geom_bott_chern").verdict


def test_nonzero_product_rules_out_bott_chern_formality_for_any_metric():
    spec = load("nakamura:III.3")

    @settings(max_examples=4, derandomize=True, deadline=None,
              database=None)
    @given(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4,
                                 max_denominator=4),
                    min_size=len(spec.generators),
                    max_size=len(spec.generators)))
    def check(gen_weights):
        engine = HodgeEngine(spec, generator_metric(spec, gen_weights))
        assert not check_formality(engine, "geom_bott_chern").verdict

    check()


@pytest.mark.parametrize("case,bound", (("V.10", 882), ("IV.3", 94)))
def test_cold_appendix_products_make_few_scalars(monkeypatch, case, bound):
    """Work guard on the projection path, which tables never take: a
    cold appendix product, its projectors and potentials included, makes
    at most 882 scalars on V.10 and 94 on IV.3.  A projection whose dot
    products start from ZERO makes 887 and 99."""
    alpha, beta, gamma, _, engine = massey_case(case)
    engine = HodgeEngine(engine.spec)
    made = []
    make = scalars._make

    def counted_make(a, b, d):
        made.append(d)
        return make(a, b, d)
    monkeypatch.setattr(scalars, "_make", counted_make)
    triple_abc_massey(engine, alpha, beta, gamma)
    assert 0 < len(made) <= bound


# Loads V.10 twice in a fresh interpreter, dropping each spec and engine
# before the next load, and prints per load the scalars made and the
# matrices built in loading, building the engine and computing the cold
# appendix product.
TWO_LOADS = """
from hermform import catalog, scalars
from hermform.calculus import HodgeEngine
from hermform.massey import triple_abc_massey
made = []
make = scalars._make
def counted_make(a, b, d):
    made.append(d)
    return make(a, b, d)
scalars._make = counted_make
for _ in range(2):
    made.clear()
    spec = catalog.load("nakamura:V.10")
    engine = HodgeEngine(spec)
    triple_abc_massey(engine, *map(spec.form_from_names,
                                   catalog._MASSEY["V.10"][:3]))
    print(len(made), len(engine._memo["matrix"]))
    del spec, engine
"""


def test_engines_on_two_loads_of_a_model_do_the_same_work():
    """Nothing outlives its spec or engine: a second load of V.10 makes
    as many scalars and builds as many matrices as the first, so no
    module-level or cross-spec cache serves it.  It runs in a fresh
    interpreter, so no other test's load warms such a cache first."""
    out = subprocess.run([sys.executable, "-c", TWO_LOADS], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    first, second = out.splitlines()
    assert first == second
    assert min(map(int, first.split())) > 0


def test_cold_product_builds_nothing_outside_the_model():
    """Every appendix beta and gamma is a product of q's, so the potential
    of beta^gamma sits at p = -1, where no monomial lies: a cold V.10
    product leaves no matrix, basis or key index at a bidegree outside
    0..n in the engine."""
    alpha, beta, gamma, _, engine = massey_case("V.10")
    engine = HodgeEngine(engine.spec)
    assert triple_abc_massey(engine, alpha, beta, gamma).nonzero
    n = engine.spec.n
    built = ([key[1:] for key in engine._memo["matrix"]]
             + list(engine._memo["_keyed"]) + list(engine._memo["_key_index"]))
    bidegrees = [d for d in built if len(d) == 2]
    assert bidegrees and all(0 <= a <= n for d in bidegrees for a in d)


def test_warm_product_builds_nothing_outside_the_model():
    """The same for a V.10 product given both potentials: f_bg is the
    zero form at (-1, v), and it is checked with no block or index
    built there."""
    alpha, beta, gamma, _, engine = massey_case("V.10")
    engine = HodgeEngine(engine.spec)
    sign_ab = GaussianRational(-1 if sum(alpha.bidegree()) % 2 else 1)
    sign_bg = GaussianRational(-1 if sum(beta.bidegree()) % 2 else 1)
    f_ab = solve_potential(engine, alpha.wedge(beta) * sign_ab)
    f_bg = solve_potential(engine, beta.wedge(gamma) * sign_bg)
    assert f_bg.is_zero()
    assert triple_abc_massey(engine, alpha, beta, gamma,
                             f_ab=f_ab, f_bg=f_bg).nonzero
    n = engine.spec.n
    built = ([key[1:] for key in engine._memo["matrix"]]
             + list(engine._memo["_keyed"]) + list(engine._memo["_key_index"]))
    bidegrees = [d for d in built if len(d) == 2]
    assert bidegrees and all(0 <= a <= n for d in bidegrees for a in d)


def test_massey_classes_stay_sparse(monkeypatch):
    """The class and the indeterminacy are read off class_row's
    coefficients as they are: no dense vector is made sparse again."""
    alpha, beta, gamma, _, engine = massey_case("IV.3")
    engine = HodgeEngine(engine.spec)

    def refused(v):
        raise AssertionError("dense round trip")
    monkeypatch.setattr(linalg, "_sparse", refused)
    assert triple_abc_massey(engine, alpha, beta, gamma).nonzero
