"""Acceptance gate: one test per published claim the engine must
reproduce.  Each test prints nothing extra; `pytest -v` gives one
pass/fail line per criterion."""

import random
from math import comb

from hermform import formality, massey, obstructions
from hermform.catalog import (APPENDIX_CASES, default_instances, engine_for,
                              massey_case)
from hermform.linalg import Subspace, kernel_basis
from hermform.massey import solve_potential, triple_abc_massey
from hermform.model import Form
from hermform.obstructions import DimTable, analyze, blowup_bc_threefold_curve, \
    blowup_derham, rational_curve_table
from hermform.scalars import GaussianRational, I


# -- criterion 1: the appendix Massey suite ----------------------------

def test_criterion_1_appendix_massey_products():
    assert len(set(APPENDIX_CASES)) == 18
    runs = []
    for case in APPENDIX_CASES:
        if case == "V.17":
            runs.append((case, {"alpha": 1, "beta": 1}))
            runs.append((case, {"alpha": 1, "beta": -1}))
        else:
            runs.append((case, None))
    for case, params in runs:
        ok, report = massey.verify_appendix_case(case, params)
        assert ok, report
        assert report["nonzero"] and report["matches_listed"], report


# -- criterion 2: Bott-Chern numbers of M_{u,u} ------------------------

def _expected_bc_uu(u, p, q):
    if u >= 1 and p == q and 1 <= p <= u:
        return 2
    if (p, q) in ((0, 0), (2 * u + 1, 2 * u + 1)):
        return 1
    if q == p + 1 and u <= p <= 2 * u:
        return 1
    if p == q + 1 and u <= q <= 2 * u:
        return 1
    if u % 2 == 1 and (p, q) == (u + 1, u + 1):
        return 1
    return 0


def test_criterion_2_calabi_eckmann_bc_case_list():
    for u in (1, 2, 3, 4):
        engine = engine_for("ce:u=%d,v=%d" % (u, u))
        n = 2 * u + 1
        for p in range(n + 1):
            for q in range(n + 1):
                got = engine.cohomology_dim("bott_chern", p, q)
                assert got == _expected_bc_uu(u, p, q), (u, p, q, got)


# -- criterion 3: Calabi-Eckmann Hodge numbers -------------------------

def _expected_hodge(u, v, p, q):
    if p <= u and q in (p, p + 1):
        return 1
    if p > v and q in (p, p - 1):
        return 1
    return 0


def test_criterion_3_calabi_eckmann_hodge_numbers():
    for u, v in ((0, 1), (1, 1), (1, 2), (2, 2), (2, 3)):
        engine = engine_for("ce:u=%d,v=%d" % (u, v))
        n = u + v + 1
        for p in range(n + 1):
            for q in range(n + 1):
                got = engine.cohomology_dim("dolbeault", p, q)
                assert got == _expected_hodge(u, v, p, q), (u, v, p, q, got)


# -- criterion 4: M_{0,1} / M_{1,1} tables and verdicts ----------------

def test_criterion_4_ce_harmonic_tables_and_formality():
    # M_{0,1}: only omega_2 survives (truncation 2); the published table
    # lists the surviving (1,1) generator wedged with phi / phib
    e01 = engine_for("ce:u=0,v=1")
    s = e01.spec
    w = s.gen("w2")
    listed_01 = {
        (1, 1): [w],
        (2, 1): [w.wedge(s.gen("phi"))],
        (1, 2): [w.wedge(s.gen("phib"))],
        (2, 2): [w.wedge(s.gen("phi")).wedge(s.gen("phib"))],
    }
    for bid, forms in listed_01.items():
        assert e01.harmonic_space("bott_chern", *bid).dim == len(forms)
        for f in forms:
            assert e01.is_harmonic("bott_chern", f), bid

    e11 = engine_for("ce:u=1,v=1")
    s = e11.spec
    w1, w2 = s.gen("w1"), s.gen("w2")
    phi, phib = s.gen("phi"), s.gen("phib")
    listed_11 = {
        (1, 1): [w1, w2],
        (2, 1): [(w1 + w2 * I).wedge(phi)],
        (1, 2): [(w1 - w2 * I).wedge(phib)],
        (2, 2): [w1.wedge(w2)],
        (3, 2): [w1.wedge(w2).wedge(phi)],
        (2, 3): [w1.wedge(w2).wedge(phib)],
        (3, 3): [w1.wedge(w2).wedge(phi).wedge(phib)],
    }
    for bid, forms in listed_11.items():
        assert e11.harmonic_space("bott_chern", *bid).dim == len(forms)
        for f in forms:
            assert e11.is_harmonic("bott_chern", f), bid

    # standard-metric verdicts over the listed (u, v) set
    bc_expect = {(0, 0): True, (0, 1): True, (1, 1): True,
                 (0, 2): False, (1, 2): False, (2, 2): False, (2, 3): False}
    for (u, v), want in bc_expect.items():
        engine = engine_for("ce:u=%d,v=%d" % (u, v))
        report = formality.check_formality(engine, "geom_bott_chern")
        assert report.verdict == want, (u, v)
        if not want:
            # the failing wedge is witnessed by del dbar (phi phib)
            # = omega_1^2 + omega_2^2 != 0 in these truncations
            spec = engine.spec
            pp = spec.gen("phi").wedge(spec.gen("phib"))
            image = engine._derive("del", engine._derive("dbar", pp))
            squares = spec.zero()
            for name in ("w1", "w2"):
                if name in spec.index:
                    g = spec.gen(name)
                    squares = squares + g.wedge(g)
            assert not squares.is_zero(), (u, v)
            assert image.equals(squares), (u, v)
            assert report.witness is not None
        dol = formality.check_formality(engine, "geom_dolbeault")
        assert dol.verdict == (u == 0), (u, v)


# -- criterion 5: the quotient-and-blow-up pipeline --------------------

def test_criterion_5_example1_pipeline():
    engine = engine_for("example1:invariant")
    table = engine.cohomology_table()
    expect_bc = {(0, 0): 1, (1, 1): 4, (3, 0): 1,
                 (0, 3): 1, (2, 2): 4, (3, 3): 1}
    assert table.h_bc == expect_bc
    assert table.betti == [1, 0, 4, 2, 4, 0, 1]

    t = DimTable.from_cohomology_table(table)
    curve = rational_curve_table()
    for _ in range(16):
        t = blowup_derham(t, curve, 2)
        t = blowup_bc_threefold_curve(t, curve)
    assert t.h_bc[(1, 1)] == 20 and t.h_bc[(2, 2)] == 20
    assert [t.betti[k] for k in range(7)] == [1, 0, 20, 2, 20, 0, 1]

    # the Dolbeault numbers gain the same curve contributions
    h_dbar = dict(t.h_dbar)
    for _ in range(16):
        for (p, q), v in curve.h_dbar.items():
            h_dbar[(p + 1, q + 1)] = h_dbar.get((p + 1, q + 1), 0) + v
    final = DimTable(3, h_dbar, t.h_bc, t.h_a, t.betti)
    report = analyze(final)
    assert report.verdicts["geom_dolbeault"] == "obstructed"
    assert report.verdicts["geom_bott_chern"] == "obstructed"
    assert report.verdicts["geom_riemannian"] == "obstructed"
    texts = [f["test"] for f in report.fired]
    assert any(t.startswith("h_dbar^{1,1} = 20 > 9") for t in texts)
    assert any(t.startswith("b_2 = 20 > 15") for t in texts)


# -- criterion 6: metric-independent holomorphic witnesses -------------

def test_criterion_6_holomorphic_witnesses():
    for ident, params in default_instances():
        engine = engine_for(ident, params)
        if not ident.startswith(("nakamura:", "iwasawa")):
            continue
        f = formality.holomorphic_closedness_obstruction(engine)
        assert f is not None, ident
        assert engine._derive("dbar", f).is_zero()
        assert not engine._derive("del", f).is_zero()
    for n in (1, 2, 3):
        assert formality.holomorphic_closedness_obstruction(
            engine_for("torus:%d" % n)) is None


# -- criterion 7: property suites --------------------------------------

def test_criterion_7a_hodge_oracle_everywhere():
    for ident, params in default_instances():
        engine = engine_for(ident, params)
        for p, q in engine.spec.bidegrees():
            for theory in ("dolbeault", "conj_dolbeault",
                           "bott_chern", "aeppli"):
                assert (engine.harmonic_space(theory, p, q).dim
                        == engine.cohomology_dim(theory, p, q)), \
                    (ident, theory, p, q)
        for k in range(2 * engine.spec.n + 1):
            assert engine.de_rham_harmonic(k).dim == engine.betti(k), \
                (ident, k)


def test_criterion_7b_star_duality_bc_aeppli():
    for ident, params in default_instances():
        engine = engine_for(ident, params)
        n = engine.spec.n
        for p, q in engine.spec.bidegrees():
            bc = engine.harmonic_space("bott_chern", p, q)
            ae = engine.harmonic_space("aeppli", n - p, n - q)
            assert bc.dim == ae.dim, (ident, p, q)
            nb = len(engine.basis(n - p, n - q))
            ae_sub = Subspace(nb, [engine.coords(f, n - p, n - q)
                                   for f in ae])
            for f in bc:
                sf = engine.star(f)
                assert ae_sub.contains(engine.coords(sf, n - p, n - q)), \
                    (ident, p, q)


def test_criterion_7c_conjugation_symmetries():
    for ident, params in default_instances():
        engine = engine_for(ident, params)
        for p, q in engine.spec.bidegrees():
            assert (engine.cohomology_dim("dolbeault", p, q)
                    == engine.cohomology_dim("conj_dolbeault", q, p))
            for theory in ("bott_chern", "aeppli"):
                assert (engine.cohomology_dim(theory, p, q)
                        == engine.cohomology_dim(theory, q, p)), \
                    (ident, theory, p, q)


def test_criterion_7d_frolicher_inequalities():
    for ident, params in default_instances():
        engine = engine_for(ident, params)
        n = engine.spec.n
        for k in range(2 * n + 1):
            cells = [(p, k - p) for p in range(max(0, k - n),
                                               min(n, k) + 1)]
            b = engine.betti(k)
            assert b <= sum(engine.cohomology_dim("dolbeault", *c)
                            for c in cells), (ident, k)
            assert 2 * b <= sum(engine.cohomology_dim("bott_chern", *c)
                                + engine.cohomology_dim("aeppli", *c)
                                for c in cells), (ident, k)


def test_criterion_7e_parallelisable_factorization():
    for ident, params in default_instances():
        if not ident.startswith(("nakamura:", "iwasawa", "torus:")):
            continue
        engine = engine_for(ident, params)
        n = engine.spec.n
        for p in range(n + 1):
            for q in range(n + 1):
                assert (engine.cohomology_dim("dolbeault", p, q)
                        == comb(n, p)
                        * engine.cohomology_dim("dolbeault", 0, q)), \
                    (ident, p, q)


def test_criterion_7f_implication_diagram():
    samples = ("torus:1", "torus:2", "torus:3", "iwasawa",
               "example1:invariant", "ce:u=0,v=1", "ce:u=1,v=1",
               "ce:u=1,v=2", "nakamura:IV.3")
    for ident in samples:
        engine = engine_for(ident)
        r = {n: formality.check_formality(engine, n).verdict
             for n in formality.NOTIONS}
        if r["geom_aeppli"]:
            assert r["geom_abc"] and r["geom_dolbeault"], ident
        if r["geom_abc"]:
            assert r["geom_bott_chern"], ident


def _perturbed(engine, target_bid, f, rng):
    p, q = target_bid
    ker = kernel_basis(engine.ddbar_matrix(p, q))
    basis = engine.basis(p, q)
    out = f
    for v in ker.basis:
        c = GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1))
        if c:
            out = out + Form(engine.spec,
                             {m: c * a for m, a in zip(basis, v) if a})
    return out


def test_criterion_7g_potential_perturbation_invariance():
    rng = random.Random(2024)
    for case in APPENDIX_CASES:
        alpha, beta, gamma, _, engine = massey_case(case)
        base = triple_abc_massey(engine, alpha, beta, gamma)
        p, q = alpha.bidegree()
        r, s = beta.bidegree()
        u, v = gamma.bidegree()
        sg_ab = GaussianRational(-1 if (p + q) % 2 else 1)
        sg_bg = GaussianRational(-1 if (r + s) % 2 else 1)
        f_ab = solve_potential(engine, alpha.wedge(beta) * sg_ab)
        f_bg = solve_potential(engine, beta.wedge(gamma) * sg_bg)
        bid_ab = (p + r - 1, q + s - 1)
        bid_bg = (r + u - 1, s + v - 1)
        for _ in range(20):
            verdict = triple_abc_massey(
                engine, alpha, beta, gamma,
                f_ab=_perturbed(engine, bid_ab, f_ab, rng),
                f_bg=_perturbed(engine, bid_bg, f_bg, rng))
            assert verdict.nonzero == base.nonzero, case
            diff = [a - b for a, b in zip(verdict.aeppli_class,
                                          base.aeppli_class)]
            assert verdict.indeterminacy.contains(diff), case


# -- criterion 8: analyzer on published surface data -------------------

def test_criterion_8_surface_obstructions():
    ruled = DimTable(2, h_dbar={(0, 0): 1, (1, 0): 2, (0, 1): 2,
                                (1, 1): 2, (2, 1): 2, (1, 2): 2,
                                (2, 0): 1, (0, 2): 1, (2, 2): 1})
    report = analyze(ruled)
    assert report.verdicts["geom_dolbeault"] == "obstructed"
    assert any("= 4 > 2" in f["test"] for f in report.fired)

    k3 = DimTable(2, betti={0: 1, 1: 0, 2: 22, 3: 0, 4: 1})
    report = analyze(k3)
    assert report.verdicts["geom_riemannian"] == "obstructed"
    assert any("b_2 = 22 > 6" in f["test"] for f in report.fired)

    for n in (1, 2, 3):
        assert not analyze(obstructions.torus_table(n)).fired
