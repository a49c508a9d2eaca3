"""Differentials, star, harmonic spaces, and the quotient oracle."""

import io
import random
from fractions import Fraction

import pytest

from hermform import linalg
from hermform.calculus import (SHIFT, THEORY, AssemblyError, HodgeEngine,
                               InnerProduct, NotClosedError)
from hermform.catalog import (calabi_eckmann, engine_for, load, nakamura,
                              torus)
from hermform.cli import run
from hermform.linalg import Matrix, inner, solve
from hermform.model import GeneratorSpec, ModelError, ModelSpec
from hermform.scalars import GaussianRational, ONE, ZERO

SAMPLE_IDS = ("torus:2", "iwasawa", "ce:u=1,v=1", "nakamura:IV.3")
THEORIES = ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli")


def rand_form(spec, rng, p, q):
    basis = spec.basis(p, q)
    f = spec.zero()
    for mono in basis:
        if rng.random() < 0.5:
            f = f + spec.monomial_form(
                mono, GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)))
    return f


def test_leibniz_rule_random():
    rng = random.Random(41)
    engine = engine_for("iwasawa")
    spec = engine.spec
    for _ in range(25):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        r, s = rng.randint(0, 1), rng.randint(0, 1)
        a = rand_form(spec, rng, p, q)
        b = rand_form(spec, rng, r, s)
        for which in ("del", "dbar"):
            lhs = engine._derive(which, a.wedge(b))
            sign = GaussianRational(-1 if (p + q) % 2 else 1)
            rhs = (engine._derive(which, a).wedge(b)
                   + a.wedge(engine._derive(which, b)) * sign)
            assert lhs.equals(rhs)


def test_d_squared_zero_everywhere():
    for ident in SAMPLE_IDS:
        engine = engine_for(ident)
        n = engine.spec.n
        for p, q in engine.spec.bidegrees():
            for which in ("del", "dbar"):
                m1 = engine.matrix(which, p, q)
                dp, dq = (1, 0) if which == "del" else (0, 1)
                m2 = engine.matrix(which, p + dp, q + dq)
                assert all(not row for row in m2.matmul(m1).data)


def test_assembly_rejects_d_squared_nonzero():
    # del p1 = p2 p3 with del p2 = p4 p5 gives del^2 p1 = p4 p5 p3 != 0
    from hermform.catalog import parallelisable
    spec = parallelisable("bad2", 5, {1: [(1, 2, 3)], 2: [(1, 4, 5)]})
    with pytest.raises(AssemblyError):
        HodgeEngine(spec)


def test_star_maps_to_complement_and_squares_to_sign():
    rng = random.Random(43)
    for ident in SAMPLE_IDS:
        engine = engine_for(ident)
        spec = engine.spec
        n = spec.n
        for _ in range(10):
            bids = [b for b in spec.bidegrees() if spec.basis(*b)]
            p, q = bids[rng.randrange(len(bids))]
            f = rand_form(spec, rng, p, q)
            if f.is_zero():
                continue
            sf = engine.star(f)
            assert sf.bidegree() == (n - p, n - q)
            # conjugate-linear star is an (anti)involution up to sign
            ssf = engine.star(sf)
            assert ssf.is_multiple_of(f)


def test_star_pairing_identity():
    """alpha ^ star(beta) = <alpha, beta> vol on each bidegree."""
    rng = random.Random(47)
    engine = engine_for("iwasawa")
    spec = engine.spec
    vol = spec.volume_form()
    for _ in range(25):
        bids = [b for b in spec.bidegrees() if spec.basis(*b)]
        p, q = bids[rng.randrange(len(bids))]
        a = rand_form(spec, rng, p, q)
        b = rand_form(spec, rng, p, q)
        lhs = a.wedge(engine.star(b))
        ip = inner(a.coordinates(p, q), b.coordinates(p, q),
                   engine.weights(p, q))
        assert lhs.equals(vol * ip)


def test_weighted_star_pairing():
    weights = {}
    spec = calabi_eckmann(1, 1)
    # weight the volume-complement pairing with a non-trivial metric
    for p, q in spec.bidegrees():
        for mono in spec.basis(p, q):
            weights[mono] = Fraction(1 + sum(mono), 2)
    engine = HodgeEngine(spec, InnerProduct(weights))
    rng = random.Random(53)
    vol = spec.volume_form()
    for _ in range(15):
        bids = [b for b in spec.bidegrees() if spec.basis(*b)]
        p, q = bids[rng.randrange(len(bids))]
        a = rand_form(spec, rng, p, q)
        b = rand_form(spec, rng, p, q)
        ip = inner(a.coordinates(p, q), b.coordinates(p, q),
                   engine.weights(p, q))
        assert a.wedge(engine.star(b)).equals(vol * ip)


@pytest.mark.parametrize("ident", SAMPLE_IDS)
def test_harmonic_dims_match_quotient_oracle(ident):
    engine = engine_for(ident)
    for p, q in engine.spec.bidegrees():
        for theory in THEORIES:
            assert (engine.harmonic_space(theory, p, q).dim
                    == engine.cohomology_dim(theory, p, q)), (theory, p, q)


@pytest.mark.parametrize("ident", SAMPLE_IDS)
def test_de_rham_dims_match_betti(ident):
    engine = engine_for(ident)
    for k in range(2 * engine.spec.n + 1):
        assert engine.de_rham_harmonic(k).dim == engine.betti(k)


def _seeded_engine(ident):
    spec = load(ident)
    rng = random.Random(61)
    weights = {m: Fraction(rng.randint(1, 5), rng.randint(1, 5))
               for bid in spec.bidegrees() for m in spec.basis(*bid)}
    return HodgeEngine(spec, InnerProduct(weights))


def _degrees(theory, spec):
    return ([(k,) for k in range(2 * spec.n + 1)] if theory == "de_rham"
            else spec.bidegrees())


@pytest.mark.parametrize("ident", ("iwasawa", "ce:u=1,v=1", "nakamura:III.3"))
def test_every_theory_under_seeded_metric(ident):
    """Both harmonic routes, the quotient dimension and class_of agree
    under a non-default metric, for all five theories."""
    engine = _seeded_engine(ident)
    for theory in THEORY:
        for degree in _degrees(theory, engine.spec):
            space = engine.harmonic_space(theory, *degree)
            assert space.dim == engine.cohomology_dim(theory, *degree), \
                (theory, degree)
            for i, f in enumerate(space):
                unit = [ONE if j == i else ZERO for j in range(space.dim)]
                assert engine.class_of(f, theory) == unit, (theory, degree)


def test_class_of_harmonic_plus_exact_under_seeded_metric():
    """class_of(h + e), h harmonic and e exact, gives h's coordinates,
    which a dense Gram solve of the normal equations confirms."""
    rng = random.Random(67)
    with_exact = set()
    for ident in ("iwasawa", "ce:u=1,v=1"):
        engine = _seeded_engine(ident)
        spec = engine.spec
        de, db = (lambda f: engine._derive("del", f),
                  lambda f: engine._derive("dbar", f))
        apply = {"del": de, "dbar": db, "ddbar": lambda f: de(db(f)),
                 "d": lambda f: de(f) + db(f)}

        def source_form(src):
            # every monomial of the source degree, so e misses nothing
            # the exact operators can reach
            return sum((spec.monomial_form(m, GaussianRational(
                rng.randint(1, 3), rng.randint(-2, 2)))
                for m in engine.basis(*src)), spec.zero())

        for theory, ops in THEORY.items():
            for degree in _degrees(theory, spec):
                space = engine.harmonic_space(theory, *degree)
                if not space.dim:
                    continue
                exact = spec.zero()
                for op in ops.exact:
                    src = tuple(a - b for a, b in zip(degree, SHIFT[op]))
                    if min(src) >= 0:
                        exact = exact + apply[op](source_form(src))
                if not exact.is_zero():
                    with_exact.add(theory)
                coeffs = [GaussianRational(rng.randint(1, 3),
                                           rng.randint(-2, 2))
                          for _ in range(space.dim)]
                form = sum((f * c for c, f in zip(coeffs, space)), exact)
                got = engine.class_of(form, theory)
                assert got == coeffs, (ident, theory, degree)
                w = engine.weights(*degree)
                basis = [engine.coords(f, *degree) for f in space]
                v = engine.coords(form, *degree)
                gram = Matrix.from_rows([[inner(bj, bi, w) for bj in basis]
                                         for bi in basis])
                assert solve(gram, [inner(v, bi, w) for bi in basis]) == got
    # ce:u=1,v=1 has no del-dbar-exact forms, iwasawa supplies them
    assert with_exact == set(THEORY)


def test_class_of_result_does_not_alias_engine_state():
    engine = HodgeEngine(load("iwasawa"))
    space = engine.harmonic_space("aeppli", 1, 1)
    forms = [dict(f.components) for f in space]
    form = space.forms[0] + space.forms[-1]
    first = engine.class_of(form, "aeppli")
    expected = list(first)
    first[:] = [ZERO] * len(first)
    assert engine.class_of(form, "aeppli") == expected
    assert [f.components for f in engine.harmonic_space("aeppli", 1, 1)] \
        == forms


def test_class_of_residual_check_fires(monkeypatch):
    # a projector that drops every class leaves a non-exact residual
    monkeypatch.setattr(linalg.Projector, "coefficients",
                        lambda self, v: [ZERO] * self.space.dim)
    engine = HodgeEngine(load("iwasawa"))
    with pytest.raises(AssemblyError):
        engine.class_of(engine.harmonic_space("aeppli", 1, 1).forms[0],
                        "aeppli")
    argv = ["massey", "--model", "iwasawa", "--a", "p1*p2", "--b", "q1*q2",
            "--c", "q1*q2"]
    err = io.StringIO()
    assert run(argv, out=io.StringIO(), err=err) == 2
    assert "harmonic decomposition failed" in err.getvalue()


def test_de_rham_cross_check_fires(monkeypatch):
    # a zero adjoint leaves only d a = 0 on the adjoint route
    monkeypatch.setattr(HodgeEngine, "_weighted_adjoint",
                        lambda self, fwd, src, dst: Matrix(fwd.cols, fwd.rows))
    with pytest.raises(AssemblyError):
        HodgeEngine(load("iwasawa")).de_rham_harmonic(2)
    argv = ["formality", "--model", "iwasawa", "--notion", "de-rham"]
    assert run(argv, out=io.StringIO(), err=io.StringIO()) == 2


def test_de_rham_membership_outside_subcomplex():
    engine = engine_for("example1:invariant")
    spec = engine.spec
    for form in (spec.gen("p1"), spec.gen("p1") + spec.gen("q1")):
        with pytest.raises(ModelError):
            engine.is_harmonic("de_rham", form)


def test_torus_harmonic_is_everything():
    engine = engine_for("torus:2")
    for p, q in engine.spec.bidegrees():
        dim = len(engine.basis(p, q))
        for theory in THEORIES:
            assert engine.harmonic_space(theory, p, q).dim == dim


def test_harmonic_forms_satisfy_defining_equations():
    """Closed ops kill each harmonic form and exact ops kill its star,
    applied as derivations on forms rather than through the matrices."""
    engine = engine_for("iwasawa")
    de, db = (lambda f: engine._derive("del", f),
              lambda f: engine._derive("dbar", f))
    apply = {"del": de, "dbar": db, "ddbar": lambda f: de(db(f)),
             "d": lambda f: de(f) + db(f)}
    for theory, ops in THEORY.items():
        degrees = ([(k,) for k in range(7)] if theory == "de_rham"
                   else engine.spec.bidegrees())
        for degree in degrees:
            for f in engine.harmonic_space(theory, *degree):
                assert engine.is_harmonic(theory, f)
                assert all(apply[op](f).is_zero() for op in ops.closed)
                assert all(apply[op](engine.star(f)).is_zero()
                           for op in ops.exact), (theory, degree)


def test_class_of_requires_closedness():
    engine = engine_for("iwasawa")
    spec = engine.spec
    # dbar q3 = -q1 q2 != 0
    with pytest.raises(NotClosedError):
        engine.class_of(spec.gen("q3"), "dolbeault")
    # but q3 is del-closed
    engine.class_of(spec.gen("q3"), "conj_dolbeault")
    with pytest.raises(NotClosedError):
        engine.class_of(spec.gen("p1") + spec.gen("q1"), "dolbeault")


def test_class_of_exact_form_vanishes():
    engine = engine_for("iwasawa")
    spec = engine.spec
    exact = engine._derive("dbar", spec.gen("q3"))  # = -q1 q2
    cls = engine.class_of(exact, "dolbeault")
    assert all(not c for c in cls)
    # a harmonic basis form projects to itself
    f = engine.harmonic_space("bott_chern", 1, 1).forms[0]
    cls = engine.class_of(f, "bott_chern")
    assert sum(1 for c in cls if c) == 1


def test_invariant_subcomplex_validation():
    engine = engine_for("example1:invariant")
    # invariant basis at (1,0) is empty (p's have weight i or -1... p3 -> -1)
    assert engine.basis(1, 0) == []
    table = engine.cohomology_table()
    assert [table.h_bc.get((p, p), 0) for p in range(4)] == [1, 4, 4, 1]


def test_filter_must_keep_volume():
    spec = nakamura("III.2")
    with pytest.raises(AssemblyError):
        HodgeEngine(spec, monomial_filter=lambda m: sum(m) == 0)


def test_filter_must_be_closed_under_star():
    # a subcomplex without the 1-forms but with their complements
    engine = HodgeEngine(load("iwasawa"), monomial_filter=lambda m: sum(m) != 1)
    with pytest.raises(AssemblyError):
        engine.harmonic_space("dolbeault", 2, 3)
    with pytest.raises(AssemblyError):
        engine.de_rham_harmonic(1)


def test_inner_product_rejects_nonpositive_weight():
    with pytest.raises(Exception):
        InnerProduct({(0, 0): Fraction(-1)})


def test_cohomology_table_shape():
    table = engine_for("torus:2").cohomology_table()
    doc = table.to_dict()
    assert doc["betti"] == [1, 4, 6, 4, 1]
    assert doc["h_dbar"][1][1] == 4
    assert doc["n"] == 2
