"""Differentials, star, harmonic spaces, and the quotient oracle."""

import functools
import io
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from hermform import linalg, scalars
from hermform.calculus import (SHIFT, THEORY, AssemblyError, HodgeEngine,
                               InnerProduct, NotClosedError,
                               UnknownTheoryError, apply_derivation)
from hermform.catalog import (calabi_eckmann, default_instances, engine_for,
                              load, load_with_action, nakamura, torus)
from hermform.cli import run
from hermform.dsl import parse
from hermform.linalg import Matrix, inner, solve
from hermform.model import (Form, GeneratorSpec, ModelError, ModelSpec,
                            _merge_monomials, _once, invariant_submodel)
from hermform.scalars import GaussianRational, ONE, ZERO

SAMPLE_IDS = ("torus:2", "iwasawa", "ce:u=1,v=1", "nakamura:IV.3")
THEORIES = ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli")


def coords(engine, form, *degree):
    """Coefficient vector of form on the degree's basis."""
    row = engine.row(form.components, *degree)
    return [row.get(j, ZERO) for j in range(len(engine.basis(*degree)))]


def rand_form(spec, rng, p, q):
    basis = spec.basis(p, q)
    f = spec.zero()
    for mono in basis:
        if rng.random() < 0.5:
            f = f + spec.monomial_form(
                mono, GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)))
    return f


def test_leibniz_rule_random():
    """d(a·b) = da·b ± a·db.  On ce:u=1,v=2 the even w2 has truncation 3,
    so products reach w2^2 and cut off at w2^3."""
    for ident in ("iwasawa", "ce:u=1,v=2"):
        rng = random.Random(41)
        engine = engine_for(ident)
        spec = engine.spec
        for _ in range(25):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            r, s = rng.randint(0, 1), rng.randint(0, 1)
            a = rand_form(spec, rng, p, q)
            b = rand_form(spec, rng, r, s)
            for which in ("del", "dbar"):
                lhs = apply_derivation(spec, which, a.wedge(b))
                sign = GaussianRational(-1 if (p + q) % 2 else 1)
                rhs = (apply_derivation(spec, which, a).wedge(b)
                       + a.wedge(apply_derivation(spec, which, b)) * sign)
                assert lhs.equals(rhs), (ident, which)


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
        ip = inner(coords(engine, a, p, q), coords(engine, b, p, q),
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
        ip = inner(coords(engine, a, p, q), coords(engine, b, p, q),
                   engine.weights(p, q))
        assert a.wedge(engine.star(b)).equals(vol * ip)


@pytest.mark.parametrize("ident,pairs", (("iwasawa", 400),
                                         ("ce:u=1,v=1", 32)))
def test_star_table_defining_identity(ident, pairs):
    """x a ^ star(y b) = x conj(y) w(a) vol when a = b and 0 otherwise,
    for every pair of basis monomials of a bidegree, under seeded
    per-generator weights; the wedge checks the engine's star table."""
    spec = load(ident)
    rng = random.Random(71)
    gen_weight = [Fraction(rng.randint(1, 4), rng.randint(1, 3))
                  for _ in spec.generators]
    weight = {}
    for bid in spec.bidegrees():
        for mono in spec.basis(*bid):
            weight[mono] = Fraction(1)
            for w, e in zip(gen_weight, mono):
                weight[mono] *= w ** e
    engine = HodgeEngine(spec, InnerProduct(weight))
    vol = spec.volume_form()
    seen = 0
    for bid in spec.bidegrees():
        for a in spec.basis(*bid):
            for b in spec.basis(*bid):
                x = GaussianRational(rng.randint(-3, 3), rng.randint(1, 3))
                y = GaussianRational(rng.randint(1, 3), rng.randint(-3, 3))
                lhs = spec.monomial_form(a, x).wedge(
                    engine.star(spec.monomial_form(b, y)))
                want = (vol * (x * y.conjugate() * GaussianRational(
                    weight[a])) if a == b else spec.zero())
                assert lhs.equals(want), (bid, a, b)
                seen += 1
    assert seen == pairs


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
        de, db = (lambda f: apply_derivation(spec, "del", f),
                  lambda f: apply_derivation(spec, "dbar", f))
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
                basis = [coords(engine, f, *degree) for f in space]
                v = coords(engine, form, *degree)
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


# a degree of iwasawa with nonzero exact forms, so nonzero co-exact rows
CROSS_CHECK_DEGREES = (("dolbeault", (1, 2)), ("conj_dolbeault", (2, 1)),
                       ("bott_chern", (2, 2)), ("aeppli", (1, 2)),
                       ("de_rham", (2,)))


def _zero_adjoint(monkeypatch):
    monkeypatch.setattr(HodgeEngine, "_weighted_adjoint",
                        lambda self, fwd, src, dst: Matrix(fwd.cols, fwd.rows))


def _zero_star(monkeypatch):
    after_star = HodgeEngine._after_star

    def zero(self, op, degree):
        m = after_star(self, op, degree)
        return Matrix(m.rows, m.cols)
    monkeypatch.setattr(HodgeEngine, "_after_star", zero)


@pytest.mark.parametrize("zero_route", (_zero_adjoint, _zero_star))
@pytest.mark.parametrize("theory, degree", CROSS_CHECK_DEGREES)
def test_cross_check_fires_on_either_route(monkeypatch, zero_route, theory,
                                           degree):
    """Dropping the co-exact rows of either route leaves it the closed
    forms only, whose RREF differs from the other route's."""
    zero_route(monkeypatch)
    with pytest.raises(AssemblyError, match="star-based and adjoint-based"):
        HodgeEngine(load("iwasawa")).harmonic_space(theory, *degree)


def test_bigraded_cross_check_exits_2(monkeypatch):
    _zero_star(monkeypatch)
    argv = ["formality", "--model", "iwasawa", "--notion", "dolbeault"]
    err = io.StringIO()
    assert run(argv, out=io.StringIO(), err=err) == 2
    assert err.getvalue().startswith(
        "internal invariant violated: star-based and adjoint-based "
        "dolbeault harmonic spaces disagree")


def generator_metric(spec, gen_weights):
    """The metric whose monomial weights are the products of their
    generators' weights."""
    weights = {}
    for bid in spec.bidegrees():
        for mono in spec.basis(*bid):
            num = den = 1
            for g, e in zip(gen_weights, mono):
                num *= g.numerator ** e
                den *= g.denominator ** e
            weights[mono] = Fraction(num, den)
    return InnerProduct(weights)


def test_warm_engine_gives_the_cold_table():
    """Harmonic spaces add co-exact rows to copies of the shared closed
    RREFs, never to the RREFs that cohomology_dim reads."""
    spec = load("nakamura:V.10")
    rng = random.Random(89)
    metric = generator_metric(spec, [Fraction(rng.randint(1, 4),
                                              rng.randint(1, 3))
                                     for _ in spec.generators])
    warm = HodgeEngine(spec, metric)
    for theory in THEORY:
        for degree in warm.degrees(theory):
            warm.harmonic_space(theory, *degree)
    cold = HodgeEngine(spec, metric)
    assert warm.cohomology_table().to_dict() \
        == cold.cohomology_table().to_dict()


def test_de_rham_membership_outside_subcomplex():
    engine = engine_for("example1:invariant")
    spec = engine.spec
    for form in (spec.gen("p1"), spec.gen("p1") + spec.gen("q1")):
        with pytest.raises(ModelError):
            engine.is_harmonic("de_rham", form)


def test_membership_outside_subcomplex_is_a_model_error():
    """A monomial outside the degree's basis is a ModelError, never a
    bare KeyError, on the bigraded route as on the de Rham one."""
    engine = engine_for("example1:invariant")
    p1 = engine.spec.gen("p1")
    assert p1.bidegree() == (1, 0)
    with pytest.raises(ModelError):
        engine.is_harmonic("dolbeault", p1)
    with pytest.raises(ModelError):
        engine.row(p1.components, 1, 0)


def test_unknown_theory_has_its_own_class():
    engine = engine_for("torus:1")
    with pytest.raises(UnknownTheoryError, match="'no_such'"):
        engine.harmonic_space("no_such", 0, 0)
    assert issubclass(UnknownTheoryError, ValueError)


def _leibniz_reference(spec, images, form):
    """The graded derivation extending images of generators, written
    independently of the library: each Leibniz term is built as Forms and
    multiplied with Form.wedge."""
    out = spec.zero()
    gens = spec.generators
    for mono, coeff in form.components.items():
        parity = 0
        for i, e in enumerate(mono):
            if e:
                target = images.get(gens[i].name)
                if target is not None:
                    left = list(mono[:i]) + [e - 1] + [0] * (len(gens) - i - 1)
                    right = [0] * (i + 1) + list(mono[i + 1:])
                    sign_parity = parity + (e - 1) * (1 if gens[i].odd else 0)
                    c = coeff * e
                    if sign_parity % 2:
                        c = -c
                    term = spec.monomial_form(left, c).wedge(
                        Form(spec, target))
                    term = term.wedge(spec.monomial_form(right))
                    out = out + term
                parity += e * (1 if gens[i].odd else 0)
    return out


def _assert_matrices_match_reference(engine):
    """Column j of each del/dbar matrix is the derivation of basis
    monomial j as _leibniz_reference computes it on Forms."""
    spec = engine.spec
    for bid in engine.degrees("dolbeault"):
        for which in ("del", "dbar"):
            mat = engine.matrix(which, *bid)
            target = engine.basis(*(a + b for a, b in zip(bid, SHIFT[which])))
            for j, mono in enumerate(engine.basis(*bid)):
                image = _leibniz_reference(spec, spec.differentials[which],
                                           spec.monomial_form(mono))
                column = {target[i]: row[j] for i, row in enumerate(mat.data)
                          if j in row}
                assert column == image.components, (which, mono)


@pytest.mark.parametrize("ident", SAMPLE_IDS + ("example1:invariant",))
def test_assembled_matrices_match_the_derivation(ident):
    _assert_matrices_match_reference(engine_for(ident))


# An even generator with a nonzero differential, so the Leibniz sum's
# factor e·g^(e-1) shows: del(w^2) = 2 w y and dbar(w^2) = 2 w yb.
EVEN_DIFFERENTIAL = """\
algebra ew dim 3
gen w : (1,1) even trunc 3 real
gen y : (2,1) odd conj yb
gen yb : (1,2) odd conj y
del w = y
dbar w = yb
"""


def test_derivation_of_an_even_power():
    engine = HodgeEngine(parse(EVEN_DIFFERENTIAL))
    spec = engine.spec
    w, y, yb = spec.gen("w"), spec.gen("y"), spec.gen("yb")
    two = GaussianRational(2)
    assert apply_derivation(spec, "del", w.wedge(w)).equals(w.wedge(y) * two)
    assert apply_derivation(spec, "dbar", w.wedge(w)).equals(
        w.wedge(yb) * two)
    _assert_matrices_match_reference(engine)


# A primary Kodaira surface (Betti numbers 1, 3, 4, 3, 1).  dbar p1 =
# p2*q2 reaches past q1, so on p1*q1 the term passes the odd factor q1:
# the part of the Leibniz sign from factors after the derived one.
KODAIRA = """\
algebra kt dim 2
holo p1 p2
d p1 = p2*q2
"""


def test_derivation_past_a_later_factor():
    engine = HodgeEngine(parse(KODAIRA))
    assert [engine.betti(k) for k in range(5)] == [1, 3, 4, 3, 1]
    _assert_matrices_match_reference(engine)


def test_weighted_adjoint_identity():
    """<M u, v>_W = <u, A v>_W for each operator M out of a degree and
    its adjoint A into the image degree, under a seeded metric."""
    engine = _seeded_engine("iwasawa")
    spec = engine.spec
    rng = random.Random(23)

    def rand_vec(n):
        return [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(n)]
    checked = Counter()
    for op in ("del", "dbar", "ddbar", "d"):
        for src in _degrees("de_rham" if op == "d" else "dolbeault", spec):
            dst = tuple(a + b for a, b in zip(src, SHIFT[op]))
            m = engine.matrix(op, *src)
            if m.is_zero():
                continue
            a = engine.adjoint_matrix(op, *dst)
            for _ in range(3):
                u, v = rand_vec(m.cols), rand_vec(m.rows)
                assert (inner(m.mul_vec(u), v, engine.weights(*dst))
                        == inner(u, a.mul_vec(v), engine.weights(*src))), \
                    (op, src)
            checked[op] += 1
    assert set(checked) == {"del", "dbar", "ddbar", "d"}


def _count_builds(monkeypatch, name, builds):
    """Count in builds, by arguments, each run of the body of the
    memoised HodgeEngine method `name`, memoised again as it is."""
    body = getattr(HodgeEngine, name).__wrapped__

    @functools.wraps(body)
    def counted(self, *args):
        builds[args] += 1
        return body(self, *args)
    monkeypatch.setattr(HodgeEngine, name, _once(counted))


def test_star_and_adjoint_blocks_are_built_once(monkeypatch):
    """A cold engine builds each matrix, star block and adjoint block
    once per (op, degree), though several theories read the same block,
    and the star column map once per bidegree, though several ops read
    it.  Every total-degree artifact of d, its matrix, adjoint and star
    block, is placed from bidegree blocks: no d block is built entry by
    entry and no total degree gets a star column map."""
    matrix_builds, star_builds, adjoint_builds, column_builds = (
        Counter(), Counter(), Counter(), Counter())
    weighted_adjoint = HodgeEngine._weighted_adjoint
    place = HodgeEngine._placed
    placed = []

    def count_adjoint(self, fwd, src, dst):
        op = next(key[0] for key, m in self._memo["matrix"].items()
                  if m is fwd)
        adjoint_builds[op, dst] += 1
        return weighted_adjoint(self, fwd, src, dst)

    def count_placed(self, rows, cols, blocks):
        placed.append(place(self, rows, cols, blocks))
        return placed[-1]
    _count_builds(monkeypatch, "matrix", matrix_builds)
    _count_builds(monkeypatch, "_after_star", star_builds)
    _count_builds(monkeypatch, "_star_columns", column_builds)
    monkeypatch.setattr(HodgeEngine, "_weighted_adjoint", count_adjoint)
    monkeypatch.setattr(HodgeEngine, "_placed", count_placed)
    engine = HodgeEngine(load("nakamura:IV.3"))
    engine.cohomology_table()
    for theory in THEORY:
        for degree in engine.degrees(theory):
            engine.harmonic_space(theory, *degree)
    assert {op for op, _ in star_builds} == set(SHIFT)
    assert {op for op, _ in adjoint_builds} == set(SHIFT) - {"d"}
    for builds in (matrix_builds, star_builds, adjoint_builds,
                   column_builds):
        assert set(builds.values()) == {1}
    assert set(column_builds) == {(degree,) for op, degree in star_builds
                                  if op != "d"}
    assert all(len(degree) == 2 for degree, in column_builds)
    memo = engine._memo
    d_artifacts = ([m for (op, *_), m in memo["matrix"].items() if op == "d"]
                   + [m for (op, *k), m in memo["adjoint_matrix"].items()
                      if op == "d" and k > [0]]
                   + [m for (op, _), m in memo["_after_star"].items()
                      if op == "d"])
    assert len(d_artifacts) > 2 * len(engine.degrees("de_rham"))
    assert sorted(map(id, d_artifacts)) == sorted(map(id, placed))


def test_memoised_methods_give_back_what_they_built():
    """On a cold engine and model, a table, a Massey product and two
    formality sweeps call every method decorated with _once, of the
    engine, its model and formality's spaces; a second call of each,
    with every key it was called with, returns the object that the
    first call built."""
    from hermform import formality
    from hermform.massey import triple_abc_massey

    spec = load("iwasawa")
    engine = HodgeEngine(spec, generator_metric(
        spec, [Fraction(k, 2) for k in range(1, 7)]))
    engine.cohomology_table()
    ab = spec.form_from_names(("p1", "p2"))
    bb = spec.form_from_names(("q1", "q2"))
    triple_abc_massey(engine, ab, bb, bb)
    spaces = formality._Spaces(engine)
    for notion in ("geom_abc", "geom_aeppli"):
        formality._first_violation(spaces, formality.SWEEPS[notion])
    for obj in (spec, engine, spaces):
        decorated = {name for name, attr in vars(type(obj)).items()
                     if hasattr(attr, "__wrapped__")}
        assert set(obj._memo) == decorated, type(obj)
        for name, built in obj._memo.items():
            for key, value in list(built.items()):
                assert getattr(obj, name)(*key) is value, (name, key)


PLACED_IDS = ("torus:3", "iwasawa", "example1:invariant", "ce:u=1,v=2",
              "nakamura:V.4")


def _direct_d(engine, k):
    """The matrix of d = del + dbar at total degree k, column j the
    derivation of basis monomial j, with no block placed."""
    spec, index = engine.spec, engine.index(k + 1)
    mat = Matrix(len(index), len(engine.basis(k)))
    for j, mono in enumerate(engine.basis(k)):
        form = spec.monomial_form(mono)
        image = (apply_derivation(spec, "del", form)
                 + apply_derivation(spec, "dbar", form))
        for m, c in image.components.items():
            mat.data[index[m]][j] = c
    return mat


def _weight(engine, mono):
    return GaussianRational(engine.ip.weight(mono))


@pytest.mark.parametrize("seeded", (False, True))
@pytest.mark.parametrize("ident", PLACED_IDS)
def test_placed_de_rham_artifacts_match_a_direct_build(ident, seeded):
    """The placed total-degree artifacts equal a direct build over the
    total-degree basis, on a filtered model and one with an even
    generator, under the default and a per-generator metric: the d
    matrix; its adjoint W^-1 D^H W; the star column map of each
    bidegree, star m = weight(m) times the sign of m ^ (vol - m) = +-vol
    times vol - m; and the d star block, column j c_j times the
    conjugate of d's column at the complement."""
    spec, action = load_with_action(ident)
    metric = (generator_metric(spec, [Fraction(k + 2, k + 1) for k in
                                      range(len(spec.generators))])
              if seeded else None)
    engine = HodgeEngine(spec, metric, action and invariant_submodel(
        spec, action))
    n, vol = spec.n, spec.volume_monomial
    direct = {k: _direct_d(engine, k) for k in range(2 * n + 1)}
    for k in range(2 * n + 1):
        assert engine.matrix("d", k).data == direct[k].data, k
        if k:
            low, here = engine.basis(k - 1), engine.basis(k)
            adjoint = Matrix(len(low), len(here))
            for i, row in enumerate(direct[k - 1].data):
                for j, a in row.items():
                    adjoint.data[j][i] = (a.conjugate() * _weight(
                        engine, here[i]) / _weight(engine, low[j]))
            assert engine.adjoint_matrix("d", k).data == adjoint.data, k
        dual = engine.index(2 * n - k)
        after = Matrix(direct[2 * n - k].rows, len(engine.basis(k)))
        for j, mono in enumerate(engine.basis(k)):
            comp = tuple(v - e for v, e in zip(vol, mono))
            c = _weight(engine, mono) * _merge_monomials(spec, mono, comp)[1]
            for i, row in enumerate(direct[2 * n - k].data):
                if dual[comp] in row:
                    after.data[i][j] = c * row[dual[comp]].conjugate()
        assert engine._after_star("d", (k,)).data == after.data, k
    for bid in spec.bidegrees():
        source, const = engine._star_columns(bid)
        dual = engine.index(n - bid[0], n - bid[1])
        basis = engine.basis(*bid)
        assert sorted(source) == list(range(len(basis)))
        for j, mono in enumerate(basis):
            comp = tuple(v - e for v, e in zip(vol, mono))
            i = dual[comp]
            assert source[i] == j
            assert const[i] == (_weight(engine, mono)
                                * _merge_monomials(spec, mono, comp)[1])


def test_star_sign_in_closed_form():
    """The star sign of every monomial of every default instance, read
    off the odd generators before each factor, is the sign that
    multiplying the monomial by its complement gives."""
    checked = 0
    for ident, params in default_instances():
        engine = engine_for(ident, params)
        spec = engine.spec
        for bid in spec.bidegrees():
            for mono in spec.basis(*bid):
                comp, sign = engine._complement(mono)
                assert min(comp) >= 0
                assert _merge_monomials(spec, mono, comp) == (
                    spec.volume_monomial, sign), (ident, mono)
                checked += sign < 0
    assert checked > 1000


def test_harmonic_dimensions_build_no_kernel(monkeypatch):
    """A cold IV.3 table plus the dimension of every harmonic space
    row-reduces no kernel: a dimension is the number of columns less the
    rank of the cross-checked RREF.  The first read of `space` builds
    that space's kernel, once."""
    kernels = []
    kernel = linalg._kernel

    def counted(cols, rref):
        kernels.append(cols)
        return kernel(cols, rref)
    monkeypatch.setattr(linalg, "_kernel", counted)
    engine = HodgeEngine(load("nakamura:IV.3"))
    engine.cohomology_table()
    spaces = [engine.harmonic_space(theory, *degree) for theory in THEORY
              for degree in engine.degrees(theory)]
    assert sum(h.dim for h in spaces) > 0
    assert kernels == []
    h = max(spaces, key=lambda h: h.dim)
    assert h.space is h.space and h.space.dim == h.dim
    assert kernels == [len(h.space.basis[0])]


def test_tables_and_harmonic_spaces_pay_per_nonzero(monkeypatch):
    """A cold table plus every harmonic space adds no empty row to an
    Echelon and builds no Form: harmonic forms are built when read."""
    engine = HodgeEngine(load("nakamura:IV.3"))
    empty_adds, forms = [], []
    add = linalg.Echelon.add
    form_init = Form.__init__

    def counted_add(self, row):
        if not row:
            empty_adds.append(row)
        return add(self, row)

    def counted_init(self, *args, **kwargs):
        forms.append(args)
        form_init(self, *args, **kwargs)
    monkeypatch.setattr(linalg.Echelon, "add", counted_add)
    monkeypatch.setattr(Form, "__init__", counted_init)
    engine.cohomology_table()
    spaces = [engine.harmonic_space(theory, *degree) for theory in THEORY
              for degree in engine.degrees(theory)]
    assert sum(h.dim for h in spaces) > 0
    assert empty_adds == [] and forms == []


def test_tables_and_harmonic_spaces_make_few_scalars(monkeypatch):
    """Work guard, deterministic where timings are not: a cold table
    plus every harmonic space of IV.3 makes at most 300 scalars.  Unit
    rows cost the RREF no arithmetic and a new sparse entry costs no
    addition; without those rules it made about 2700.  The de Rham
    blocks are placed, not recomputed, and each weight is negated once
    for the star columns; without that it made 600."""
    made = []
    make = scalars._make

    def counted_make(a, b, d):
        made.append(d)
        return make(a, b, d)
    engine = HodgeEngine(load("nakamura:IV.3"))
    monkeypatch.setattr(scalars, "_make", counted_make)
    engine.cohomology_table()
    for theory in THEORY:
        for degree in engine.degrees(theory):
            engine.harmonic_space(theory, *degree)
    assert 0 < len(made) <= 300


def test_harmonic_forms_are_built_on_first_read():
    """`forms` is the Form of each RREF row of the space, built once."""
    engine = engine_for("nakamura:IV.3")
    for theory in THEORY:
        for degree in engine.degrees(theory):
            h = engine.harmonic_space(theory, *degree)
            assert h.dim == len(h.forms) == h.space.dim
            assert ([f.components for f in h.forms]
                    == [engine.form(r, *degree).components
                        for r in h.space.rows])
            assert h.forms is h.forms


@pytest.mark.parametrize("read_forms", (False, True))
def test_released_engine_is_freed_by_reference_counting(no_cyclic_collector,
                                                        read_forms):
    """An engine holds no reference cycle, harmonic forms included: it is
    freed as soon as the last reference goes, with no cyclic collector."""
    def use():
        engine = HodgeEngine(load("nakamura:IV.3"))
        for theory in THEORY:
            for degree in engine.degrees(theory):
                h = engine.harmonic_space(theory, *degree)
                if read_forms:
                    h.forms
        return weakref.ref(engine)

    assert use()() is None


def test_product_table_matches_wedge():
    engine = engine_for("ce:u=1,v=1")
    spec = engine.spec
    monos = [m for bid in engine.degrees("dolbeault")
             for m in engine.basis(*bid)]
    rng = random.Random(47)
    for _ in range(200):
        ma, mb = rng.choice(monos), rng.choice(monos)
        mono, sign = engine.product(ma, mb)
        wedge = spec.monomial_form(ma).wedge(spec.monomial_form(mb))
        if mono is None:
            assert sign == 0 and wedge.is_zero()
        else:
            assert wedge.components == {mono: GaussianRational(sign)}
        assert engine.product(ma, mb) is engine.product(ma, mb)


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
    de, db = (lambda f: apply_derivation(engine.spec, "del", f),
              lambda f: apply_derivation(engine.spec, "dbar", f))
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
    exact = apply_derivation(spec, "dbar", spec.gen("q3"))  # = -q1 q2
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
