"""Bigraded algebra structure: wedge, conjugation, actions."""

import gc
import random
import weakref
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hermform import calculus, catalog, dsl, model, scalars
from hermform.calculus import AssemblyError, HodgeEngine
from hermform.catalog import calabi_eckmann, nakamura, torus
from hermform.formality import check_all
from hermform.model import (DiagonalAction, GeneratorSpec, ModelError,
                            ModelMismatch, ModelSpec, invariant_submodel)
from hermform.scalars import GaussianRational, I, ONE, ZERO


def rand_form(spec, rng, terms=3):
    f = spec.zero()
    bids = spec.bidegrees()
    for _ in range(terms):
        p, q = bids[rng.randrange(len(bids))]
        basis = spec.basis(p, q)
        mono = basis[rng.randrange(len(basis))]
        f = f + spec.monomial_form(
            mono, GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)))
    return f


@pytest.fixture(scope="module")
def iwasawa():
    return nakamura("III.2")


def test_graded_commutativity(iwasawa):
    p1 = iwasawa.gen("p1")
    p2 = iwasawa.gen("p2")
    q1 = iwasawa.gen("q1")
    assert p1.wedge(p2).equals(-p2.wedge(p1))
    assert p1.wedge(q1).equals(-q1.wedge(p1))
    assert p1.wedge(p1).is_zero()


def test_even_generators_commute_and_truncate():
    ce = calabi_eckmann(1, 2)
    w1, w2 = ce.gen("w1"), ce.gen("w2")
    assert w1.wedge(w2).equals(w2.wedge(w1))
    assert w1.wedge(w1).is_zero()          # trunc 2
    assert not w2.wedge(w2).is_zero()      # trunc 3
    assert w2.wedge(w2).wedge(w2).is_zero()


def test_wedge_associative_random():
    rng = random.Random(31)
    spec = nakamura("IV.3")
    for _ in range(20):
        a, b, c = (rand_form(spec, rng) for _ in range(3))
        assert a.wedge(b).wedge(c).equals(a.wedge(b.wedge(c)))
        assert a.wedge(b + c).equals(a.wedge(b) + a.wedge(c))


def test_conjugation_involution_and_antiautomorphism():
    rng = random.Random(37)
    for spec in (nakamura("III.2"), calabi_eckmann(1, 1)):
        for _ in range(20):
            a, b = rand_form(spec, rng), rand_form(spec, rng)
            assert a.conjugate().conjugate().equals(a)
            assert a.wedge(b).conjugate().equals(
                a.conjugate().wedge(b.conjugate()))


def test_conjugation_swaps_bidegrees(iwasawa):
    f = iwasawa.gen("p1").wedge(iwasawa.gen("p2")).wedge(iwasawa.gen("q1"))
    assert f.bidegree() == (2, 1)
    assert f.conjugate().bidegree() == (1, 2)


def test_volume_and_basis_dimensions(iwasawa):
    assert len(iwasawa.basis(3, 3)) == 1
    # bidegree (p, q) dimension is C(3,p) C(3,q)
    assert len(iwasawa.basis(1, 2)) == 9
    assert len(iwasawa.basis(0, 0)) == 1
    assert iwasawa.basis(4, 0) == []


def test_bases_list_every_monomial_in_lexicographic_order():
    """Each bidegree's basis is the sorted list of the exponent vectors
    below the truncations that have that bidegree, on every default
    instance (even generators with truncation 3 included)."""
    for ident, params in catalog.default_instances():
        spec = catalog.load(ident, params)
        table = {}
        for mono in product(*(range(g.truncation) for g in spec.generators)):
            table.setdefault(spec.monomial_bidegree(mono), []).append(mono)
        assert spec.bidegrees() == sorted(table), ident
        for bid, monos in table.items():
            assert spec.basis(*bid) == sorted(monos), (ident, bid)


def test_keys_increase_along_each_basis_and_decode_to_its_monomials():
    """On every default instance the keys of each bidegree's basis
    strictly increase, and each key decodes to its monomial and is the
    key of that monomial."""
    for ident, params in catalog.default_instances():
        spec = catalog.load(ident, params)
        for bid in spec.bidegrees():
            monos, keys = spec._all_monomials()[bid]
            assert list(keys) == sorted(set(keys)), (ident, bid)
            assert [spec._monomial(k) for k in keys] == monos, (ident, bid)
            assert [spec._key(m) for m in monos] == list(keys), (ident, bid)


def test_truncation_one_generators_take_no_key_bits():
    """Forty even generators of truncation 1 are in no monomial: beside
    holo p1 p2 they leave torus:2's table, and the keys stay in 32 bits."""
    text = "algebra wide dim 2\nholo p1 p2\n" + "".join(
        "gen w%d : (1,1) even trunc 1 real\n" % k for k in range(40))
    spec = dsl.parse(text)
    assert max(max(keys) for _, keys in spec._all_monomials().values()) < (
        2 ** 32)
    table = HodgeEngine(spec).cohomology_table().to_dict()
    want = HodgeEngine(torus(2)).cohomology_table().to_dict()
    assert {k: v for k, v in table.items() if k != "model"} == {
        k: v for k, v in want.items() if k != "model"}


def test_adding_forms_on_disjoint_monomials_sums_no_scalars(iwasawa,
                                                           monkeypatch):
    """A sum of forms stores a term met once as it is."""
    a, b = iwasawa.gen("p1") * GaussianRational(2), iwasawa.gen("q1")
    sums = []
    add = scalars._sum

    def counted_sum(*args):
        sums.append(args)
        return add(*args)
    monkeypatch.setattr(scalars, "_sum", counted_sum)
    assert (a + b).components == {**a.components, **b.components}
    assert sums == []


def test_is_multiple_of(iwasawa):
    f = iwasawa.gen("p1").wedge(iwasawa.gen("q2"))
    assert (f * GaussianRational(0, 3)).is_multiple_of(f)
    assert not f.is_multiple_of(iwasawa.gen("p1").wedge(iwasawa.gen("q1")))
    assert iwasawa.zero().is_multiple_of(iwasawa.zero())
    assert not iwasawa.zero().is_multiple_of(f)


def test_model_mismatch():
    a = torus(2)
    b = torus(2)
    with pytest.raises(ModelMismatch):
        a.gen("p1").wedge(b.gen("p1"))


def test_generator_validation_errors():
    with pytest.raises(ModelError):
        # conjugate bidegree mismatch
        ModelSpec("bad", 1, [GeneratorSpec("a", (1, 0), 2, "a")])
    with pytest.raises(ModelError):
        # odd generator must truncate at 2
        ModelSpec("bad", 2, [
            GeneratorSpec("a", (1, 0), 3, "b"),
            GeneratorSpec("b", (0, 1), 3, "a")])
    with pytest.raises(ModelError):
        # not an involution
        ModelSpec("bad", 1, [
            GeneratorSpec("a", (1, 0), 2, "b"),
            GeneratorSpec("b", (0, 1), 2, "b")])


def test_a_monomial_past_the_volume_form_is_refused():
    """The volume form w^2 is at (2,2) and w^3 at (3,3) lies past it."""
    with pytest.raises(ModelError,
                       match=r"monomial w\^3 at \(3, 3\) lies past the"):
        ModelSpec("w", 2, [GeneratorSpec("w", (1, 1), 4, "w")])


def test_an_engine_does_not_check_its_model_again(monkeypatch):
    """d^2 = 0 is checked once, when the model is built: an engine on a
    built model runs no derivation, and assembles by the Leibniz plan."""
    spec = catalog.load("nakamura:IV.3")
    want = catalog.engine_for("nakamura:IV.3").cohomology_table().to_dict()

    def refused(*args):
        raise AssertionError("apply_derivation called")
    monkeypatch.setattr(model, "apply_derivation", refused)
    monkeypatch.setattr(calculus, "apply_derivation", refused)
    assert HodgeEngine(spec).cohomology_table().to_dict() == want


def test_assignment_validation():
    with pytest.raises(ModelError):
        # dbar(q) must be conj(del p): here it is missing
        parallel = torus(2)
        ModelSpec("bad", 2, parallel.generators,
                  {"p1": {(0, 1, 0, 0): ONE}}, {})


# torus:2 generators p1, p2, q1, q2; monomials are exponent 4-tuples
P1, Q1 = (1, 0, 0, 0), (0, 0, 1, 0)
P1P2, Q1Q2, P1Q1 = (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)


@pytest.mark.parametrize("del_a,dbar_a,message", [
    ({"x9": {P1P2: ONE}}, {}, "assignment on unknown generator 'x9'"),
    ({}, {"x9": {Q1Q2: ONE}}, "assignment on unknown generator 'x9'"),
    ({"p1": {P1: ONE}}, {}, "del p1 has bidegree (1, 0), want (2, 0)"),
    ({}, {"q1": {Q1: ONE}}, "dbar q1 has bidegree (0, 1), want (0, 2)"),
    # del p2 with no conjugate dbar q2, and the reverse
    ({"p2": {P1P2: ONE}}, {},
     "conjugation compatibility fails: dbar(q2) != conj(del p2)"),
    ({}, {"q2": {Q1Q2: ONE}},
     "conjugation compatibility fails: dbar(q2) != conj(del p2)"),
    ({"p2": {P1P2: ONE}}, {"q2": {Q1Q2: 2 * ONE}},
     "conjugation compatibility fails: dbar(q2) != conj(del p2)"),
    # dbar of a (1,0) generator with no conjugate del, and the reverse
    ({}, {"p2": {P1Q1: ONE}},
     "conjugation compatibility fails: dbar(p2) != conj(del q2)"),
    ({"q2": {P1Q1: ONE}}, {},
     "conjugation compatibility fails: dbar(p2) != conj(del q2)"),
])
def test_assignment_validation_messages(del_a, dbar_a, message):
    with pytest.raises(ModelError) as e:
        ModelSpec("bad", 2, torus(2).generators, del_a, dbar_a)
    assert str(e.value) == message


def test_image_of_mixed_bidegree_is_refused():
    """Each monomial of an image is checked, so a conjugation-compatible
    image with a term in the wrong bidegree is refused too."""
    other = torus(2)
    p1 = other.gen("p1")
    mixed = p1.wedge(other.gen("p2")) + p1.wedge(other.gen("q1"))
    with pytest.raises(ModelError) as e:
        ModelSpec("bad", 2, other.generators,
                  {"p1": mixed}, {"q1": mixed.conjugate()})
    assert str(e.value) == "del p1 has bidegree (1, 1), want (2, 0)"


@pytest.mark.parametrize("mono", [
    (1, 1, 0),          # one exponent short
    (1, 1, 0, 0, 0),    # one exponent too many
    (2, 0, 0, 0),       # p1 reaches its truncation
    (1, 1, 1, -1),      # a negative exponent, of bidegree (2, 0)
])
def test_image_monomial_outside_the_monomials_is_refused(mono):
    """A monomial of an image must have one exponent per generator, each
    below its truncation: a model printed from any other would not parse
    back to the same model."""
    with pytest.raises(ModelError) as e:
        ModelSpec("t", 2, torus(2).generators, {"p2": {mono: ONE}},
                  {"q2": {Q1Q2: ONE}})
    assert str(e.value) == (
        "del p2 has monomial %s, not one exponent per generator below its "
        "truncation" % (mono,))


def test_zero_images_are_dropped():
    spec = ModelSpec("t", 2, torus(2).generators,
                     {"p1": {}, "p2": {P1P2: ZERO}}, {"q1": {Q1Q2: ZERO}})
    assert spec.differentials == {"del": {}, "dbar": {}}


def test_form_images_are_accepted():
    other = torus(2)
    p1p2 = other.gen("p1").wedge(other.gen("p2"))
    by_form = ModelSpec("t", 2, other.generators,
                        {"p2": p1p2}, {"q2": p1p2.conjugate()})
    assert by_form.differentials == {"del": {"p2": {P1P2: ONE}},
                                     "dbar": {"q2": {Q1Q2: ONE}}}


def test_diagonal_action_validation(iwasawa):
    with pytest.raises(ModelError):
        DiagonalAction.from_map(iwasawa, {
            "p1": 2, "p2": 1, "p3": 1, "q1": 2, "q2": 1, "q3": 1})
    with pytest.raises(ModelError):
        # conjugate weight not conjugated
        DiagonalAction.from_map(iwasawa, {
            "p1": I, "p2": 1, "p3": 1, "q1": I, "q2": 1, "q3": 1})


def test_invariant_submodel_requires_equivariance(iwasawa):
    bad = DiagonalAction.from_map(iwasawa, {
        "p1": I, "p2": -I, "p3": GaussianRational(-1),
        "q1": -I, "q2": I, "q3": GaussianRational(-1)})
    with pytest.raises(ModelError):
        invariant_submodel(iwasawa, bad)
    good = DiagonalAction.from_map(iwasawa, {
        "p1": I, "p2": I, "p3": GaussianRational(-1),
        "q1": -I, "q2": -I, "q3": GaussianRational(-1)})
    keep = invariant_submodel(iwasawa, good)
    # p1 p2 has weight i*i = -1: not invariant; p1 q1 is invariant
    mono_p1p2 = iwasawa.gen("p1").wedge(iwasawa.gen("p2"))
    mono_p1q1 = iwasawa.gen("p1").wedge(iwasawa.gen("q1"))
    assert not keep(next(iter(mono_p1p2.components)))
    assert keep(next(iter(mono_p1q1.components)))


ACTION_MODELS = ("torus:2", "iwasawa", "nakamura:IV.3", "nakamura:IV.4",
                 "ce:u=1,v=2", "ce:u=1,v=1")
UNITS = (ONE, I, GaussianRational(-1), -I)   # i^k for k = 0..3


def _check_action(spec, draws, seen):
    """Draws become i^k per generator: a conjugate pair takes k and -k, a
    real generator k in {0, 2}.  The action is equivariant when every
    monomial of every image has its generator's weight; an accepted
    action's bases hold exactly the weight-1 monomials, counted here over
    all exponent vectors."""
    k = {}
    for g, d in zip(spec.generators, draws):
        k[g.name] = (2 * (d % 2) if g.conjugate == g.name
                     else -k[g.conjugate] % 4 if g.conjugate in k else d)
    ks = [k[g.name] for g in spec.generators]

    def weight(mono):
        return sum(e * x for e, x in zip(mono, ks)) % 4

    equivariant = all(weight(m) == k[name]
                      for images in spec.differentials.values()
                      for name, image in images.items() for m in image)
    action = DiagonalAction.from_map(
        spec, {name: UNITS[x] for name, x in k.items()})
    try:
        keep = invariant_submodel(spec, action)
    except ModelError:
        assert not equivariant
        seen["rejected"] += 1
        return
    assert equivariant
    seen["accepted"] += 1
    if weight(spec.volume_monomial):
        with pytest.raises(AssemblyError, match="volume monomial"):
            HodgeEngine(spec, monomial_filter=keep)
        return
    counts = Counter(spec.monomial_bidegree(m) for m in product(
        *(range(g.truncation) for g in spec.generators)) if not weight(m))
    engine = HodgeEngine(spec, monomial_filter=keep)
    assert {bid: len(engine.basis(*bid)) for bid in spec.bidegrees()} \
        == {bid: counts[bid] for bid in spec.bidegrees()}


def test_invariant_submodel_accepts_exactly_the_equivariant_actions():
    specs = [catalog.load(ident) for ident in ACTION_MODELS]
    seen = Counter()

    @settings(max_examples=50, derandomize=True, deadline=None,
              database=None)
    @given(st.lists(st.integers(0, 3), min_size=8, max_size=8))
    def check(draws):
        for spec in specs:
            _check_action(spec, draws, seen)

    check()
    assert seen["accepted"] and seen["rejected"]


def test_form_from_names_and_pretty(iwasawa):
    f = iwasawa.form_from_names(("p3", "q1", "q2", "q3"))
    assert f.bidegree() == (1, 3)
    assert f.pretty(ascii_only=True) == "p3*q1*q2*q3"
    assert iwasawa.zero().pretty() == "0"


@pytest.mark.parametrize("load", [
    lambda: catalog.load_with_action("nakamura:V.4"),
    lambda: catalog.load_with_action("example1:invariant"),
    lambda: (dsl.parse("algebra m dim 3\nholo p1 p2 p3\nd p3 = -p1*p2\n"),
             None),
], ids=["catalog", "invariant", "dsl"])
def test_released_spec_is_freed_by_reference_counting(no_cyclic_collector,
                                                      load):
    """A model holds no reference cycle, so a spec used by an engine is
    freed as soon as the last reference goes, with no cyclic collector."""
    def use():
        spec, action = load()
        engine = HodgeEngine(spec, monomial_filter=(
            invariant_submodel(spec, action) if action else None))
        engine.cohomology_table()
        check_all(engine)
        return weakref.ref(spec)

    assert use()() is None


# -- the d^2 check: four Leibniz passes against one derivation per form --

CHECK_SQUARES = model.ModelSpec._check_squares


def _reference_squares(spec):
    """The d^2 check as one apply_derivation per operator and form, per
    generator in declaration order: the first failure's message, or
    None."""
    derive = model.apply_derivation
    for g in spec.generators:
        de, db = (derive(spec, op, spec.gen(g.name)) for op in ("del", "dbar"))
        for label, value in (
                ("del^2", derive(spec, "del", de)),
                ("dbar^2", derive(spec, "dbar", db)),
                ("del dbar + dbar del",
                 derive(spec, "del", db) + derive(spec, "dbar", de))):
            if not value.is_zero():
                return "%s != 0 on generator %s (bidegree %s): %s" % (
                    label, g.name, g.bidegree, value.pretty(True))
    return None


def _batched_squares(spec):
    try:
        CHECK_SQUARES(spec)
    except AssemblyError as e:
        return str(e)
    return None


def _unchecked(monkeypatch, build):
    """The model that build() returns, with the d^2 check left out."""
    with monkeypatch.context() as m:
        m.setattr(model.ModelSpec, "_check_squares", lambda self: None)
        return build()


def test_d_squared_check_accepts_every_default_instance_as_the_reference():
    for ident, params in catalog.default_instances():
        spec = catalog.load(ident, params)
        assert _reference_squares(spec) is None, ident
        assert _batched_squares(spec) is None, ident


LATE = ("algebra late dim 5\ngen w : (1,1) even trunc 1 real\n"
        "holo p1 p2 p3 p4 p5\ngen v : (2,2) even trunc 1 real\n"
        "d p4 = p1*p2\nd p5 = p3*p4\n")
MIXED = ("algebra mixed dim 4\nholo p1 p2 p3 p4\nd p2 = p3*q1\n"
         "d p4 = p1*p2\n")
# w is 0 in the algebra, so the nonzero dbar of its del image is never
# read as a square
ZERO_GENERATOR = ("algebra t dim 3\nholo p1 p2 p3\n"
                  "gen w : (1,1) even trunc 1 real\nd p3 = p1*p2\n"
                  "del w = p1*p2*q3\ndbar w = p3*q1*q2\n")


@pytest.mark.parametrize("text,want", [
    (LATE, "del^2 != 0 on generator p5 (bidegree (1, 0)): -p1*p2*p3"),
    (MIXED, "del dbar + dbar del != 0 on generator p4 (bidegree (1, 0)): "
            "-p1*p3*q1"),
    (ZERO_GENERATOR, None),
], ids=["later-generator", "anticommutator", "truncation-one-image"])
def test_d_squared_check_matches_the_reference(monkeypatch, text, want):
    """Failures on a later generator, past generators of truncation 1,
    and in the dbar del term alone give the reference's message; the
    image of a generator of truncation 1 is never checked."""
    spec = _unchecked(monkeypatch, lambda: dsl.parse(text))
    assert _reference_squares(spec) == _batched_squares(spec) == want
    if want is None:
        dsl.parse(text)
    else:
        with pytest.raises(dsl.DslError) as caught:
            dsl.parse(text)
        assert want in str(caught.value)


def test_fuzzed_d_squared_check_matches_the_reference(monkeypatch):
    """Random holomorphic generators with del and dbar parts: the
    batched check accepts and refuses as the reference does, with the
    same message, on each of the three squares."""
    seen = Counter()

    @settings(max_examples=60, derandomize=True, deadline=None,
              database=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n), st.integers(1, n),
                  st.booleans(), st.sampled_from(("1", "-1", "2i"))),
        max_size=5))))
    def check(drawn):
        n, terms = drawn
        lines = {}
        for k, i, j, mixed, c in terms:
            if not mixed and i == j:
                continue
            lines.setdefault(k, []).append(
                "%s*p%d*%s%d" % (c, i, "q" if mixed else "p", j))
        text = "algebra f dim %d\nholo %s\n" % (
            n, " ".join("p%d" % k for k in range(1, n + 1))) + "".join(
            "d p%d = %s\n" % (k, " + ".join(v)) for k, v in lines.items())
        spec = _unchecked(monkeypatch, lambda: dsl.parse(text))
        want = _reference_squares(spec)
        assert _batched_squares(spec) == want, text
        seen[want.split(" != ")[0] if want else None] += 1

    check()
    assert set(seen) == {None, "del^2", "dbar^2", "del dbar + dbar del"}, seen


def test_d_squared_check_runs_four_leibniz_passes(monkeypatch):
    """Building a model runs _leibniz four times: del and dbar on the
    generators, then on the keys of their images."""
    passes = []
    leibniz = model._leibniz

    def counted(*args):
        passes.append(args[1])
        return leibniz(*args)
    monkeypatch.setattr(model, "_leibniz", counted)
    for ident, params in catalog.default_instances():
        passes.clear()
        catalog.load(ident, params)
        assert passes == ["del", "dbar", "del", "dbar"], ident


# -- monomial tables: one per signature, alive while a model holds it --

def test_models_of_one_signature_share_one_monomial_table():
    held = [catalog.load(ident) for ident in (
        "nakamura:V.4", "nakamura:V.10", "torus:5")]
    assert len({id(spec._all_monomials()) for spec in held}) == 1
    torus2, ce = catalog.load("torus:2"), catalog.load("ce:u=1,v=1")
    # four generators of truncation 2 each, at different bidegrees
    assert torus2._truncations == ce._truncations == (2, 2, 2, 2)
    assert torus2._all_monomials() is not ce._all_monomials()
    assert ce.basis(1, 1) == [(0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0)]
    assert len(torus2.basis(1, 1)) == 4


def test_a_monomial_table_lives_while_a_model_holds_it(monkeypatch):
    """A table is built once while a model of its signature is held, and
    again once every holder is gone."""
    builds = []

    class Counted(model._Table):
        __slots__ = ()

        def __init__(self):
            builds.append(1)
    monkeypatch.setattr(model, "_Table", Counted)
    # a signature that no other test holds
    text = "algebra life dim 3\ngen w : (3,3) even trunc 2 real\n"
    first, second = dsl.parse(text), dsl.parse(text)
    assert len(builds) == 1
    assert first._all_monomials() is second._all_monomials()
    table = weakref.ref(first._all_monomials())
    del first, second
    gc.collect()
    assert table() is None
    assert dsl.parse(text).basis(3, 3) == [(1,)]
    assert len(builds) == 2


# -- records: immutable values, shown and hashed by their fields -------

def _records():
    """One instance of each record, with its repr as it has always read."""
    from hermform.massey import triple_abc_massey
    from hermform.obstructions import analyze, torus_table

    alpha, beta, gamma, _, engine = catalog.massey_case("III.3")
    action = catalog.load_with_action("example1:invariant")[1]
    return [
        (GeneratorSpec("p1", (1, 0), 2, "q1"),
         "GeneratorSpec(name='p1', bidegree=(1, 0), truncation=2, "
         "conjugate='q1')"),
        (action,
         "DiagonalAction(weights=(GaussianRational('0', '1'), "
         "GaussianRational('0', '1'), GaussianRational('-1', '0'), "
         "GaussianRational('0', '-1'), GaussianRational('0', '-1'), "
         "GaussianRational('-1', '0')))"),
        (triple_abc_massey(engine, alpha, beta, gamma),
         "MasseyVerdict(nonzero=True, bidegree=(1, 3))"),
        (analyze(torus_table(2)),
         "ObstructionReport({'geom_dolbeault': "
         "'not_obstructed_by_these_tests', 'geom_bott_chern': "
         "'not_obstructed_by_these_tests', 'geom_riemannian': "
         "'not_obstructed_by_these_tests'})"),
    ]


def test_records_keep_their_reprs():
    for record, text in _records():
        assert repr(record) == text


def test_records_refuse_to_change():
    for record, _ in _records():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = None


def test_equal_generator_specs_and_actions_hash_equal(iwasawa):
    a = GeneratorSpec("p1", (1, 0), 2, "q1")
    b = GeneratorSpec("p1", (1, 0), 2, "q1")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != GeneratorSpec("p1", (1, 0), 2, "p1")
    weights = {g.name: ONE for g in iwasawa.generators}
    first, second = (DiagonalAction.from_map(iwasawa, weights)
                     for _ in range(2))
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert len({first, second, DiagonalAction.from_map(
        iwasawa, dict(weights, p1=-1, q1=-1))}) == 2


@pytest.mark.parametrize("bidegree, odd", (
    ((0, 0), False), ((1, 0), True), ((0, 1), True), ((1, 1), False),
    ((2, 1), True), ((2, 0), False), ((0, 3), True)))
def test_odd_follows_the_bidegree(bidegree, odd):
    assert GeneratorSpec("g", bidegree, 2, "g").odd is odd
