"""Bigraded algebra structure: wedge, conjugation, actions."""

import random
import weakref
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hermform import catalog, dsl
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
