"""Geometric-formality decisions by exhaustive harmonic-basis products.

Each notion asks that wedge products of harmonic forms stay inside the
relevant harmonic space.  SWEEPS records, per notion, the left factors,
the right factors and the target space, and one sweep decides them all.
It runs over explicit bases, so by bilinearity a clean sweep decides the
notion for the whole space; the first violation in canonical order
becomes the witness.
"""

from __future__ import annotations

from collections import namedtuple

from .linalg import Subspace

# A notion holds when every product of a left basis form with a right
# basis form lies in the target space.  A space is named by its theory,
# or "abc" for the per-bidegree span ℋ_A + ℋ_BC; `equation` labels the
# witness.
Sweep = namedtuple("Sweep", ["left", "right", "target", "equation"])

SWEEPS = {
    "geom_dolbeault": Sweep("dolbeault", "dolbeault", "dolbeault",
                            "dolbeault-harmonicity"),
    "geom_bott_chern": Sweep("bott_chern", "bott_chern", "bott_chern",
                             "bott_chern-harmonicity"),
    "geom_abc": Sweep("abc", "abc", "abc", "wedge-closure of H_A + H_BC"),
    "geom_aeppli": Sweep("aeppli", "bott_chern", "aeppli",
                         "aeppli-harmonicity of H_A * H_BC"),
    "geom_de_rham": Sweep("de_rham", "de_rham", "de_rham",
                          "de-rham-harmonicity"),
}

NOTIONS = tuple(SWEEPS)

CN_NOTE = ("pointwise-constant norms hold automatically for invariant "
           "forms on the model")


class Witness:
    """A violating pair: wedge of the two forms breaks `equation`."""

    __slots__ = ("left", "right", "equation", "product")

    def __init__(self, left, right, equation, product):
        self.left = left
        self.right = right
        self.equation = equation
        self.product = product


class FormalityReport:
    def __init__(self, notion, verdict, witness=None, sub_verdicts=None):
        self.notion = notion
        self.verdict = verdict
        self.witness = witness
        self.sub_verdicts = dict(sub_verdicts or {})
        self.note = CN_NOTE

    def __repr__(self):
        return "FormalityReport(%s, %s)" % (self.notion, self.verdict)


class _Spaces:
    """The spaces a sweep reads, by name and degree, as (Subspace, forms):
    a theory's harmonic space, or "abc", the per-bidegree span
    ℋ_A + ℋ_BC with the forms of both bases.  Built on first use."""

    def __init__(self, engine):
        self.engine = engine
        self._abc = {}

    def get(self, name, degree):
        if name != "abc":
            h = self.engine.harmonic_space(name, *degree)
            return h.space, h.forms
        if degree not in self._abc:
            a = self.engine.harmonic_space("aeppli", *degree)
            bc = self.engine.harmonic_space("bott_chern", *degree)
            self._abc[degree] = (
                Subspace(a.space.ambient, a.space.basis + bc.space.basis),
                a.forms + bc.forms)
        return self._abc[degree]

    def forms(self, name, degree):
        return self.get(name, degree)[1]

    def contains(self, name, form):
        return self.engine.in_space(_grading(name), form,
                                    lambda *degree: self.get(name, degree)[0])


def _grading(name):
    """The theory whose grading the named space follows."""
    return "aeppli" if name == "abc" else name


def _first_violation(spaces, sweep):
    """First pair of basis forms, degree pairs then basis pairs in
    canonical order, whose product leaves the target space; None after a
    clean sweep.  Degree pairs whose sum has no basis are skipped: every
    product there is zero."""
    degrees = spaces.engine.degrees(_grading(sweep.target))
    present = set(degrees)
    for left in degrees:
        for right in degrees:
            if tuple(a + b for a, b in zip(left, right)) not in present:
                continue
            lefts = spaces.forms(sweep.left, left)
            rights = spaces.forms(sweep.right, right) if lefts else ()
            for a in lefts:
                for b in rights:
                    prod = a.wedge(b)
                    if not spaces.contains(sweep.target, prod):
                        return Witness(a, b, sweep.equation, prod)
    return None


def _closure_violation(spaces):
    """First basis form of ℋ_A + ℋ_BC whose ∂ or ∂̄ leaves the span,
    bidegree order then basis order, as a witness paired with 1."""
    engine = spaces.engine
    for degree in engine.degrees("aeppli"):
        for f in spaces.forms("abc", degree):
            for which in ("del", "dbar"):
                image = engine._derive(which, f)
                if not spaces.contains("abc", image):
                    return Witness(f, engine.spec.one(),
                                   "%s-closure" % which, image)
    return None


def check_formality(engine, notion):
    """Decide one geometric-formality notion for the engine's metric."""
    if notion not in SWEEPS:
        raise ValueError("unknown formality notion %r" % notion)
    spaces = _Spaces(engine)
    witness = _closure_violation(spaces) if notion == "geom_abc" else None
    if witness is None:
        witness = _first_violation(spaces, SWEEPS[notion])
    if notion != "geom_aeppli":
        return FormalityReport(notion, witness is None, witness)
    # Aeppli also asks ℋ_BC = ℋ_A; the verdict is the conjunction
    equal = all(engine.harmonic_space("bott_chern", *degree).space.equals(
                    engine.harmonic_space("aeppli", *degree).space)
                for degree in engine.degrees("aeppli"))
    return FormalityReport(
        notion, witness is None and equal, witness,
        sub_verdicts={"module_condition": witness is None,
                      "bc_equals_aeppli": equal})


def check_all(engine):
    return {notion: check_formality(engine, notion) for notion in NOTIONS}


def holomorphic_closedness_obstruction(engine):
    """A dbar-closed (p, 0) form with del != 0, if one exists.

    Such a witness rules out geometric Bott-Chern formality for EVERY
    inner product on the model, not just the engine's.
    """
    from .linalg import kernel_basis
    from .model import Form

    for p in range(1, engine.spec.n + 1):
        basis = engine.basis(p, 0)
        if not basis:
            continue
        ker = kernel_basis(engine.matrix("dbar", p, 0))
        for v in ker.basis:
            f = Form(engine.spec, {m: c for m, c in zip(basis, v) if c})
            if not engine._derive("del", f).is_zero():
                return f
    return None

