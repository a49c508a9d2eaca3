"""Geometric-formality decisions by exhaustive harmonic-basis products.

Each notion asks that wedge products of harmonic forms stay inside the
relevant harmonic space.  All checks run over explicit bases, so by
bilinearity a clean sweep decides the notion for the whole space; the
first violation in canonical order becomes the witness.
"""

from __future__ import annotations

from .linalg import Subspace

NOTIONS = ("geom_dolbeault", "geom_bott_chern", "geom_abc",
           "geom_aeppli", "geom_de_rham")

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

    def describe(self, ascii_only=False):
        return "(%s) ^ (%s) violates %s: product %s" % (
            self.left.pretty(ascii_only), self.right.pretty(ascii_only),
            self.equation, self.product.pretty(ascii_only))


class FormalityReport:
    def __init__(self, notion, verdict, witness=None, sub_verdicts=None):
        self.notion = notion
        self.verdict = verdict
        self.witness = witness
        self.sub_verdicts = dict(sub_verdicts or {})
        self.note = CN_NOTE

    def __repr__(self):
        return "FormalityReport(%s, %s)" % (self.notion, self.verdict)


def _bidegree_pairs(engine):
    """All ordered bidegree pairs with nonempty bases, canonical order."""
    bids = [bid for bid in engine.spec.bidegrees() if engine.basis(*bid)]
    for a in bids:
        for b in bids:
            yield a, b


def _product_sweep(engine, theory):
    """First pair of `theory`-harmonic basis forms with non-harmonic
    product, or None after a clean sweep."""
    for (p, q), (r, s) in _bidegree_pairs(engine):
        if p + r > engine.spec.n or q + s > engine.spec.n:
            continue
        left_basis = engine.harmonic_space(theory, p, q)
        right_basis = engine.harmonic_space(theory, r, s)
        for a in left_basis:
            for b in right_basis:
                prod = a.wedge(b)
                if not engine.is_harmonic(theory, prod):
                    return Witness(a, b, "%s-harmonicity" % theory, prod)
    return None


def _abc_spaces(engine):
    """Per-bidegree sum ℋ_A + ℋ_BC: coordinate subspace and forms."""
    spaces = {}
    for bid in engine.spec.bidegrees():
        if not engine.basis(*bid):
            continue
        a = engine.harmonic_space("aeppli", *bid)
        bc = engine.harmonic_space("bott_chern", *bid)
        span = Subspace(a.space.ambient, a.space.basis + bc.space.basis)
        spaces[bid] = (span, a.forms + bc.forms)
    return spaces


def _in_abc_space(engine, spaces, form):
    if form.is_zero():
        return True
    bid = form.bidegree()
    if bid not in spaces:
        return False
    return spaces[bid][0].contains(engine.coords(form, *bid))


def check_formality(engine, notion):
    """Decide one geometric-formality notion for the engine's metric."""
    if notion == "geom_dolbeault":
        w = _product_sweep(engine, "dolbeault")
        return FormalityReport(notion, w is None, w)
    if notion == "geom_bott_chern":
        w = _product_sweep(engine, "bott_chern")
        return FormalityReport(notion, w is None, w)
    if notion == "geom_abc":
        return _check_abc(engine)
    if notion == "geom_aeppli":
        return _check_aeppli(engine)
    if notion == "geom_de_rham":
        return _check_de_rham(engine)
    raise ValueError("unknown formality notion %r" % notion)


def check_all(engine):
    return {notion: check_formality(engine, notion) for notion in NOTIONS}


def _check_abc(engine):
    """ℋ_A + ℋ_BC closed under ∂, ∂̄ and ∧."""
    spaces = _abc_spaces(engine)
    one = engine.spec.one()
    # derivation closure, bidegree order then generator order
    for bid in sorted(spaces):
        for f in spaces[bid][1]:
            for which, label in (("del", "del-closure"),
                                 ("dbar", "dbar-closure")):
                image = engine._derive(which, f)
                if not _in_abc_space(engine, spaces, image):
                    return FormalityReport(
                        "geom_abc", False,
                        Witness(f, one, label, image))
    for (p, q), (r, s) in _bidegree_pairs(engine):
        if p + r > engine.spec.n or q + s > engine.spec.n:
            continue
        for a in spaces[(p, q)][1]:
            for b in spaces[(r, s)][1]:
                prod = a.wedge(b)
                if not _in_abc_space(engine, spaces, prod):
                    return FormalityReport(
                        "geom_abc", False,
                        Witness(a, b, "wedge-closure of H_A + H_BC", prod))
    return FormalityReport("geom_abc", True)


def _check_aeppli(engine):
    """Module condition (ℋ_A · ℋ_BC ⊆ ℋ_A) and ℋ_BC = ℋ_A, reported
    separately; the verdict is their conjunction."""
    module_witness = None
    for (p, q), (r, s) in _bidegree_pairs(engine):
        if module_witness is not None:
            break
        if p + r > engine.spec.n or q + s > engine.spec.n:
            continue
        for a in engine.harmonic_space("aeppli", p, q):
            for b in engine.harmonic_space("bott_chern", r, s):
                prod = a.wedge(b)
                if not engine.is_harmonic("aeppli", prod):
                    module_witness = Witness(
                        a, b, "aeppli-harmonicity of H_A * H_BC", prod)
                    break
            if module_witness is not None:
                break
    spaces_equal = True
    for bid in engine.spec.bidegrees():
        if not engine.basis(*bid):
            continue
        bc = engine.harmonic_space("bott_chern", *bid).space
        if not bc.equals(engine.harmonic_space("aeppli", *bid).space):
            spaces_equal = False
            break
    verdict = module_witness is None and spaces_equal
    return FormalityReport(
        "geom_aeppli", verdict, module_witness,
        sub_verdicts={"module_condition": module_witness is None,
                      "bc_equals_aeppli": spaces_equal})


def _check_de_rham(engine):
    n = engine.spec.n
    for j in range(0, 2 * n + 1):
        for k in range(0, 2 * n + 1 - j):
            for a in engine.de_rham_harmonic(j):
                for b in engine.de_rham_harmonic(k):
                    prod = a.wedge(b)
                    if not engine.is_harmonic("de_rham", prod):
                        return FormalityReport(
                            "geom_de_rham", False,
                            Witness(a, b, "de-rham-harmonicity", prod))
    return FormalityReport("geom_de_rham", True)


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


def ddbar_p0_report(engine):
    """Per-p equality of edge harmonic spaces.

    For each p: ℋ_BC^{p,0} = ℋ_∂̄^{p,0} and its three companions under
    conjugation and star.
    """
    n = engine.spec.n

    def space(theory, p, q):
        return engine.harmonic_space(theory, p, q).space

    report = {}
    for p in range(0, n + 1):
        report[p] = {
            "bc_p0_eq_dbar": space("bott_chern", p, 0).equals(
                space("dolbeault", p, 0)),
            "bc_0p_eq_del": space("bott_chern", 0, p).equals(
                space("conj_dolbeault", 0, p)),
            "a_top_eq_dbar": space("aeppli", n, n - p).equals(
                space("dolbeault", n, n - p)),
            "a_top_eq_del": space("aeppli", n - p, n).equals(
                space("conj_dolbeault", n - p, n)),
        }
    return report
