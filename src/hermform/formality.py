"""Geometric-formality decisions by products of harmonic bases.

Each notion asks that wedge products of harmonic forms stay inside the
relevant harmonic space.  SWEEPS records, per notion, the left factors
L and the right factors R; the target space T is L in every notion.
Products of basis forms are taken as sparse coordinate rows, the
harmonic spaces' own rows, through the engine's product table for each
pair of degrees, and Forms are built only for a witness.

A true verdict needs only |L|·|S| products, for a set S of basis forms
of R built going up in total degree: S takes each basis form of R that
the products r·s, r in R of lower positive degree and s in S, do not
span.  Then (ii) R lies in alg(S), the span of the unit and the words
in S.  If also (i) every l·s, l in L and s in S, lies in T, then
L·R ⊆ T, by induction on word length: l·(s₁…s_k) = (l·s₁…s_{k−1})·s_k,
where l·s₁…s_{k−1} lies in T = L.  Dolbeault, Bott-Chern, de Rham and
ABC have L = R = T, so the products of (i) are those of (ii).  For the
Aeppli module condition ℋ_A·ℋ_BC ⊆ ℋ_A, S generates ℋ_BC, the products
r·s of (ii) are only spanned, and (i) asks ℋ_A·S ⊆ ℋ_A.  The induction
needs degree 0 to hold only the unit.

Every false verdict and every witness comes from the canonical scan
instead: all pairs of basis forms, degree pairs then basis pairs, whose
first product outside T is the witness.  It runs when degree 0 holds
more than the unit, and when (i) fails.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple

from .calculus import SHIFT, AssemblyError, _add
from .linalg import Echelon, Subspace
from .model import _once

# A notion holds when every product of a left basis form with a right
# basis form lies in the left space again.  A space is named by its
# theory, or "abc" for the per-bidegree span ℋ_A + ℋ_BC; `equation`
# labels the witness.
Sweep = namedtuple("Sweep", ["left", "right", "equation"])

SWEEPS = {
    "geom_dolbeault": Sweep("dolbeault", "dolbeault",
                            "dolbeault-harmonicity"),
    "geom_bott_chern": Sweep("bott_chern", "bott_chern",
                             "bott_chern-harmonicity"),
    "geom_abc": Sweep("abc", "abc", "wedge-closure of H_A + H_BC"),
    "geom_aeppli": Sweep("aeppli", "bott_chern",
                         "aeppli-harmonicity of H_A * H_BC"),
    "geom_de_rham": Sweep("de_rham", "de_rham", "de-rham-harmonicity"),
}

NOTIONS = tuple(SWEEPS)

CN_NOTE = ("pointwise-constant norms hold automatically for invariant "
           "forms on the model")


class UnknownNotionError(ValueError):
    """A formality notion outside SWEEPS."""


# A violating pair: the wedge `product` of the two forms breaks `equation`.
Witness = namedtuple("Witness", ["left", "right", "equation", "product"])


class FormalityReport:
    def __init__(self, notion, verdict, witness=None, sub_verdicts=None):
        self.notion = notion
        self.verdict = verdict
        self.witness = witness
        self.sub_verdicts = dict(sub_verdicts or {})
        self.note = CN_NOTE

    def __repr__(self):
        return "FormalityReport(%s, %s)" % (self.notion, self.verdict)


# One space at one degree: its Subspace, and the sparse rows that the
# canonical scan walks, the RREF rows for a theory.  "abc" walks ℋ_A's
# rows, then those of ℋ_BC that ℋ_A's lack: a repeated row's products
# repeat those of its first occurrence, so it is never the first witness.
_Space = namedtuple("_Space", ["space", "rows"])


class _Spaces:
    """The spaces a check reads, by name and degree, built on first use."""

    def __init__(self, engine):
        self.engine = engine
        self._memo = defaultdict(dict)

    @_once
    def get(self, name, degree):
        if name != "abc":
            space = self.engine.harmonic_space(name, *degree).space
            return _Space(space, space.rows)
        a = self.engine.harmonic_space("aeppli", *degree).space
        bc = self.engine.harmonic_space("bott_chern", *degree).space
        a_rows = a.rows
        rows = a_rows + [row for row in bc.rows if row not in a_rows]
        return _Space(Subspace._from_rows(a.ambient, rows), rows)


def _grading(name):
    """The theory whose grading the named space follows."""
    return "aeppli" if name == "abc" else name


def _generator_set(spaces, sweep):
    """(holds, S) for the argument in the module docstring.  holds is
    True when (i) and (ii) hold, with S as (degree, position among the
    RREF rows of the right space) pairs; False when a product of (i)
    leaves the target; None when degree 0 holds more than the unit."""
    engine = spaces.engine
    degrees = engine.degrees(_grading(sweep.left))
    zero = (0,) * len(degrees[0])
    if engine.basis(*zero) != [(0,) * len(engine.spec.generators)]:
        return None, []
    present = set(degrees)
    positive = sorted((d for d in degrees if d != zero), key=sum)
    same = sweep.left == sweep.right
    # for (ii): the span of the products r·s landing at each degree
    spanned = {d: Echelon() for d in positive}
    found = []
    for degree in positive:
        span = spanned.pop(degree)
        rows = spaces.get(sweep.right, degree).space.rows
        kept = [k for k, row in enumerate(rows) if span.add(row)]
        if not kept:
            continue
        found.extend((degree, k) for k in kept)
        gens = [rows[k] for k in kept]
        for other in degrees:
            total = _add(other, degree)
            # with L = R, 1·s = s lies in T already
            if total not in present or (same and other == zero):
                continue
            target = spaces.get(sweep.left, total).space
            span = spanned.get(total)
            for a in spaces.get(sweep.left, other).space.rows:
                for s in gens:
                    row = engine.wedge_row(a, other, s, degree)
                    if row and not target.contains_row(row):
                        return False, found
                    # with L = R this is a product of (ii), inside R
                    if same and row and len(span) < target.dim:
                        span.add(row)
            if not same and other != zero:
                for r in spaces.get(sweep.right, other).space.rows:
                    for s in gens:
                        span.add(engine.wedge_row(r, other, s, degree))
    return True, found


def _first_violation(spaces, sweep):
    """First pair of basis forms, degree pairs then basis pairs in
    canonical order, whose product leaves the target space; None after a
    clean scan.  Degree pairs whose sum has no basis are skipped: every
    product there is zero."""
    engine = spaces.engine
    degrees = engine.degrees(_grading(sweep.left))
    present = set(degrees)
    for left in degrees:
        for right in degrees:
            total = _add(left, right)
            if total not in present:
                continue
            lefts = spaces.get(sweep.left, left).rows
            rights = spaces.get(sweep.right, right).rows if lefts else ()
            for a in lefts:
                for b in rights:
                    row = engine.wedge_row(a, left, b, right)
                    if row and not spaces.get(
                            sweep.left, total).space.contains_row(row):
                        return Witness(engine.form(a, *left),
                                       engine.form(b, *right),
                                       sweep.equation,
                                       engine.form(row, *total))
    return None


def _closure_violation(spaces):
    """First basis form of ℋ_A + ℋ_BC whose ∂ or ∂̄ leaves the span,
    bidegree order then basis order, as a witness paired with 1."""
    engine = spaces.engine
    for degree in engine.degrees("aeppli"):
        abc = spaces.get("abc", degree)
        images = {which: engine.matrix(which, *degree).mul_rows(abc.rows)
                  for which in ("del", "dbar")}
        for k, row in enumerate(abc.rows):
            for which in ("del", "dbar"):
                image = images[which][k]
                target = _add(degree, SHIFT[which])
                if image and not spaces.get(
                        "abc", target).space.contains_row(image):
                    return Witness(engine.form(row, *degree),
                                   engine.spec.one(),
                                   "%s-closure" % which,
                                   engine.form(image, *target))
    return None


def check_formality(engine, notion):
    """Decide one geometric-formality notion for the engine's metric."""
    if notion not in SWEEPS:
        raise UnknownNotionError("unknown formality notion %r" % notion)
    sweep = SWEEPS[notion]
    spaces = _Spaces(engine)
    witness = _closure_violation(spaces) if notion == "geom_abc" else None
    if witness is None:
        holds = _generator_set(spaces, sweep)[0]
        if not holds:
            witness = _first_violation(spaces, sweep)
            if witness is None and holds is False:
                raise AssemblyError(
                    "%s: a generator product leaves the target space but "
                    "the canonical scan finds no violation" % notion)
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
    for p in range(1, engine.spec.n + 1):
        if not engine.basis(p, 0):
            continue
        rows = engine.harmonic_space("dolbeault", p, 0).space.rows
        for row, image in zip(rows, engine.matrix("del", p, 0).mul_rows(rows)):
            if image:
                return engine.form(row, p, 0)
    return None
