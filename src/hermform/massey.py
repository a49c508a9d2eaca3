"""Triple ABC-Massey products with exact indeterminacy.

Given Bott-Chern harmonic alpha, beta, gamma, the product needs
potentials f with del dbar f = (sign) * wedge; the representative

    (-1)^{p+q} alpha ^ f_bg  -  (-1)^{r+s} f_ab ^ gamma

is del-dbar-closed, so it has an Aeppli class.  The product is the coset
of that class modulo classes of alpha ^ (Aeppli-harmonic) and
(Aeppli-harmonic) ^ gamma; it is "nonzero" when the coset misses zero.

Every product is the engine's `wedge_row` on sparse coordinate rows: the
rows that the inputs' harmonicity test reads, and the potentials' rows.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg
from .calculus import NotClosedError
from .linalg import Subspace
from .model import ModelError
from .scalars import MINUS_ONE


class PotentialError(ValueError):
    """The del-dbar equation has no solution: product undefined."""


def _potential(engine, target, bid):
    """Minimum-norm f with del dbar f = target, for a sparse row target
    on the basis of bid = (p, q); f is a sparse row on the basis of
    (p-1, q-1).

    Unique, so deterministic; the engine's solver for (p-1, q-1) gives
    it with no elimination and checks it.
    """
    if not target:
        return {}
    p, q = bid
    if p < 1 or q < 1:
        raise PotentialError("no (p-1, q-1) source space for bidegree %s"
                             % (bid,))
    f = engine.min_norm_solver(p - 1, q - 1).solve(target)
    if f is None:
        raise PotentialError("target is not del-dbar-exact at %s" % (bid,))
    return f


def solve_potential(engine, target):
    """Minimum-norm f with del dbar f = target (target homogeneous)."""
    if target.is_zero():
        return engine.spec.zero()
    bid = target.bidegree()
    if bid is None:
        raise ModelError("potential target is not bidegree-homogeneous")
    p, q = bid
    return engine.form(_potential(engine, engine.row(target.components, p, q),
                                  bid), p - 1, q - 1)


class MasseyVerdict(namedtuple("MasseyVerdict", [
        "representative", "harmonic_projection", "aeppli_class",
        "indeterminacy", "nonzero", "bidegree"])):
    """Result of one triple product."""

    __slots__ = ()

    def __repr__(self):
        return "MasseyVerdict(nonzero=%s, bidegree=%s)" % (
            self.nonzero, self.bidegree)


def _signed(row, p, q):
    """The sparse row of (-1)^(p+q) times the sparse row."""
    return {j: -c for j, c in row.items()} if (p + q) % 2 else row


def _potential_row(engine, f, target, bid):
    """The sparse row of a potential for the sparse row target at bid:
    the minimum-norm one, or the Form f when given, which must lie on the
    source's basis.  Either way del dbar of it must give target."""
    src = (bid[0] - 1, bid[1] - 1)
    if f is None:
        row = _potential(engine, target, bid)
    else:
        try:
            row = engine.row(f.components, *src)
        except ModelError:
            row = None
        # a zero potential needs no block, which may lie outside the model
        if row is None or (row and engine.matrix("ddbar", *src).mul_rows(
                [row])[0]) != target:
            raise PotentialError("supplied potential fails its equation")
    return row


def triple_abc_massey(engine, alpha, beta, gamma,
                      f_ab=None, f_bg=None):
    """Compute the triple ABC-Massey product of BC-harmonic inputs.

    Optional explicit potentials override the minimum-norm choice (the
    defining equations are still verified); the nonzero verdict never
    depends on the choice.
    """
    bids, rows = [], []
    for name, form in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if form.is_zero():
            raise ModelError("%s is zero, which has no bidegree" % name)
        bid = form.bidegree()
        row = None if bid is None else engine.row(form.components, *bid)
        if row is None or not engine.harmonic_space(
                "bott_chern", *bid).space.contains_row(row):
            raise NotClosedError("%s is not Bott-Chern harmonic" % name)
        bids.append(bid)
        rows.append(row)
    (p, q), (r, s), (u, v) = da, db, dc = bids
    # a = (-1)^(p+q) alpha and c = (-1)^(r+s) gamma carry the signs of
    # both targets and of the representative
    a, b, c = _signed(rows[0], p, q), rows[1], _signed(rows[2], r, s)
    # the bidegrees of the potentials and of the product
    fab, fbg = (p + r - 1, q + s - 1), (r + u - 1, s + v - 1)
    bid = (p + r + u - 1, q + s + v - 1)
    f_ab = _potential_row(engine, f_ab, engine.wedge_row(a, da, b, db),
                          (p + r, q + s))
    f_bg = _potential_row(engine, f_bg, engine.wedge_row(b, db, c, dc),
                          (r + u, s + v))
    rep = linalg.axpy(engine.wedge_row(a, da, f_bg, fbg), MINUS_ONE,
                      engine.wedge_row(f_ab, fab, c, dc))
    cls, projection = engine.class_row("aeppli", rep, *bid)
    products = ([engine.wedge_row(rows[0], da, xi, fbg)
                 for xi in engine.harmonic_space("aeppli", *fbg).space.rows]
                + [engine.wedge_row(zeta, fab, rows[2], dc)
                   for zeta in engine.harmonic_space(
                       "aeppli", *fab).space.rows])
    own, *spanning = [{j: c for j, c in enumerate(x) if c} for x in [cls] + [
        engine.class_row("aeppli", row, *bid)[0] for row in products if row]]
    indet = Subspace._from_rows(len(cls), spanning)
    nonzero = not indet.contains_row(own)
    return MasseyVerdict(engine.form(rep, *bid),
                         engine.form(projection, *bid),
                         cls, indet, nonzero, bid)


def verify_appendix_case(case_id, parameters=None):
    """Check one listed product: verdict must be nonzero and the Aeppli
    projection must match the listed representative up to a nonzero
    scalar.  Returns (ok, report dict)."""
    from . import catalog

    alpha, beta, gamma, listed, engine = catalog.massey_case(
        case_id, parameters)
    verdict = triple_abc_massey(engine, alpha, beta, gamma)
    bid = verdict.bidegree
    listed_proj = engine.form(engine.class_row(
        "aeppli", engine.row(listed.components, *bid), *bid)[1], *bid)
    matches = (not listed_proj.is_zero()
               and verdict.harmonic_projection.is_multiple_of(listed_proj))
    ok = verdict.nonzero and matches
    report = {
        "case": case_id,
        "parameters": dict(parameters or {}),
        "nonzero": verdict.nonzero,
        "matches_listed": matches,
        "bidegree": verdict.bidegree,
        "representative": verdict.representative.pretty(True),
        "projection": verdict.harmonic_projection.pretty(True),
        "listed_projection": listed_proj.pretty(True),
        "indeterminacy_dim": verdict.indeterminacy.dim,
    }
    return ok, report
