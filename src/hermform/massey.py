"""Triple ABC-Massey products with exact indeterminacy.

Given Bott-Chern harmonic alpha, beta, gamma, the product needs
potentials f with del dbar f = (sign) * wedge; the representative

    (-1)^{p+q} alpha ^ f_bg  -  (-1)^{r+s} f_ab ^ gamma

is del-dbar-closed, so it has an Aeppli class.  The product is the coset
of that class modulo classes of alpha ^ (Aeppli-harmonic) and
(Aeppli-harmonic) ^ gamma; it is "nonzero" when the coset misses zero.
"""

from __future__ import annotations

from . import linalg
from .calculus import NotClosedError
from .linalg import Subspace
from .model import Form, ModelError
from .scalars import GaussianRational

MINUS_ONE = GaussianRational(-1)


class PotentialError(ValueError):
    """The del-dbar equation has no solution: product undefined."""


def _parity_sign(p, q):
    return MINUS_ONE if (p + q) % 2 else GaussianRational(1)


def solve_potential(engine, target):
    """Minimum-norm f with del dbar f = target (target homogeneous).

    Deterministic: row-reduced particular solution projected off the
    kernel in the weighted inner product.
    """
    if target.is_zero():
        return engine.spec.zero()
    bid = target.bidegree()
    if bid is None:
        raise ModelError("potential target is not bidegree-homogeneous")
    p, q = bid
    if p < 1 or q < 1:
        raise PotentialError("no (p-1, q-1) source space for bidegree %s"
                             % (bid,))
    m = engine.ddbar_matrix(p - 1, q - 1)
    rhs = engine.coords(target, p, q)
    x = linalg.min_norm_solve(m, rhs, engine.weights(p - 1, q - 1))
    if x is None:
        raise PotentialError("target is not del-dbar-exact at %s" % (bid,))
    basis = engine.basis(p - 1, q - 1)
    return Form(engine.spec, {mono: c for mono, c in zip(basis, x) if c})


class MasseyVerdict:
    """Result of one triple product."""

    def __init__(self, representative, harmonic_projection, aeppli_class,
                 indeterminacy, nonzero, bidegree):
        self.representative = representative
        self.harmonic_projection = harmonic_projection
        self.aeppli_class = aeppli_class
        self.indeterminacy = indeterminacy
        self.nonzero = nonzero
        self.bidegree = bidegree

    def __repr__(self):
        return "MasseyVerdict(nonzero=%s, bidegree=%s)" % (
            self.nonzero, self.bidegree)


def _harmonic_form(engine, theory, bid, coords):
    space = engine.harmonic_space(theory, *bid)
    out = engine.spec.zero()
    for c, f in zip(coords, space.forms):
        if c:
            out = out + f * c
    return out


def triple_abc_massey(engine, alpha, beta, gamma,
                      f_ab=None, f_bg=None):
    """Compute the triple ABC-Massey product of BC-harmonic inputs.

    Optional explicit potentials override the minimum-norm choice (the
    defining equations are still verified); the nonzero verdict never
    depends on the choice.
    """
    for name, form in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not engine.is_harmonic("bott_chern", form):
            raise NotClosedError("%s is not Bott-Chern harmonic" % name)
    p, q = alpha.bidegree()
    r, s = beta.bidegree()
    u, v = gamma.bidegree()
    sign_ab = _parity_sign(p, q)
    sign_bg = _parity_sign(r, s)
    if f_ab is None:
        f_ab = solve_potential(engine, alpha.wedge(beta) * sign_ab)
    if f_bg is None:
        f_bg = solve_potential(engine, beta.wedge(gamma) * sign_bg)
    for f, target in ((f_ab, alpha.wedge(beta) * sign_ab),
                      (f_bg, beta.wedge(gamma) * sign_bg)):
        got = engine._derive("del", engine._derive("dbar", f))
        if not got.equals(target):
            raise PotentialError("supplied potential fails its equation")
    rep = alpha.wedge(f_bg) * sign_ab - f_ab.wedge(gamma) * sign_bg
    bid = (p + r + u - 1, q + s + v - 1)
    if rep.is_zero():
        space = engine.harmonic_space("aeppli", *bid)
        cls = [GaussianRational(0)] * space.dim
    else:
        if rep.bidegree() != bid:
            raise ModelError("representative bidegree %s, expected %s"
                             % (rep.bidegree(), bid))
        cls = engine.class_of(rep, "aeppli")
    space = engine.harmonic_space("aeppli", *bid)
    projection = _harmonic_form(engine, "aeppli", bid, cls)
    indet_vectors = []
    for xi in engine.harmonic_space("aeppli", (r + u - 1), (s + v - 1)):
        prod = alpha.wedge(xi)
        indet_vectors.append(
            engine.class_of(prod, "aeppli") if not prod.is_zero()
            else [GaussianRational(0)] * space.dim)
    for zeta in engine.harmonic_space("aeppli", (p + r - 1), (q + s - 1)):
        prod = zeta.wedge(gamma)
        indet_vectors.append(
            engine.class_of(prod, "aeppli") if not prod.is_zero()
            else [GaussianRational(0)] * space.dim)
    indet = Subspace(space.dim, indet_vectors)
    nonzero = not indet.contains(cls)
    return MasseyVerdict(rep, projection, cls, indet, nonzero, bid)


def verify_appendix_case(case_id, parameters=None):
    """Check one listed product: verdict must be nonzero and the Aeppli
    projection must match the listed representative up to a nonzero
    scalar.  Returns (ok, report dict)."""
    from . import catalog

    alpha, beta, gamma, listed, engine = catalog.massey_case(
        case_id, parameters)
    verdict = triple_abc_massey(engine, alpha, beta, gamma)
    listed_cls = engine.class_of(listed, "aeppli")
    listed_proj = _harmonic_form(engine, "aeppli", verdict.bidegree,
                                 listed_cls)
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
