"""Built-in model library.

Identifiers:
    torus:N           complex torus, N holomorphic generators
    nakamura:CASE     complex parallelisable solvable models (III.2 ...
                      V.17); V.17 takes parameters alpha, beta with
                      alpha*beta*(1+alpha+beta) != 0
    iwasawa           alias for nakamura:III.2
    ce:u=U,v=V        Calabi-Eckmann model (truncation-1 generators are
                      dropped)
    example1:invariant  Iwasawa model + the order-4 diagonal action
                      whose invariants model the sigma-quotient

Parameters come as `name=value` chunks, from an identifier's suffix or
from --param, and `parse_parameters` reads both alike.  A parameter
that the identifier does not take is a CatalogError.  `engine` is the
one place that turns an identifier into a HodgeEngine.

Holomorphic generators are named p1..pn with conjugates q1..qn, so the
classical phi^{3 1-2-3-bar} reads p3*q1*q2*q3 here.
"""

from __future__ import annotations

import re

from .calculus import HodgeEngine
from .model import DiagonalAction, GeneratorSpec, ModelSpec, invariant_submodel
from .scalars import GaussianRational, I, ONE, parse_scalar


class CatalogError(ValueError):
    """Unknown identifier or invalid parameters."""


# -- builders ----------------------------------------------------------

def parallelisable(name, n, structure, parameters=None):
    """Complex parallelisable model: p1..pn of bidegree (1,0), del given
    by `structure`: {k: [(coeff, i, j), ...]} meaning
    del p_k = sum coeff * p_i p_j; dbar vanishes on p's and is forced on
    q's by conjugation."""
    gens = []
    for k in range(1, n + 1):
        gens.append(GeneratorSpec("p%d" % k, (1, 0), 2, "q%d" % k))
    for k in range(1, n + 1):
        gens.append(GeneratorSpec("q%d" % k, (0, 1), 2, "p%d" % k))

    def mono(names):
        exps = [0] * (2 * n)
        for nm in names:
            idx = (int(nm[1:]) - 1) + (n if nm[0] == "q" else 0)
            exps[idx] += 1
        return tuple(exps)

    del_a, dbar_a = {}, {}
    for k, terms in structure.items():
        comp_p, comp_q = {}, {}
        for coeff, i, j in terms:
            coeff = GaussianRational.of(coeff)
            comp_p[mono(["p%d" % i, "p%d" % j])] = coeff
            comp_q[mono(["q%d" % i, "q%d" % j])] = coeff.conjugate()
        del_a["p%d" % k] = comp_p
        dbar_a["q%d" % k] = comp_q
    return ModelSpec(name, n, gens, del_a, dbar_a, parameters)


def torus(n):
    if n < 1:
        raise CatalogError("torus dimension must be >= 1")
    return parallelisable("torus:%d" % n, n, {})


# Appendix structure constants: case -> (n, {k: [(coeff, i, j), ...]})
_NAKAMURA = {
    "III.2": (3, {3: [(-1, 1, 2)]}),
    "III.3": (3, {2: [(-1, 1, 2)], 3: [(1, 1, 3)]}),
    "IV.2": (4, {4: [(-1, 2, 3)]}),
    "IV.3": (4, {3: [(-1, 1, 2)], 4: [(-2, 1, 3)]}),
    "IV.4": (4, {3: [(1, 2, 3)], 4: [(-1, 2, 4)]}),
    "IV.6": (4, {2: [(1, 1, 2)], 3: [(-1, 1, 3)], 4: [(-1, 2, 3)]}),
    "V.2": (5, {5: [(1, 3, 4)]}),
    "V.3": (5, {5: [(-1, 1, 3), (-1, 2, 4)]}),
    "V.4": (5, {4: [(-1, 1, 2)], 5: [(-1, 1, 3)]}),
    "V.5": (5, {4: [(-1, 2, 3)], 5: [(-2, 2, 4)]}),
    "V.6": (5, {4: [(-1, 1, 2)], 5: [(-2, 1, 4), (-1, 2, 3)]}),
    "V.7": (5, {4: [(1, 3, 4)], 5: [(-1, 3, 5)]}),
    "V.8": (5, {3: [(-1, 1, 2)], 4: [(-2, 1, 3)], 5: [(-2, 2, 3)]}),
    "V.9": (5, {3: [(-1, 1, 2)], 4: [(-2, 1, 3)], 5: [(-3, 1, 4)]}),
    "V.10": (5, {3: [(-1, 1, 2)], 4: [(-2, 1, 3)],
                 5: [(-3, 1, 4), (-1, 2, 3)]}),
    "V.12": (5, {3: [(1, 1, 3)], 4: [(1, 2, 4)],
                 5: [(-1, 1, 5), (-1, 2, 5)]}),
    "V.15": (5, {3: [(1, 2, 3)], 4: [(-1, 2, 4)], 5: [(-1, 3, 4)]}),
}


def _takes(identifier, parameters, names=()):
    """Refuse a parameter that the identifier does not take."""
    extra = sorted(set(parameters or ()) - set(names))
    if extra:
        raise CatalogError("%s takes no parameter %s"
                           % (identifier, ", ".join(map(repr, extra))))


def nakamura(case, parameters=None):
    _takes("nakamura:%s" % case, parameters,
           ("alpha", "beta") if case == "V.17" else ())
    if case == "V.17":
        return _nakamura_v17(parameters)
    if case not in _NAKAMURA:
        raise CatalogError("unknown nakamura case %r" % case)
    n, structure = _NAKAMURA[case]
    return parallelisable("nakamura:%s" % case, n, structure)


def _nakamura_v17(parameters):
    params = dict(parameters or {})
    try:
        alpha = GaussianRational.of(params["alpha"])
        beta = GaussianRational.of(params["beta"])
    except KeyError as e:
        raise CatalogError("nakamura:V.17 needs parameter %s" % e)
    if not (alpha * beta * (ONE + alpha + beta)):
        raise CatalogError(
            "V.17 constraint alpha*beta*(1+alpha+beta) != 0 violated")
    structure = {2: [(1, 1, 2)], 3: [(alpha, 1, 3)], 4: [(beta, 1, 4)],
                 5: [(-(ONE + alpha + beta), 1, 5)]}
    return parallelisable("nakamura:V.17", 5, structure,
                          {"alpha": alpha, "beta": beta})


def calabi_eckmann(u, v):
    """The M_{u,v} model: phi (1,0), phib (0,1), w1, w2 of bidegree
    (1,1) with truncations u+1, v+1; generators with truncation 1 are
    dropped and their occurrences in the differentials with them."""
    if u < 0 or v < 0:
        raise CatalogError("ce requires u, v >= 0")
    n = u + v + 1
    gens = [GeneratorSpec("phi", (1, 0), 2, "phib"),
            GeneratorSpec("phib", (0, 1), 2, "phi")]
    keep_w1, keep_w2 = u >= 1, v >= 1
    if keep_w1:
        gens.append(GeneratorSpec("w1", (1, 1), u + 1, "w1"))
    if keep_w2:
        gens.append(GeneratorSpec("w2", (1, 1), v + 1, "w2"))

    index = {g.name: i for i, g in enumerate(gens)}

    def mono(name):
        exps = [0] * len(gens)
        exps[index[name]] = 1
        return tuple(exps)

    # dbar phi = w1 - i w2, del phib = w1 + i w2 (surviving terms only)
    dbar_phi = {}
    del_phib = {}
    if keep_w1:
        dbar_phi[mono("w1")] = ONE
        del_phib[mono("w1")] = ONE
    if keep_w2:
        dbar_phi[mono("w2")] = -I
        del_phib[mono("w2")] = I
    spec = ModelSpec("ce:u=%d,v=%d" % (u, v), n, gens,
                     {"phib": del_phib} if del_phib else {},
                     {"phi": dbar_phi} if dbar_phi else {},
                     {"u": u, "v": v})
    return spec


def example1_action(spec):
    """The diagonal coframe action of the Example-1 automorphism on the
    Iwasawa model: (p1, p2, p3) -> (i p1, i p2, -p3)."""
    return DiagonalAction.from_map(spec, {
        "p1": I, "p2": I, "p3": GaussianRational(-1),
        "q1": -I, "q2": -I, "q3": GaussianRational(-1)})


# -- identifier dispatch -----------------------------------------------

def parse_parameters(chunks):
    """{name: value} from 'name=value' chunks, each value an int if it is
    [+-]?[0-9]+, else a Gaussian-rational literal: ['u=1', 'v=1/2'] ->
    {'u': 1, 'v': 1/2}."""
    out = {}
    for chunk in chunks or ():
        if "=" not in chunk:
            raise CatalogError("parameter %r is not name=value" % chunk)
        name, _, value = (part.strip() for part in chunk.partition("="))
        out[name] = (int(value) if re.fullmatch(r"[+-]?[0-9]+", value)
                     else parse_scalar(value))
    return out


def load_with_action(identifier, parameters=None):
    """Resolve an identifier to (ModelSpec, DiagonalAction-or-None)."""
    if (identifier in ("iwasawa", "example1:invariant")
            or identifier.startswith("torus:")):
        _takes(identifier, parameters)
    if identifier == "iwasawa":
        return nakamura("III.2"), None
    if identifier == "example1:invariant":
        spec = nakamura("III.2")
        return spec, example1_action(spec)
    if identifier.startswith("torus:"):
        try:
            n = int(identifier[len("torus:"):])
        except ValueError:
            raise CatalogError("bad torus dimension in %r" % identifier)
        return torus(n), None
    if identifier.startswith("nakamura:"):
        return nakamura(identifier[len("nakamura:"):], parameters), None
    if identifier.startswith("ce:"):
        merged = parse_parameters(identifier[len("ce:"):].split(","))
        merged.update(parameters or {})
        _takes("ce", merged, ("u", "v"))
        u, v = merged.get("u"), merged.get("v")
        if type(u) is not int or type(v) is not int:
            raise CatalogError("ce needs integer parameters u and v")
        return calabi_eckmann(u, v), None
    raise CatalogError("unknown catalog identifier %r" % identifier)


def load(identifier, parameters=None):
    return load_with_action(identifier, parameters)[0]


def ids():
    """All catalog identifiers (parametric families listed generically)."""
    out = ["torus:N", "iwasawa", "example1:invariant", "ce:u=U,v=V"]
    out += ["nakamura:%s" % c for c in sorted(_NAKAMURA) + ["V.17"]]
    return out


# The parameters V.17 runs with by default: the generic branch of the
# appendix and the beta = -1 one.
V17_RUNS = ({"alpha": 1, "beta": 1}, {"alpha": 1, "beta": -1})


def default_instances():
    """Concrete (identifier, parameters) list used by the test sweeps."""
    out = [("torus:1", None), ("torus:2", None), ("torus:3", None),
           ("iwasawa", None), ("example1:invariant", None),
           ("ce:u=0,v=1", None), ("ce:u=1,v=1", None), ("ce:u=1,v=2", None)]
    out += [("nakamura:%s" % case, None) for case in sorted(_NAKAMURA)]
    out += [("nakamura:V.17", run) for run in V17_RUNS]
    return out


# -- Appendix Massey data ----------------------------------------------
#
# case -> (alpha names, beta names, gamma names, listed Aeppli
# representative names).  Names index holomorphic generators (p) and
# conjugates (q).  The listed V.9 representative is corrected: the
# printed one has bidegree (1,3) while the product lives in (1,2); the
# equations restricted to p1..p3 coincide with IV.3, whose listed
# representative p3*q2*q3 is the forced one.
_MASSEY = {
    "III.2": (("p1", "p2"), ("q1", "q2"), ("q1", "q2"),
              ("p3", "q1", "q2", "q3")),
    "III.3": (("p1", "p2"), ("q1", "q2"), ("q1", "q3"),
              ("p2", "q1", "q2", "q3")),
    "IV.2": (("p2", "p3"), ("q2", "q3"), ("q2", "q3"),
             ("p4", "q2", "q3", "q4")),
    "IV.3": (("p1", "p2"), ("q1", "q2"), ("q2",),
             ("p3", "q2", "q3")),
    "IV.4": (("p2", "p3"), ("q2", "q3"), ("q2", "q4"),
             ("p3", "q2", "q3", "q4")),
    "IV.6": (("p2", "p3"), ("q2", "q3"), ("q2", "q3"),
             ("p4", "q2", "q3", "q4")),
    "V.2": (("p3", "p4"), ("q3", "q4"), ("q3", "q4"),
            ("p5", "q3", "q4", "q5")),
    "V.3": (("p1", "p2", "p4"), ("q1", "q2", "q4"), ("q2",),
            ("p1", "p5", "q1", "q2", "q5")),
    "V.4": (("p1", "p2"), ("q1", "q2"), ("q1", "q2"),
            ("p4", "q1", "q2", "q4")),
    "V.5": (("p2", "p3"), ("q2", "q3"), ("q3",),
            ("p4", "q3", "q4")),
    "V.6": (("p1", "p2"), ("q1", "q2"), ("q2",),
            ("p4", "q2", "q4")),
    "V.7": (("p3", "p4"), ("q3", "q4"), ("q3", "q5"),
            ("p4", "q3", "q4", "q5")),
    "V.8": (("p2", "p3"), ("q2", "q3"), ("q2",),
            ("p5", "q2", "q5")),
    "V.9": (("p1", "p2"), ("q1", "q2"), ("q2",),
            ("p3", "q2", "q3")),
    "V.10": (("p1", "p2", "p4", "p5"), ("q1", "q2", "q4", "q5"), ("q2",),
             ("p3", "p4", "p5", "q2", "q3", "q4", "q5")),
    "V.12": (("p2", "p3", "p5"), ("q2", "q3", "q5"), ("q2", "q4"),
             ("p3", "p5", "q2", "q3", "q4", "q5")),
    "V.15": (("p3", "p4"), ("q3", "q4"), ("q3", "q4"),
             ("p5", "q3", "q4", "q5")),
    # V.17 branches keyed separately
    "V.17:generic": (("p1", "p2", "p4"), ("q1", "q2", "q4"),
                     ("q1", "q3", "q5"),
                     ("p2", "p4", "q1", "q2", "q3", "q4", "q5")),
    "V.17:beta=-1": (("p1", "p2", "p3", "p4"), ("q1", "q2", "q3", "q4"),
                     ("q1", "q5"),
                     ("p2", "p3", "p4", "q1", "q2", "q3", "q4", "q5")),
}

APPENDIX_CASES = ("III.2", "III.3", "IV.2", "IV.3", "IV.4", "IV.6",
                  "V.2", "V.3", "V.4", "V.5", "V.6", "V.7", "V.8",
                  "V.9", "V.10", "V.12", "V.15", "V.17")

_ENGINE_CACHE = {}


def engine(identifier, parameters=None):
    """A new HodgeEngine (default inner product) on the catalog
    instance, restricted to the invariant subcomplex when the identifier
    carries an action."""
    spec, action = load_with_action(identifier, parameters)
    return HodgeEngine(spec, monomial_filter=(
        invariant_submodel(spec, action) if action else None))


def engine_for(identifier, parameters=None):
    """Shared `engine` per catalog instance."""
    key = (identifier, tuple(sorted((parameters or {}).items())))
    if key not in _ENGINE_CACHE:
        _ENGINE_CACHE[key] = engine(identifier, parameters)
    return _ENGINE_CACHE[key]


def massey_case(case_id, parameters=None):
    """(alpha, beta, gamma, listed representative, engine) for one
    Appendix case; V.17 runs with the first of V17_RUNS by default."""
    if case_id not in APPENDIX_CASES:
        raise CatalogError("unknown appendix case %r" % case_id)
    if case_id == "V.17":
        parameters = parameters or V17_RUNS[0]
    elif parameters:
        raise CatalogError("case %s takes no parameters" % case_id)
    engine = engine_for("nakamura:" + case_id, parameters)
    spec = engine.spec
    if case_id == "V.17":
        case_id += (":beta=-1" if spec.parameters["beta"] == -ONE
                    else ":generic")
    a_names, b_names, c_names, rep_names = _MASSEY[case_id]
    return (spec.form_from_names(a_names), spec.form_from_names(b_names),
            spec.form_from_names(c_names), spec.form_from_names(rep_names),
            engine)
