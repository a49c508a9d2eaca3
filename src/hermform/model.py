"""Free bigraded-commutative algebras on declared generators.

A model is a finite list of generators with bidegrees, truncation
exponents and a conjugation pairing, together with the values of the
two differentials on generators.  Monomials are exponent vectors in
declaration order; every sign in the engine is computed relative to
that canonical order, so results are reproducible bit-for-bit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import wraps
from math import prod

from .scalars import GaussianRational, ZERO, ONE

__all__ = [
    "GeneratorSpec", "ModelSpec", "Form", "DiagonalAction",
    "ModelError", "ModelMismatch",
]


# The most monomials (the product of the truncations) a model may have:
# the monomial table lists every one, so a larger model is refused before
# it is enumerated.
MAX_MONOMIALS = 2 ** 16


_MISSING = object()


def _once(method):
    """Build method(self, *key) once per object and key, kept as
    self._memo[method name][key] in the object's own defaultdict(dict),
    so the value lives as long as the object.  Keys are ints, strings
    and tuples of them.  A miss raises nothing: many are cheap builds."""
    name = method.__name__

    @wraps(method)
    def once(self, *key):
        memo = self._memo[name]
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = method(self, *key)
        return value
    return once


class ModelError(ValueError):
    """Inconsistent model data (bidegrees, conjugation, d^2 != 0...)."""


class ModelMismatch(ModelError):
    """Operands belong to different models."""


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    bidegree: tuple          # (p, q)
    truncation: int          # g^truncation = 0; always 2 for odd generators
    conjugate: str           # name of the conjugate generator (self allowed)
    # derived once from bidegree: products read them per generator
    degree: int = field(init=False, compare=False, repr=False)
    odd: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        degree = self.bidegree[0] + self.bidegree[1]
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "odd", degree % 2 == 1)


class ModelSpec:
    """Validated bigraded model: generators + differentials on them.

    `differentials` maps each operator, "del" then "dbar", to its images
    of generators: {generator name: {monomial: scalar}}, zero images left
    out.  It is plain data, so a model holds no Form and no cycle.  The
    images are given as such dicts or as Forms at construction time.
    """

    def __init__(self, name, complex_dimension, generators,
                 del_images=None, dbar_images=None, parameters=None):
        self.name = name
        self.n = complex_dimension
        self.generators = list(generators)
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise ModelError("duplicate generator names")
        self.parameters = dict(parameters or {})
        self._memo = defaultdict(dict)
        self._validate_generators()
        self.differentials = {"del": self._coerce_images(del_images or {}),
                              "dbar": self._coerce_images(dbar_images or {})}
        self._validate_differentials()

    # -- validation ---------------------------------------------------

    def _validate_generators(self):
        for g in self.generators:
            p, q = g.bidegree
            if p < 0 or q < 0:
                raise ModelError("negative bidegree on %s" % g.name)
            if g.odd and g.truncation != 2:
                raise ModelError("odd generator %s must have truncation 2"
                                 % g.name)
            if g.truncation < 1:
                raise ModelError("truncation must be positive on %s" % g.name)
            if g.conjugate not in self.index:
                raise ModelError("unknown conjugate %r of %s"
                                 % (g.conjugate, g.name))
            gc = self.generators[self.index[g.conjugate]]
            if gc.conjugate != g.name:
                raise ModelError("conjugation of %s is not an involution"
                                 % g.name)
            if gc.bidegree != (q, p):
                raise ModelError("conjugate of %s has bidegree %s, want %s"
                                 % (g.name, gc.bidegree, (q, p)))
            if g.conjugate == g.name and p != q:
                raise ModelError("self-conjugate generator %s needs p = q"
                                 % g.name)
        vol = self.basis(self.n, self.n)
        if len(vol) != 1:
            raise ModelError("bidegree (%d,%d) space has dimension %d, not 1"
                             % (self.n, self.n, len(vol)))
        self.volume_monomial = vol[0]

    def _coerce_images(self, raw):
        out = {}
        for name, value in raw.items():
            if name not in self.index:
                raise ModelError("assignment on unknown generator %r" % name)
            image = (value if isinstance(value, Form)
                     else Form(self, value)).components
            if image:
                out[name] = image
        return out

    def _validate_differentials(self):
        for op, (dp, dq) in (("del", (1, 0)), ("dbar", (0, 1))):
            for name, image in self.differentials[op].items():
                p, q = self.generator(name).bidegree
                want = (p + dp, q + dq)
                for mono in image:
                    if len(mono) != len(self.generators) or not all(
                            0 <= e < g.truncation
                            for e, g in zip(mono, self.generators)):
                        raise ModelError(
                            "%s %s has monomial %s, not one exponent per "
                            "generator below its truncation"
                            % (op, name, mono))
                    bid = self.monomial_bidegree(mono)
                    if bid != want:
                        raise ModelError("%s %s has bidegree %s, want %s"
                                         % (op, name, bid, want))
        # conjugation compatibility: dbar(conj g) = conj(del g) and
        # del(conj g) = conj(dbar g)
        dels, dbars = self.differentials["del"], self.differentials["dbar"]
        for g in self.generators:
            if dbars.get(g.conjugate, {}) != Form(
                    self, dels.get(g.name)).conjugate().components:
                raise ModelError(
                    "conjugation compatibility fails: dbar(%s) != conj(del %s)"
                    % (g.conjugate, g.name))

    # -- basic structure ----------------------------------------------

    def generator(self, name):
        return self.generators[self.index[name]]

    def monomial_bidegree(self, mono):
        p = q = 0
        for e, g in zip(mono, self.generators):
            if e:
                p += e * g.bidegree[0]
                q += e * g.bidegree[1]
        return (p, q)

    @_once
    def basis(self, p, q):
        """All truncation-respecting monomials of bidegree (p, q), in
        lexicographic order of exponent vectors."""
        return self._all_monomials().get((p, q), [])

    @_once
    def _all_monomials(self):
        count = prod(g.truncation for g in self.generators)
        if count > MAX_MONOMIALS:
            raise ModelError(
                "model has %d monomials, more than the limit of %d"
                % (count, MAX_MONOMIALS))
        return _monomial_table(self.generators)

    def bidegrees(self):
        """All (p, q) with a nonempty monomial basis, sorted."""
        return sorted(self._all_monomials())

    @_once
    def _leibniz_table(self, op):
        """(odd, truncation, terms) for the differential op: per generator
        position the generator's odd parity (0 or 1) and truncation, and in
        `terms` None where the generator has no image, else one (support,
        c, -c) per term c*t of its image, support [(position k, exponent
        t_k, odd_k)] over the positions of t.  It holds ints and scalars,
        no Form; calculus derives monomials from it."""
        images = self.differentials[op]
        odd = tuple(int(g.odd) for g in self.generators)
        terms = []
        for g in self.generators:
            image = images.get(g.name)
            terms.append(None if image is None else tuple(
                (tuple((k, t, odd[k]) for k, t in enumerate(mt) if t), c, -c)
                for mt, c in image.items()))
        return odd, tuple(g.truncation for g in self.generators), tuple(terms)

    # -- form constructors --------------------------------------------

    def zero(self):
        return Form(self, {})

    def one(self):
        unit = tuple(0 for _ in self.generators)
        return Form(self, {unit: ONE})

    def gen(self, name):
        i = self.index[name]
        mono = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return Form(self, {mono: ONE})

    def monomial_form(self, mono, coeff=ONE):
        return Form(self, {tuple(mono): coeff})

    def volume_form(self):
        return self.monomial_form(self.volume_monomial)

    def form_from_names(self, names, coeff=ONE):
        """Wedge of named generators, e.g. ('p1','p2','q3')."""
        f = self.one() * coeff
        for name in names:
            f = f.wedge(self.gen(name))
        return f

    def pretty_monomial(self, mono, ascii_only=False):
        parts = []
        for e, g in zip(mono, self.generators):
            if not e:
                continue
            name = ("~" + g.name) if (ascii_only and _is_barred(g)) else g.name
            parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return "ModelSpec(%r, n=%d, %d generators)" % (
            self.name, self.n, len(self.generators))


def _is_barred(g):
    return g.name.endswith("_bar") or "̄" in g.name or "̅" in g.name


class Form:
    """Sparse form: mapping monomial -> nonzero scalar."""

    __slots__ = ("spec", "components")

    def __init__(self, spec, components=None):
        self.spec = spec
        comp = {}
        for mono, coeff in (components or {}).items():
            coeff = GaussianRational.of(coeff)
            if coeff:
                comp[tuple(mono)] = coeff
        self.components = comp

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.components

    def bidegree(self):
        """The common bidegree of all monomials, or None if mixed/zero."""
        bids = {self.spec.monomial_bidegree(m) for m in self.components}
        if len(bids) == 1:
            return bids.pop()
        return None

    def equals(self, other):
        self._check(other)
        return self.components == other.components

    def is_multiple_of(self, other):
        """True if self = c * other for some nonzero scalar c (or both 0)."""
        self._check(other)
        if self.is_zero() and other.is_zero():
            return True
        if self.is_zero() or other.is_zero():
            return False
        if set(self.components) != set(other.components):
            return False
        mono = next(iter(self.components))
        c = self.components[mono] / other.components[mono]
        return all(self.components[m] == c * other.components[m]
                   for m in self.components)

    def _check(self, other):
        if other.spec is not self.spec:
            raise ModelMismatch("forms live over different models")

    # -- linear structure ---------------------------------------------

    def __add__(self, other):
        self._check(other)
        comp = dict(self.components)
        for m, c in other.components.items():
            v = comp.get(m, ZERO) + c
            if v:
                comp[m] = v
            else:
                comp.pop(m, None)
        return Form(self.spec, comp)

    def __sub__(self, other):
        return self + (other * GaussianRational(-1))

    def __neg__(self):
        return self * GaussianRational(-1)

    def __mul__(self, scalar):
        scalar = GaussianRational.of(scalar)
        if not scalar:
            return self.spec.zero()
        return Form(self.spec,
                    {m: c * scalar for m, c in self.components.items()})

    __rmul__ = __mul__

    # -- multiplicative structure -------------------------------------

    def wedge(self, other):
        self._check(other)
        spec = self.spec
        out = {}
        for ma, ca in self.components.items():
            for mb, cb in other.components.items():
                mono, sign = _merge_monomials(spec, ma, mb)
                if mono is None:
                    continue
                c = ca * cb
                if sign < 0:
                    c = -c
                v = out.get(mono, ZERO) + c
                if v:
                    out[mono] = v
                else:
                    out.pop(mono, None)
        return Form(spec, out)

    def conjugate(self):
        spec = self.spec
        out = {}
        for mono, coeff in self.components.items():
            cmono, sign = _conjugate_monomial(spec, mono)
            c = coeff.conjugate()
            if sign < 0:
                c = -c
            v = out.get(cmono, ZERO) + c
            if v:
                out[cmono] = v
        return Form(spec, out)

    def component_of_bidegree(self, p, q):
        return Form(self.spec,
                    {m: c for m, c in self.components.items()
                     if self.spec.monomial_bidegree(m) == (p, q)})

    def pretty(self, ascii_only=False):
        if not self.components:
            return "0"
        parts = []
        for m in sorted(self.components):
            c = self.components[m]
            mono = self.spec.pretty_monomial(m, ascii_only)
            cs = str(c)
            if mono == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append("-%s" % mono)
            elif ("+" in cs[1:]) or ("-" in cs[1:]):
                parts.append("(%s)*%s" % (cs, mono))
            else:
                parts.append("%s*%s" % (cs, mono))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return "Form(%s)" % self.pretty(ascii_only=True)


def _monomial_table(generators):
    """{(p, q): monomials of that bidegree in lexicographic order}: the
    exponent vectors are extended one generator at a time, carrying
    their bidegrees, and each prefix's extensions come in increasing
    exponent, so every list is in order as built."""
    monos = [((), 0, 0)]
    for g in generators:
        a, b = g.bidegree
        steps = [((e,), e * a, e * b) for e in range(g.truncation)]
        monos = [(m + s, p + dp, q + dq)
                 for m, p, q in monos for s, dp, dq in steps]
    table = {}
    for m, p, q in monos:
        table.setdefault((p, q), []).append(m)
    return table


def _merge_monomials(spec, ma, mb):
    """Product of two canonical monomials: (monomial, sign) or (None, 0)."""
    gens = spec.generators
    merged = []
    for ea, eb, g in zip(ma, mb, gens):
        e = ea + eb
        if e >= g.truncation:
            return None, 0
        merged.append(e)
    # Koszul sign: each odd factor of mb passes the odd factors of ma that
    # sit at later generator positions.
    sign = 0
    odd_after = 0
    for k in range(len(gens) - 1, -1, -1):
        if gens[k].odd:
            if mb[k]:
                sign += odd_after * mb[k]
            if ma[k]:
                odd_after += ma[k]
    return tuple(merged), (-1 if sign % 2 else 1)


def _conjugate_monomial(spec, mono):
    """Conjugate a canonical monomial: permute generators and re-sort.

    Returns (monomial, sign); the sign counts odd-odd transpositions
    needed to bring the conjugated factor sequence back to declaration
    order.
    """
    gens = spec.generators
    # factor sequence of conjugated monomial, in the order inherited from
    # the original: each factor is the conjugate generator index
    seq = []
    for i, e in enumerate(mono):
        if e:
            j = spec.index[gens[i].conjugate]
            seq.extend([j] * e)
    # bubble sort counting odd-odd swaps
    sign = 0
    seq = list(seq)
    for a in range(len(seq)):
        for b in range(len(seq) - 1 - a):
            if seq[b] > seq[b + 1]:
                if gens[seq[b]].odd and gens[seq[b + 1]].odd:
                    sign += 1
                seq[b], seq[b + 1] = seq[b + 1], seq[b]
    out = [0] * len(gens)
    for j in seq:
        out[j] += 1
        if out[j] >= gens[j].truncation:
            # conjugate generator pairs share truncations, so this
            # cannot happen for a valid monomial
            raise ModelError("conjugation violates a truncation")
    return tuple(out), (-1 if sign % 2 else 1)


@dataclass(frozen=True)
class DiagonalAction:
    """Diagonal action on generators by unit scalars (+-1, +-i)."""

    weights: tuple  # GaussianRational per generator, declaration order

    @classmethod
    def from_map(cls, spec, mapping):
        units = {GaussianRational(1), GaussianRational(-1),
                 GaussianRational(0, 1), GaussianRational(0, -1)}
        ws = []
        for g in spec.generators:
            if g.name not in mapping:
                raise ModelError("action missing generator %s" % g.name)
            w = GaussianRational.of(mapping[g.name])
            if w not in units:
                raise ModelError("action scalar on %s is not a unit" % g.name)
            ws.append(w)
        for g, w in zip(spec.generators, ws):
            wc = ws[spec.index[g.conjugate]]
            if wc != w.conjugate():
                raise ModelError(
                    "action scalar of conj %s must be conjugated" % g.name)
        return cls(tuple(ws))

    def monomial_weight(self, mono):
        w = ONE
        for e, s in zip(mono, self.weights):
            for _ in range(e):
                w = w * s
        return w

    def is_invariant(self, mono):
        return self.monomial_weight(mono) == ONE


def invariant_submodel(spec, action):
    """Monomial filter for the weight-1 subcomplex of a diagonal action.

    Validates that both differentials are equivariant (so they restrict
    to the invariant span) and returns a predicate on monomials.
    """
    for op, images in spec.differentials.items():
        for name, image in images.items():
            w = action.weights[spec.index[name]]
            for mono in image:
                if action.monomial_weight(mono) != w:
                    raise ModelError(
                        "%s is not equivariant on generator %s" % (op, name))
    return action.is_invariant
