"""Free bigraded-commutative algebras on declared generators.

A model is a list of generators with bidegrees, truncations and a
conjugation, and the differentials' values on generators, which the
Leibniz rule extends to forms (`apply_derivation`).  A ModelSpec that
builds is a valid model: no monomial lies past the volume form, and
d^2 = 0 (an AssemblyError; four Leibniz passes check it).  A model
memoises nothing: it builds its monomial table, shared read-only by the
models of its generator signature, and its derivation plans as soon as
their inputs are set.  Generators and actions are namedtuple records.
Monomials are exponent vectors in declaration order; every sign follows
that order.
"""

from __future__ import annotations

import weakref
from array import array
from collections import defaultdict, namedtuple
from functools import wraps
from math import prod
from operator import lshift, lt

from .linalg import _combine, axpy
from .scalars import GaussianRational, MINUS_ONE, ONE

__all__ = [
    "GeneratorSpec", "ModelSpec", "Form", "DiagonalAction",
    "ModelError", "ModelMismatch", "AssemblyError", "apply_derivation",
]


# The most monomials (the product of the truncations) a model may have:
# the monomial table lists every one, so a larger model is refused before
# it is enumerated.  Their keys then fit in 32 bits (see _layout).
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


class AssemblyError(ModelError):
    """d^2 != 0 or a non-restricting differential."""


class GeneratorSpec(namedtuple(
        "GeneratorSpec", ["name", "bidegree", "truncation", "conjugate"])):
    """A generator: name, bidegree (p, q), truncation (g^truncation = 0;
    2 if odd) and its conjugate's name (itself allowed)."""

    __slots__ = ()

    @property
    def odd(self):
        return (self.bidegree[0] + self.bidegree[1]) % 2 == 1


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
        self._layout = layout = _layout(self.generators)
        self._shifts = tuple(shift for shift, _, _ in layout)
        self._truncations = tuple(g.truncation for g in self.generators)
        self._lift, self._guard, self._odd = _masks(self.generators, layout)
        self._validate_generators()
        self._set_differentials(del_images or {}, dbar_images or {})

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
            if gc.truncation != g.truncation:
                raise ModelError(
                    "%s and its conjugate %s have truncations %d and %d"
                    % (g.name, gc.name, g.truncation, gc.truncation))
            if g.conjugate == g.name and p != q:
                raise ModelError("self-conjugate generator %s needs p = q"
                                 % g.name)
        count = prod(g.truncation for g in self.generators)
        if count > MAX_MONOMIALS:
            raise ModelError(
                "model has %d monomials, more than the limit of %d"
                % (count, MAX_MONOMIALS))
        self._table = _monomial_table(self.generators)
        past = [b for b in self.bidegrees() if max(b) > self.n]
        if past:
            raise ModelError("monomial %s at %s lies past the volume form" % (
                self.pretty_monomial(self.basis(*past[0])[0]), past[0]))
        vol = self.basis(self.n, self.n)
        if len(vol) != 1:
            raise ModelError("bidegree (%d,%d) space has dimension %d, not 1"
                             % (self.n, self.n, len(vol)))
        self.volume_monomial = vol[0]
        self._volume_key = self._key(vol[0])

    def _set_differentials(self, del_images, dbar_images):
        """Take the images of both differentials, as dicts or Forms,
        build the derivation plans from them and check them."""
        self.differentials = {}
        for op, raw, (dp, dq) in (("del", del_images, (1, 0)),
                                  ("dbar", dbar_images, (0, 1))):
            images = self.differentials[op] = {}
            for name, value in raw.items():
                if name not in self.index:
                    raise ModelError("assignment on unknown generator %r"
                                     % name)
                image = (value if isinstance(value, Form)
                         else Form(self, value)).components
                if image:
                    images[name] = image
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
        self._plans = {op: self._derivation_plan(op) for op in ("del", "dbar")}
        self._check_squares()

    def _check_squares(self):
        """d^2 = 0 on each generator, by four Leibniz passes; a generator of
        truncation 1 is 0 in the algebra and owns no field: its key is 0."""
        keys = [1 << shift if mask else 0 for shift, mask, _ in self._layout]
        de, db = (_derive(self, op, keys) for op in ("del", "dbar"))
        image = list(dict.fromkeys(t for col in de + db for t in col))
        after = {(op, t): col for op in ("del", "dbar")
                 for t, col in zip(image, _derive(self, op, image))}
        for g, e, b in zip(self.generators, de, db):
            for label, terms in (
                    ("del^2", [("del", e)]), ("dbar^2", [("dbar", b)]),
                    ("del dbar + dbar del", [("del", b), ("dbar", e)])):
                value = _combine((((op, t), c) for op, col in terms
                                  for t, c in col.items()), after)
                if value:
                    value = Form(self, {self._monomial(t): c
                                        for t, c in value.items()})
                    raise AssemblyError(
                        "%s != 0 on generator %s (bidegree %s): %s"
                        % (label, g.name, g.bidegree, value.pretty(True)))

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

    def basis(self, p, q):
        """All truncation-respecting monomials of bidegree (p, q), in
        lexicographic order of exponent vectors."""
        return self._all_monomials().get((p, q), ([],))[0]

    def _all_monomials(self):
        return self._table

    def bidegrees(self):
        """All (p, q) with a nonempty monomial basis, sorted."""
        return sorted(self._all_monomials())

    def _key(self, mono):
        """The key of a monomial, each exponent in its generator's field,
        or None if an exponent reaches its truncation."""
        if len(mono) == len(self._shifts) and all(
                map(lt, mono, self._truncations)):
            return sum(map(lshift, mono, self._shifts))
        return None

    def _monomial(self, key):
        """The monomial of a key."""
        return tuple(key >> shift & mask for shift, mask, _ in self._layout)

    def _sign_mask(self, key):
        """M(key) of _masks, by a suffix xor of 32 bits."""
        y = (key & self._odd) >> 1
        for shift in (1, 2, 4, 8, 16):
            y ^= y >> shift
        return y & self._odd

    def _complement_key(self, x):
        """(y, negative): keys x and y multiply to -vol if negative, else
        to vol.  y is no key unless x's monomial divides vol's."""
        y = self._volume_key - x
        return y, (x & self._sign_mask(y)).bit_count() & 1

    def _derivation_plan(self, op):
        """The differential op as a Leibniz rule on monomial keys: the
        union of the fields and, per generator g_i with an image, (field,
        shift, terms).  A key k holds g_i iff k & field, with exponent
        (k & field) >> shift.  A term c*t is (delta + lift, delta, move,
        c, -c): it maps k to k + delta, delta = key(t) - key(g_i), a
        product of keys (see _masks) that survives iff
        (k + delta + lift) & guard is 0.  Its sign is the parity of
        k & move: g_i passes the odd factors before it, and each odd
        factor of t those between it and g_i, joined by xor."""
        layout = self._layout
        odd = [self._odd & mask << shift for shift, mask, _ in layout]
        groups = []
        for i, g in enumerate(self.generators):
            shift, mask, _ = layout[i]
            image = self.differentials[op].get(g.name)
            if not mask or not image:
                continue            # truncation 1: g_i is in no monomial
            terms = []
            for mono, c in image.items():
                move = sum(odd[:i])
                for k, e in enumerate(mono):
                    if e and odd[k]:
                        move ^= sum(odd[k + 1:i] if k < i else odd[i + 1:k])
                delta = self._key(mono) - (1 << shift)
                terms.append((delta + self._lift, delta, move, c, -c))
            groups.append((mask << shift, shift, terms))
        return sum(field for field, _, _ in groups), groups

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


def apply_derivation(spec, op, form):
    """The differential op ("del" or "dbar") of the model on a form: its
    images of generators extended as a graded derivation.  A monomial
    past a truncation is 0 in the algebra, and so is its image."""
    terms = {spec._key(m): c for m, c in form.components.items()}
    terms.pop(None, None)
    image = _combine(enumerate(terms.values()), _derive(spec, op, list(terms)))
    return Form(spec, {spec._monomial(t): c for t, c in image.items()})


def _derive(spec, op, keys):
    """The derivation op of the monomial of each key, by one Leibniz
    pass: a list of columns {target key: coefficient}."""
    rows = defaultdict(dict)
    _leibniz(spec, op, keys, rows)
    columns = [{} for _ in keys]
    for t, row in rows.items():
        for j, c in row.items():
            columns[j][t] = c
    return columns


def _leibniz(spec, op, keys, rows):
    """Write the derivation op of the monomials with the given keys into
    rows {target key: row} by the model's plan (see _derivation_plan):
    row t at j is t's coefficient in the image of keys[j], so j increases
    in each row; a key with no field of the plan costs one AND.  rows is
    a defaultdict(dict), so a target with no row gets one."""
    guard = spec._guard
    active, groups = spec._plans[op]
    for j, k in [(j, k) for j, k in enumerate(keys) if k & active]:
        for field, shift, terms in groups:
            if not k & field:
                continue
            e = (k & field) >> shift
            for lifted, delta, move, c, neg in terms:
                if (k + lifted) & guard:
                    continue
                v = neg if (k & move).bit_count() & 1 else c
                if e != 1:
                    v = v * e
                row = rows[k + delta]
                if j in row:  # the row's last entry: it stays last
                    v = row.pop(j) + v
                    if not v:
                        continue
                row[j] = v


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
            old = comp.get(m)
            v = c if old is None else old + c
            if v:
                comp[m] = v
            else:
                comp.pop(m, None)
        return Form(self.spec, comp)

    def __sub__(self, other):
        return self + (other * MINUS_ONE)

    def __neg__(self):
        return self * MINUS_ONE

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
            # for a fixed left factor the products are distinct monomials
            row = {}
            for mb, cb in other.components.items():
                mono, sign = _merge_monomials(spec, ma, mb)
                if mono is not None:
                    row[mono] = cb if sign > 0 else -cb
            axpy(out, ca, row)
        return Form(spec, out)

    def conjugate(self):
        # conjugation permutes monomials, so no two terms meet
        spec = self.spec
        out = {}
        for mono, coeff in self.components.items():
            cmono, sign = _conjugate_monomial(spec, mono)
            c = coeff.conjugate()
            out[cmono] = c if sign > 0 else -c
        return Form(spec, out)

    def component_of_bidegree(self, p, q):
        return Form(self.spec,
                    {m: c for m, c in self.components.items()
                     if self.spec.monomial_bidegree(m) == (p, q)})

    def pretty(self, ascii_only=False):
        return _pretty_sum(
            ((self.spec.pretty_monomial(m, ascii_only), self.components[m])
             for m in sorted(self.components)), "*")

    def __repr__(self):
        return "Form(%s)" % self.pretty(ascii_only=True)


def _pretty_sum(terms, times):
    """The (body, coefficient) terms as text joined by " + ", "0" for
    none; `times` joins a coefficient other than +-1 to a body not "1"."""
    parts = []
    for body, coeff in terms:
        cs = str(coeff)
        if body == "1":
            parts.append(cs)
        elif cs == "1":
            parts.append(body)
        elif cs == "-1":
            parts.append("-" + body)
        elif ("+" in cs[1:]) or ("-" in cs[1:]):
            parts.append("(%s)%s%s" % (cs, times, body))
        else:
            parts.append("%s%s%s" % (cs, times, body))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _layout(generators):
    """(shift, exponent mask, truncation) of each generator's field in a
    monomial key: the exponent's bits and a guard bit, none for
    truncation 1.  Generator 0's is highest, so keys sort as monomials.
    At most 2 log2(truncation) bits, so keys fit in 32 bits."""
    out, shift = [], 0
    for g in reversed(generators):
        bits = (g.truncation - 1).bit_length()
        out.append((shift, (1 << bits) - 1, g.truncation))
        shift += bits + 1 if g.truncation > 1 else 0
    out.reverse()
    return out


def _masks(generators, layout):
    """(lift, guard, odd): per field of the layout its guard bit less
    its truncation, its guard bit, and its bit if the generator is odd.
    The product of monomials with keys x and y lands at x + y and
    vanishes iff (x + y + lift) & guard is nonzero (L. Lamport, CACM
    18(8), 1975).  As in _merge_monomials, each odd factor of y passes
    those of x in lower bits: it is negative iff x & M(y) has an odd
    number of bits, bit i of M(y) set iff i is odd and y has an odd
    number of odd bits above i."""
    lift = guard = odd = 0
    for g, (shift, mask, truncation) in zip(generators, layout):
        if mask:
            lift += (mask + 1 - truncation) << shift
            guard |= (mask + 1) << shift
        if g.odd:
            odd |= mask << shift
    return lift, guard, odd


class _Table(dict):
    __slots__ = ("__weakref__",)    # a weak reference can hold a table


# The table of each signature, (bidegree, truncation) per generator, that
# a model holds: keys depend only on truncations, bidegrees on bidegrees.
_TABLES = weakref.WeakValueDictionary()


def _monomial_table(generators):
    """{(p, q): (monomials, keys)}, the monomials of that bidegree in
    lexicographic order and their keys in an array, shared read-only: the
    exponent vectors are extended one generator at a time, carrying their
    bidegrees and keys, and each prefix's extensions come in increasing
    exponent, so every list is in order as built."""
    signature = tuple((tuple(g.bidegree), g.truncation) for g in generators)
    table = _TABLES.get(signature)
    if table is not None:
        return table
    monos = [((), 0, 0, 0)]
    for g, (shift, _, _) in zip(generators, _layout(generators)):
        a, b = g.bidegree
        steps = [((e,), e * a, e * b, e << shift)
                 for e in range(g.truncation)]
        monos = [(m + s, p + dp, q + dq, key + dk)
                 for m, p, q, key in monos for s, dp, dq, dk in steps]
    table = _TABLES[signature] = _Table()
    for m, p, q, key in monos:
        entry = table.setdefault((p, q), ([], array("q")))
        entry[0].append(m)
        entry[1].append(key)
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
    """Conjugate a canonical monomial: (monomial, sign).

    Conjugation permutes the generators and keeps truncations, so each
    exponent moves to the conjugate's position; the sign counts the
    pairs of odd factors, each present at most once, whose order that
    reverses.
    """
    gens = spec.generators
    out = [0] * len(gens)
    odd = []                # conjugate positions of odd factors, in order
    for i, e in enumerate(mono):
        if e:
            j = spec.index[gens[i].conjugate]
            out[j] = e
            if gens[j].odd:
                odd.append(j)
    swaps = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1:])
    return tuple(out), (-1 if swaps % 2 else 1)


class DiagonalAction(namedtuple("DiagonalAction", ["weights"])):
    """Diagonal action on generators by unit scalars (+-1, +-i): a
    GaussianRational per generator, in declaration order."""

    __slots__ = ()

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
