"""Differentials, Hodge star and harmonic spaces on a bigraded model.

Each theory is one record in THEORY: the operators whose kernels define
its closed forms and those whose images define its exact forms.  From
that record the engine derives two independent routes to every
cohomology dimension: kernels of the harmonic systems for a given inner
product (themselves built two ways, star-based and adjoint-based, which
must agree), and quotient dimensions ker/im computed without any inner
product.  Tests compare the two everywhere.

Each artifact is built once per engine.  d = del + dbar maps each
bidegree into two others and star maps each onto one, so d's matrix,
adjoint and star block at a total degree are the memoised del and dbar
blocks placed at their offsets, with no entry computed again.  A
harmonic space keeps its cross-checked RREF, which gives its dimension;
its kernel is row-reduced only when read.

The model is valid once built, so an engine checks it no more.  Its
Leibniz routine, apply_derivation and AssemblyError live in model, read
here too: assembly writes each del/dbar entry into its row, nothing at a
degree outside 0..n.  Positions are integer keys, one index per degree.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction

from . import linalg
from .linalg import Matrix
from .model import (AssemblyError, Form, ModelError, _leibniz, _once,
                    apply_derivation)
from .scalars import GaussianRational, MINUS_ONE, ONE

THEORIES = ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli")

# Degree shift of each operator, and its negation; d acts on total degrees.
SHIFT = {"del": (1, 0), "dbar": (0, 1), "ddbar": (1, 1), "d": (1,)}
_BACK = {op: tuple(-a for a in shift) for op, shift in SHIFT.items()}

# d = del + dbar: each part with its shift
D_PARTS = tuple((op, SHIFT[op]) for op in ("del", "dbar"))

Theory = namedtuple("Theory", ["closed", "exact"])

THEORY = {
    "dolbeault": Theory(closed=("dbar",), exact=("dbar",)),
    "conj_dolbeault": Theory(closed=("del",), exact=("del",)),
    "bott_chern": Theory(closed=("del", "dbar"), exact=("ddbar",)),
    "aeppli": Theory(closed=("ddbar",), exact=("del", "dbar")),
    "de_rham": Theory(closed=("d",), exact=("d",)),
}


class UnknownTheoryError(ValueError):
    """A theory name outside THEORY."""


def _theory(name):
    if name not in THEORY:
        raise UnknownTheoryError("unknown theory %r" % name)
    return THEORY[name]


def _total(theory):
    """Whether the theory is graded by total degree rather than bidegree."""
    return len(SHIFT[_theory(theory).closed[0]]) == 1


def _add(a, b):
    """The degree a + b of two degrees, both (k,) or both (p, q)."""
    return (a[0] + b[0],) if len(a) == 1 else (a[0] + b[0], a[1] + b[1])


def _source(degree, op):
    """The degree op maps into `degree` from, or None below zero."""
    src = _add(degree, _BACK[op])
    return src if min(src) >= 0 else None


def _label(degree):
    return "(%s)" % ",".join(str(a) for a in degree)


def _outside(degree):
    return ModelError("form outside the %s subcomplex basis" % _label(degree))


class NotClosedError(ValueError):
    """Input form violates the closedness precondition of a theory."""


_UNIT_WEIGHT = Fraction(1)
_UNIT_SCALARS = (ONE, ONE, MINUS_ONE)


class InnerProduct:
    """Diagonal Hermitian metric: positive rational weight per monomial.

    Default declares the canonical monomial basis orthonormal; for the
    Lie-algebra models this is the invariant metric with orthonormal
    coframe.
    """

    def __init__(self, weights=None):
        self.weights = {}
        self._scalars = {}
        # one (w, 1/w, -w) per distinct weight, keyed by its two ints,
        # which hash without the modular inverse a Fraction's hash costs
        shared = {(1, 1): _UNIT_SCALARS}
        for mono, w in (weights or {}).items():
            w = w if type(w) is Fraction else Fraction(w)
            if w <= 0:
                raise ModelError("inner-product weight must be positive")
            mono = tuple(mono)
            self.weights[mono] = w
            key = w.numerator, w.denominator
            if key not in shared:
                scalar = GaussianRational(w)
                shared[key] = scalar, ONE / scalar, -scalar
            self._scalars[mono] = shared[key]

    def weight(self, mono):
        """Weight of a basis monomial (an exponent tuple)."""
        return self.weights.get(mono, _UNIT_WEIGHT)

    def scalars(self, mono):
        """(w, 1/w, -w) as scalars for the monomial's weight w; the unit
        weight gives (ONE, ONE, -ONE), shared by every unit monomial."""
        return self._scalars.get(mono, _UNIT_SCALARS)


def _form(spec, basis, row):
    """The Form with the sparse row {position: scalar} as its
    coefficients on the basis, a list of monomials."""
    return Form(spec, {basis[j]: c for j, c in sorted(row.items())})


class HarmonicBasis:
    """Basis of a harmonic space for one theory and degree.

    Given by `rref`, the cross-checked RREF {pivot: row} of the harmonic
    equations on `basis`, the degree's monomials of `spec`, so `dim` is
    the number of columns less the rank.  `space`, the kernel as a
    Subspace of the coordinates on `basis`, is row-reduced on first
    read; the forms, built on first read too, are its reduced row
    echelon basis, so coordinates in `space` are coordinates on `forms`.
    A basis holds the model only, not the engine.
    """

    __slots__ = ("theory", "bidegree", "_rref", "_spec", "_basis", "_memo")

    def __init__(self, theory, degree, rref, spec, basis):
        self.theory = theory
        self.bidegree = degree if len(degree) > 1 else degree[0]
        self._rref = rref
        self._spec = spec
        self._basis = basis
        self._memo = defaultdict(dict)

    @property
    @_once
    def space(self):
        return linalg._kernel(len(self._basis), self._rref)

    @property
    @_once
    def forms(self):
        return [_form(self._spec, self._basis, row) for row in self.space.rows]

    @property
    def dim(self):
        return len(self._basis) - len(self._rref)

    def __iter__(self):
        return iter(self.forms)

    def __repr__(self):
        return "HarmonicBasis(%s, %s, dim=%d)" % (
            self.theory, self.bidegree, self.dim)


class CohomologyTable(namedtuple("CohomologyTable", [
        "model_name", "n", "h_dbar", "h_del", "h_bc", "h_a", "betti"])):
    """Per-bidegree dimensions for all theories plus Betti numbers; a
    zero cell is left out of the h_* dicts."""

    __slots__ = ()

    def to_dict(self):
        grid = lambda h: [[h.get((p, q), 0) for q in range(self.n + 1)]
                          for p in range(self.n + 1)]
        return {
            "model": self.model_name,
            "n": self.n,
            "h_dbar": grid(self.h_dbar),
            "h_del": grid(self.h_del),
            "h_bc": grid(self.h_bc),
            "h_a": grid(self.h_a),
            "betti": list(self.betti),
        }


class HodgeEngine:
    """Assembled differentials + harmonic-space computations for a model.

    A degree is given as (p, q) for a bidegree or as (k,) for a total
    degree; `basis`, `weights`, `row`, `matrix`, `adjoint_matrix`,
    `harmonic_space` and `cohomology_dim` take either.  monomial_filter
    restricts to a subcomplex spanned by a subset of monomials (used for
    invariant submodels); the restriction is validated at assembly time.

    Every per-degree artifact (bases with their keys and key index,
    matrices, star and adjoint blocks, closed RREFs, harmonic spaces,
    projectors, solvers) is built once per engine by a method decorated
    with `_once` and kept in `_memo`.
    """

    def __init__(self, spec, inner_product=None, monomial_filter=None):
        self.spec = spec
        self.ip = inner_product or InnerProduct()
        self.filter = monomial_filter
        self._memo = defaultdict(dict)
        if monomial_filter is not None and not monomial_filter(spec.volume_monomial):
            raise AssemblyError("volume monomial is outside the subcomplex")

    # -- bases ---------------------------------------------------------

    def basis(self, *degree):
        """Monomials of the degree kept by the filter; a total degree
        lists its bidegrees (p, k - p) in increasing p."""
        return self._keyed(*degree)[0]

    @_once
    def _keyed(self, *degree):
        """(basis, the keys of its monomials) of the degree; a total
        degree joins those of its bidegrees (p, k - p) in increasing p."""
        if len(degree) == 1:
            bids = self._offsets(degree[0])
            return ([m for bid in bids for m in self.basis(*bid)],
                    [k for bid in bids for k in self._keyed(*bid)[1]])
        monos, keys = self.spec._all_monomials().get(degree, ([], []))
        if self.filter is not None:
            kept = [j for j, m in enumerate(monos) if self.filter(m)]
            monos, keys = [monos[j] for j in kept], [keys[j] for j in kept]
        return monos, keys

    @_once
    def _key_index(self, *degree):
        """Position of each key of the degree's basis: the only index."""
        return {k: i for i, k in enumerate(self._keyed(*degree)[1])}

    def degrees(self, theory):
        """Degrees of the theory's grading with a nonempty basis, in
        increasing order: (k,) for de Rham, (p, q) otherwise."""
        if _total(theory):
            candidates = [(k,) for k in range(2 * self.spec.n + 1)]
        else:
            candidates = self.spec.bidegrees()
        return [d for d in candidates if self.basis(*d)]

    def _inside(self, degree):
        """Whether each part is in 0..n (0..2n for a total degree)."""
        return 0 <= min(degree) and max(degree) <= self.spec.n * (
            3 - len(degree))

    @_once
    def _offsets(self, k):
        """{bidegree: offset} of each bidegree (p, k - p) of the model's
        range inside total degree k, in increasing p."""
        out, offset, n = {}, 0, self.spec.n
        for p in range(max(0, k - n), min(k, n) + 1):
            out[p, k - p] = offset
            offset += len(self.basis(p, k - p))
        return out

    def weights(self, *degree):
        return [self.ip.weight(m) for m in self.basis(*degree)]

    @_once
    def _scalar_weights(self, degree):
        """(w, 1/w, -w), three lists over the degree's basis, as
        scalars; under the default metric, with no monomial read."""
        if not self.ip.weights:
            return tuple([c] * len(self.basis(*degree)) for c in _UNIT_SCALARS)
        scalars = [self.ip.scalars(m) for m in self.basis(*degree)]
        return tuple([t[k] for t in scalars] for k in range(3))

    def row(self, components, *degree):
        """Coefficients {monomial: scalar} on the degree's basis, empty
        outside the model, as a sparse row {position: scalar}."""
        index = self._key_index(*degree) if self._inside(degree) else {}
        key = self.spec._key
        try:
            return {index[key(m)]: c for m, c in components.items()}
        except KeyError:
            raise _outside(degree) from None

    def form(self, row, *degree):
        """The Form with the sparse row {position: scalar} as its
        coefficients on the degree's basis."""
        return _form(self.spec, self.basis(*degree), row)

    @_once
    def _signed_keys(self, *degree):
        """(key, its sign mask) of each basis monomial of the degree."""
        return [(y, self.spec._sign_mask(y)) for y in self._keyed(*degree)[1]]

    @_once
    def _product_plan(self, da, db):
        """(keys of da, signed keys of db, key index of da + db, da + db):
        what `wedge_row` reads, nothing stored per product."""
        total = _add(da, db)
        return (self._keyed(*da)[1], self._signed_keys(*db),
                self._key_index(*total), total)

    def wedge_row(self, a, da, b, db):
        """The wedge of the sparse row a at degree da and the sparse row
        b at degree db, as a sparse row at degree da + db, multiplied on
        keys (see model._masks).  A product outside that degree's basis
        is a ModelError, as in `row`.  An empty operand builds nothing."""
        if not a or not b:
            return {}
        xs, ys, index, total = self._product_plan(da, db)
        lift, guard = self.spec._lift, self.spec._guard
        out = {}
        for i, ca in a.items():
            x = xs[i]
            lifted = x + lift
            for j, cb in b.items():
                y, mask = ys[j]
                if (lifted + y) & guard:
                    continue
                k = index.get(x + y)
                if k is None:
                    raise _outside(total)
                c = cb if ca is ONE else ca if cb is ONE else ca * cb
                old = out.get(k)
                if (x & mask).bit_count() & 1:
                    v = (MINUS_ONE if c is ONE else -c) if old is None \
                        else old - c
                else:
                    v = c if old is None else old + c
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        return out

    def _degree(self, theory, form):
        """Degree of form in the theory's grading, None unless homogeneous."""
        degrees = {self.spec.monomial_bidegree(m) for m in form.components}
        if _total(theory):
            degrees = {(p + q,) for p, q in degrees}
        return degrees.pop() if len(degrees) == 1 else None

    # -- matrices ------------------------------------------------------

    @_once
    def matrix(self, op, *degree):
        """Matrix of op (a SHIFT key) from degree into degree + shift;
        empty, with nothing else built, if either is outside the model."""
        target = _add(degree, SHIFT[op])
        if not (self._inside(degree) and self._inside(target)):
            return Matrix(*[len(self.basis(*d)) if self._inside(d) else 0
                            for d in (target, degree)])
        if op == "ddbar":
            p, q = degree
            return self.matrix("del", p, q + 1).matmul(
                self.matrix("dbar", p, q))
        if op == "d":
            k = degree[0]
            return self._placed(k + 1, k, [
                ((p + dp, q + dq), (p, q), self.matrix(which, p, q))
                for p, q in self._offsets(k) for which, (dp, dq) in D_PARTS])
        targets = self._keyed(*target)[1]
        mat = Matrix(len(targets), len(self.basis(*degree)))
        rows = defaultdict(dict, zip(targets, mat.data))
        _leibniz(self.spec, op, self._keyed(*degree)[1], rows)
        leaving = [t for t in list(rows)[len(targets):] if rows[t]]
        if leaving:
            raise AssemblyError("%s image leaves the subcomplex at %s"
                                % (op, self.spec._monomial(leaving[0])))
        return mat

    def ddbar_matrix(self, p, q):
        """del dbar from (p, q) to (p+1, q+1)."""
        return self.matrix("ddbar", p, q)

    def _placed(self, rows, cols, blocks):
        """The matrix from total degree cols to rows with the blocks (row
        bidegree, column bidegree, matrix) placed at their offsets: del
        and dbar land in different bidegrees, so d's artifacts are theirs
        side by side.  A block into a degree outside the model has no rows."""
        mat = Matrix(len(self.basis(rows)), len(self.basis(cols)))
        row_at, col_at = self._offsets(rows), self._offsets(cols)
        for target, source, block in blocks:
            row, col = row_at.get(target), col_at[source]
            for i, entries in enumerate(block.data):
                out = mat.data[row + i]
                for j, a in entries.items():
                    out[col + j] = a
        return mat

    @_once
    def adjoint_matrix(self, op, *degree):
        """Adjoint of op mapping the degree down by op's shift."""
        src = _source(degree, op)
        if src is None:
            return Matrix(0, len(self.basis(*degree)))
        if op == "d":
            return self._placed(src[0], degree[0], [
                ((p - dp, q - dq), (p, q), self.adjoint_matrix(which, p, q))
                for p, q in self._offsets(degree[0]) if self.basis(p, q)
                for which, (dp, dq) in D_PARTS
                if p >= dp and q >= dq and self.basis(p - dp, q - dq)])
        return self._weighted_adjoint(self.matrix(op, *src), src, degree)

    @_once
    def min_norm_solver(self, *degree):
        """MinNormSolver of del dbar from degree on Aeppli's closed RREF."""
        return linalg.MinNormSolver(self.matrix("ddbar", *degree),
                                    self._rref(("ddbar",), degree).view(),
                                    self._scalar_weights(degree)[1])

    def ddbar_adjoint_matrix(self, p, q):
        return self.adjoint_matrix("ddbar", p, q)

    def _weighted_adjoint(self, fwd, src, dst):
        """W_src^-1 fwd^H W_dst: adjoint in the weighted inner products,
        in one pass over fwd; a unit weight costs no product."""
        inv = self._scalar_weights(src)[1]
        wdst = self._scalar_weights(dst)[0]
        adj = Matrix(fwd.cols, fwd.rows)
        for i, row in enumerate(fwd.data):
            w = wdst[i]
            for j, a in row.items():
                a = a.conjugate()
                if inv[j] is not ONE:
                    a = inv[j] * a
                adj.data[j][i] = a if w is ONE else a * w
        return adj

    def _exact_sources(self, theory, degree):
        """(op, source degree) of each exact operator that maps into
        degree from a degree that exists."""
        return [(op, src) for op in _theory(theory).exact
                for src in (_source(degree, op),) if src is not None]

    @_once
    def _exact_span(self, theory, degree):
        """The theory's exact forms at degree, as the Subspace spanned by
        the columns of its exact operators into degree."""
        return linalg.Subspace._from_rows(
            len(self.basis(*degree)),
            [col for op, src in self._exact_sources(theory, degree)
             for col in self.matrix(op, *src).columns()])

    @_once
    def _rref(self, ops, degree):
        """Echelon of the rows of the operators' matrices at degree,
        stacked: their common kernel is the closed forms of a theory.
        Shared, so never add to it; copy it."""
        # a stack of several starts from the RREF of all but its last
        # operator, which another theory shares
        echelon = (self._rref(ops[:-1], degree).copy() if len(ops) > 1
                   else linalg.Echelon())
        echelon.extend(self.matrix(ops[-1], *degree).data)
        return echelon

    # -- star ----------------------------------------------------------

    def star(self, form):
        """Conjugate-linear Hodge star for the diagonal inner product:
        the monomial m goes to +-weight(m) times its complement, with
        the sign of m ^ complement = +-vol."""
        spec = self.spec
        out = {}    # the complement is one to one, so no two terms meet
        for mono, coeff in form.components.items():
            comp, negative = spec._complement_key(spec._key(mono))
            c = coeff.conjugate() * self.ip.scalars(mono)[0]
            out[spec._monomial(comp)] = -c if negative else c
        return Form(spec, out)

    def _dual(self, degree):
        """The degree that star maps the degree onto."""
        n = self.spec.n
        return ((2 * n - degree[0],) if len(degree) == 1
                else (n - degree[0], n - degree[1]))

    @_once
    def _star_columns(self, degree):
        """(source, c), two lists over the dual bidegree's basis: star
        sends basis monomial source[i] of the bidegree to c[i] times
        monomial i; shared by every operator.  Raises unless star maps
        the bidegree's basis onto the dual's."""
        index = self._key_index(*self._dual(degree))
        keys = self._keyed(*degree)[1]
        weights, _, negated = self._scalar_weights(degree)
        source, const = [None] * len(index), [None] * len(index)
        for j, x in enumerate(keys):
            comp, negative = self.spec._complement_key(x)
            i = index.get(comp)
            if i is None:
                break
            source[i], const[i] = j, negated[j] if negative else weights[j]
        else:
            # the complement is one to one, so onto when the sizes agree
            if len(keys) == len(index):
                return source, const
        raise AssemblyError("subcomplex is not closed under star at %s"
                            % _label(degree))

    @_once
    def _after_star(self, op, degree):
        """Matrix K with: op(star a) = 0  <=>  K a = 0, read off op at
        the dual degree: star sends basis monomial j to c_j times its
        complement and is conjugate-linear, so column j is c_j times the
        conjugate of op's column at the complement.  Star keeps
        bidegrees apart, so d's is placed from those of del and dbar."""
        if op == "d":
            n = self.spec.n
            return self._placed(2 * n - degree[0] + 1, degree[0], [
                ((n - p + dp, n - q + dq), (p, q),
                 self._after_star(which, (p, q)))
                for p, q in self._offsets(degree[0])
                for which, (dp, dq) in D_PARTS])
        source, const = self._star_columns(degree)
        fwd = self.matrix(op, *self._dual(degree))
        mat = Matrix(fwd.rows, len(source))
        for entries, out in zip(fwd.data, mat.data):
            for i, a in entries.items():
                j, c = source[i], const[i]
                a = a.conjugate()
                out[j] = a if c is ONE else c * a
        return mat

    # -- harmonic spaces -----------------------------------------------

    @_once
    def harmonic_space(self, theory, *degree):
        """Exact kernel basis of closed + co-exact conditions.

        The co-exact conditions are built twice: as each exact operator
        after star (with the conjugate-linear star, X* is proportional
        to star X star for X in {del, dbar, del dbar, d}) and as its
        weighted adjoint.  Each is added to a copy of the shared RREF of
        the closed conditions.  The two kernels must agree, that is the
        two RREFs must be equal: two systems have the same kernel
        exactly when their rows span the same space.  When neither route
        has a nonzero row, both are the shared RREF itself, which is
        read as it stands.
        """
        ops = _theory(theory)
        if not self._inside(degree):
            return HarmonicBasis(theory, degree, {}, self.spec, [])
        closed = self._rref(ops.closed, degree)
        by_star, by_adjoint = [], []
        for op in ops.exact:
            by_star += self._after_star(op, degree).data
            by_adjoint += self.adjoint_matrix(op, *degree).data
        rref = closed.view()
        if any(by_star) or any(by_adjoint):
            star, adjoint = closed.copy(), closed.copy()
            star.extend(by_star)
            adjoint.extend(by_adjoint)
            rref = star.view()
            if rref != adjoint.view():
                # X* = +-star X star is Stokes' theorem: d = 0 on 2n-1
                if not self.matrix("d", 2 * self.spec.n - 1).is_zero():
                    raise ModelError("model %s is not unimodular: d != 0 on "
                                     "degree 2n-1" % self.spec.name)
                raise AssemblyError(
                    "star-based and adjoint-based %s harmonic spaces "
                    "disagree at %s" % (theory, _label(degree)))
        return HarmonicBasis(theory, degree, rref, self.spec,
                             self.basis(*degree))

    def de_rham_harmonic(self, k):
        return self.harmonic_space("de_rham", k)

    def is_harmonic(self, theory, form):
        """Whether form lies in the harmonic space of its degree in the
        theory's grading.  Zero does; a form spread over several degrees
        does not."""
        if form.is_zero():
            return True
        degree = self._degree(theory, form)
        return degree is not None and self.harmonic_space(
            theory, *degree).space.contains_row(
                self.row(form.components, *degree))

    # -- quotient dimensions (the inner-product-free oracle) -----------

    @_once
    def cohomology_dim(self, theory, *degree):
        """dim ker(closed) - rank(exact into the degree).  A single
        exact operator's rank is read off its RREF at its source degree,
        which another theory's closed forms share; Aeppli's two read off
        the exact span that class_of shares."""
        sources = self._exact_sources(theory, degree)
        if len(sources) == 1:
            (op, src), = sources
            exact = len(self._rref((op,), src))
        else:
            exact = self._exact_span(theory, degree).dim
        return (len(self.basis(*degree))
                - len(self._rref(_theory(theory).closed, degree)) - exact)

    def betti(self, k):
        return self.cohomology_dim("de_rham", k)

    # -- classes -------------------------------------------------------

    @_once
    def _projector(self, theory, degree):
        """Projector onto the harmonic space."""
        return linalg.Projector(self.harmonic_space(theory, *degree).space,
                                self._scalar_weights(degree)[0])

    def class_of(self, form, theory):
        """Coordinates of the harmonic projection in the harmonic basis,
        as `class_row` gives them for the form's row."""
        degree = self._degree(theory, form)
        if degree is None:
            raise NotClosedError("form is not homogeneous")
        return self.class_row(theory, self.row(form.components, *degree),
                              *degree)[0]

    def class_row(self, theory, row, *degree):
        """(coordinates in the harmonic basis, harmonic projection as a
        sparse row) for the sparse row at the degree.

        Checks the theory's closedness precondition, projects, and
        verifies that the residual is exact in the theory's sense.
        """
        for op in _theory(theory).closed:
            if self.matrix(op, *degree).mul_rows([row])[0]:
                raise NotClosedError("form is not %s-closed at %s"
                                     % (theory, _label(degree)))
        projector = self._projector(theory, degree)
        coeffs = projector.coefficients(row)
        projection = projector.combine(coeffs)
        if not self._exact_span(theory, degree).contains_row(
                linalg.axpy(dict(row), MINUS_ONE, projection)):
            raise AssemblyError(
                "harmonic decomposition failed for %s at %s"
                % (theory, _label(degree)))
        return coeffs, projection

    # -- tables --------------------------------------------------------

    def cohomology_table(self):
        n = self.spec.n
        dims = {t: {} for t in THEORIES}
        for p in range(n + 1):
            for q in range(n + 1):
                for theory, table in dims.items():
                    table[p, q] = self.cohomology_dim(theory, p, q)
        return CohomologyTable(self.spec.name, n, *(
            {b: d for b, d in dims[t].items() if d} for t in THEORIES),
            [self.betti(k) for k in range(2 * n + 1)])
