"""Differentials, Hodge star and harmonic spaces on a bigraded model.

Each theory is one record in THEORY: the operators whose kernels define
its closed forms and those whose images define its exact forms.  From
that record the engine derives two independent routes to every
cohomology dimension: kernels of the harmonic systems for a given inner
product (themselves built two ways, star-based and adjoint-based, which
must agree), and quotient dimensions ker/im computed without any inner
product.  Tests compare the two everywhere.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce

from . import linalg
from .linalg import Matrix, kernel_basis
from .model import Form, ModelError
from .scalars import GaussianRational, ZERO

THEORIES = ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli")

# Degree shift of each operator; d acts on total degrees.
SHIFT = {"del": (1, 0), "dbar": (0, 1), "ddbar": (1, 1), "d": (1,)}

Theory = namedtuple("Theory", ["closed", "exact"])

THEORY = {
    "dolbeault": Theory(closed=("dbar",), exact=("dbar",)),
    "conj_dolbeault": Theory(closed=("del",), exact=("del",)),
    "bott_chern": Theory(closed=("del", "dbar"), exact=("ddbar",)),
    "aeppli": Theory(closed=("ddbar",), exact=("del", "dbar")),
    "de_rham": Theory(closed=("d",), exact=("d",)),
}


def _theory(name):
    if name not in THEORY:
        raise ValueError("unknown theory %r" % name)
    return THEORY[name]


def _source(degree, op):
    """The degree op maps into `degree` from, or None below zero."""
    src = tuple(a - b for a, b in zip(degree, SHIFT[op]))
    return src if min(src) >= 0 else None


def _label(degree):
    return "(%s)" % ",".join(str(a) for a in degree)


class AssemblyError(ModelError):
    """d^2 != 0 or a non-restricting differential."""


class NotClosedError(ValueError):
    """Input form violates the closedness precondition of a theory."""


def apply_derivation(spec, assignments, form):
    """Extend a generator assignment to a graded derivation."""
    out = spec.zero()
    gens = spec.generators
    for mono, coeff in form.components.items():
        parity = 0
        for i, e in enumerate(mono):
            if e:
                target = assignments.get(gens[i].name)
                if target is not None:
                    left = list(mono[:i]) + [e - 1] + [0] * (len(gens) - i - 1)
                    right = [0] * (i + 1) + list(mono[i + 1:])
                    sign_parity = parity + (e - 1) * (1 if gens[i].odd else 0)
                    c = coeff * e
                    if sign_parity % 2:
                        c = -c
                    term = spec.monomial_form(left, c).wedge(target)
                    term = term.wedge(spec.monomial_form(right))
                    out = out + term
                parity += e * (1 if gens[i].odd else 0)
    return out


class InnerProduct:
    """Diagonal Hermitian metric: positive rational weight per monomial.

    Default declares the canonical monomial basis orthonormal; for the
    Lie-algebra models this is the invariant metric with orthonormal
    coframe.
    """

    def __init__(self, weights=None):
        self.weights = {}
        for mono, w in (weights or {}).items():
            w = Fraction(w)
            if w <= 0:
                raise ModelError("inner-product weight must be positive")
            self.weights[tuple(mono)] = w

    def weight(self, mono):
        return self.weights.get(tuple(mono), Fraction(1))


class HarmonicBasis:
    """Basis of a harmonic space for one theory and degree.

    `space` is the kernel as a Subspace of the degree's coordinates; the
    forms are its reduced row echelon basis, so coordinates in `space`
    are coordinates on `forms`.
    """

    __slots__ = ("theory", "bidegree", "forms", "space")

    def __init__(self, theory, bidegree, forms, space):
        self.theory = theory
        self.bidegree = bidegree
        self.forms = forms
        self.space = space

    @property
    def dim(self):
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)

    def __repr__(self):
        return "HarmonicBasis(%s, %s, dim=%d)" % (
            self.theory, self.bidegree, self.dim)


class CohomologyTable:
    """Per-bidegree dimensions for all theories plus Betti numbers."""

    def __init__(self, model_name, n, h_dbar, h_del, h_bc, h_a, betti):
        self.model_name = model_name
        self.n = n
        self.h_dbar = h_dbar
        self.h_del = h_del
        self.h_bc = h_bc
        self.h_a = h_a
        self.betti = betti

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
    degree; `basis`, `weights`, `coords`, `matrix`, `adjoint_matrix`,
    `harmonic_space` and `cohomology_dim` take either.  monomial_filter
    restricts to a subcomplex spanned by a subset of monomials (used for
    invariant submodels); the restriction is validated at assembly time.
    """

    def __init__(self, spec, inner_product=None, monomial_filter=None):
        self.spec = spec
        self.ip = inner_product or InnerProduct()
        self.filter = monomial_filter
        self._basis = {}
        self._matrix = {}
        self._harmonic = {}
        self._dim = {}
        self._projection = {}
        if monomial_filter is not None and not monomial_filter(spec.volume_monomial):
            raise AssemblyError("volume monomial is outside the subcomplex")
        self._validate_squares()

    # -- bases ---------------------------------------------------------

    def basis(self, *degree):
        """Monomials of the degree kept by the filter; a total degree
        lists its bidegrees (p, k - p) in increasing p."""
        if degree not in self._basis:
            if len(degree) == 1:
                monos = [m for (p, q), _ in self._blocks(degree[0])
                         for m in self.basis(p, q)]
            else:
                monos = self.spec.basis(*degree)
                if self.filter is not None:
                    monos = [m for m in monos if self.filter(m)]
            self._basis[degree] = monos
        return self._basis[degree]

    def _blocks(self, k):
        """(bidegree, offset) of each bidegree inside total degree k."""
        out, offset = [], 0
        for p in range(k + 1):
            out.append(((p, k - p), offset))
            offset += len(self.basis(p, k - p))
        return out

    def weights(self, *degree):
        return [self.ip.weight(m) for m in self.basis(*degree)]

    def coords(self, form, *degree):
        """Coefficient vector of form on the degree's basis."""
        basis = self.basis(*degree)
        index = {m: i for i, m in enumerate(basis)}
        vec = [ZERO] * len(basis)
        for m, c in form.components.items():
            if m not in index:
                raise ModelError("form outside the %s subcomplex basis"
                                 % _label(degree))
            vec[index[m]] = c
        return vec

    def _degree(self, theory, form):
        """Degree of form in the theory's grading, None unless homogeneous."""
        degrees = {self.spec.monomial_bidegree(m) for m in form.components}
        if len(SHIFT[_theory(theory).closed[0]]) == 1:  # total degree
            degrees = {(p + q,) for p, q in degrees}
        return degrees.pop() if len(degrees) == 1 else None

    # -- matrices ------------------------------------------------------

    def _derive(self, which, form):
        assignments = (self.spec.del_assignments if which == "del"
                       else self.spec.dbar_assignments)
        return apply_derivation(self.spec, assignments, form)

    def matrix(self, op, *degree):
        """Matrix of op (a SHIFT key) from degree into degree + shift."""
        key = (op,) + degree
        if key not in self._matrix:
            self._matrix[key] = self._assemble(op, degree)
        return self._matrix[key]

    def _assemble(self, op, degree):
        if op == "ddbar":
            p, q = degree
            return self.matrix("del", p, q + 1).matmul(
                self.matrix("dbar", p, q))
        if op == "d":
            # del and dbar land in different bidegrees, so d is their
            # blocks placed side by side
            k = degree[0]
            mat = Matrix(len(self.basis(k + 1)), len(self.basis(k)))
            rows_at = dict(self._blocks(k + 1))
            for (p, q), col in self._blocks(k):
                for which, target in (("del", (p + 1, q)),
                                      ("dbar", (p, q + 1))):
                    row = rows_at[target]
                    block = self.matrix(which, p, q)
                    for i, entries in enumerate(block.data):
                        out = mat.data[row + i]
                        for j, a in entries.items():
                            out[col + j] = a
            return mat
        src = self.basis(*degree)
        dst = self.basis(*(a + b for a, b in zip(degree, SHIFT[op])))
        index = {m: i for i, m in enumerate(dst)}
        mat = Matrix(len(dst), len(src))
        for j, mono in enumerate(src):
            image = self._derive(op, self.spec.monomial_form(mono))
            for m, c in image.components.items():
                if m not in index:
                    raise AssemblyError(
                        "%s image leaves the subcomplex at %s" % (op, mono))
                mat.data[index[m]][j] = c
        return mat

    def ddbar_matrix(self, p, q):
        """del dbar from (p, q) to (p+1, q+1)."""
        return self.matrix("ddbar", p, q)

    def adjoint_matrix(self, op, *degree):
        """Adjoint of op mapping the degree down by op's shift."""
        src = _source(degree, op)
        if src is None:
            return Matrix(0, len(self.basis(*degree)))
        return self._weighted_adjoint(self.matrix(op, *src), src, degree)

    def ddbar_adjoint_matrix(self, p, q):
        return self.adjoint_matrix("ddbar", p, q)

    def _weighted_adjoint(self, fwd, src, dst):
        """W_src^-1 fwd^H W_dst: adjoint in the weighted inner products."""
        adj = fwd.conj_transpose()
        wsrc = self.weights(*src)
        wdst = self.weights(*dst)
        out = Matrix(adj.rows, adj.cols)
        for i, row in enumerate(adj.data):
            inv = GaussianRational(1 / wsrc[i])
            for j, a in row.items():
                out.data[i][j] = inv * a * GaussianRational(wdst[j])
        return out

    def _exact_into(self, theory, degree):
        """Matrix whose column span is the theory's exact forms at degree."""
        parts = [self.matrix(op, *src) for op in _theory(theory).exact
                 for src in (_source(degree, op),) if src is not None]
        return reduce(Matrix.hstack, parts,
                      Matrix(len(self.basis(*degree)), 0))

    def _validate_squares(self):
        for g in self.spec.generators:
            f = self.spec.gen(g.name)
            for label, value in (
                    ("del^2", self._derive("del", self._derive("del", f))),
                    ("dbar^2", self._derive("dbar", self._derive("dbar", f))),
                    ("del dbar + dbar del",
                     self._derive("del", self._derive("dbar", f))
                     + self._derive("dbar", self._derive("del", f)))):
                if not value.is_zero():
                    raise AssemblyError(
                        "%s != 0 on generator %s (bidegree %s): %s"
                        % (label, g.name, g.bidegree, value.pretty(True)))

    # -- star ----------------------------------------------------------

    def _star_monomial(self, mono):
        """(complement, c): star of the monomial is c times its
        complement, with c = weight / (+-1) real."""
        spec = self.spec
        vol = spec.volume_monomial
        comp = tuple(v - e for v, e in zip(vol, mono))
        pairing = spec.monomial_form(mono).wedge(spec.monomial_form(comp))
        s = pairing.components[vol]  # +-1, never zero
        return comp, GaussianRational(self.ip.weight(mono)) / s

    def star(self, form):
        """Conjugate-linear Hodge star for the diagonal inner product."""
        out = self.spec.zero()
        for mono, coeff in form.components.items():
            comp, c = self._star_monomial(mono)
            out = out + self.spec.monomial_form(comp, coeff.conjugate() * c)
        return out

    def _after_star(self, op, degree):
        """Matrix K with: op(star a) = 0  <=>  K a = 0.

        Read off op at the dual degree: star sends basis monomial j to
        c_j times its complement and is conjugate-linear, so column j of
        K is c_j times the conjugate of op's column at the complement.
        """
        n = self.spec.n
        dual = ((2 * n - degree[0],) if len(degree) == 1
                else (n - degree[0], n - degree[1]))
        fwd = self.matrix(op, *dual)
        index = {m: i for i, m in enumerate(self.basis(*dual))}
        src = self.basis(*degree)
        column = {}
        for j, mono in enumerate(src):
            comp, c = self._star_monomial(mono)
            column[index.get(comp)] = (j, c)
        if None in column or len(column) != len(index):
            raise AssemblyError("subcomplex is not closed under star at %s"
                                % _label(degree))
        mat = Matrix(fwd.rows, len(src))
        for entries, out in zip(fwd.data, mat.data):
            for i, a in entries.items():
                j, c = column[i]
                out[j] = c * a.conjugate()
        return mat

    # -- harmonic spaces -----------------------------------------------

    def harmonic_space(self, theory, *degree):
        """Exact kernel basis of closed + co-exact conditions.

        The co-exact conditions are built twice: as each exact operator
        after star (with the conjugate-linear star, X* is proportional
        to star X star for X in {del, dbar, del dbar, d}) and as its
        weighted adjoint.  The two kernels must agree.
        """
        key = (theory,) + degree
        if key not in self._harmonic:
            ops = _theory(theory)
            closed = [self.matrix(op, *degree) for op in ops.closed]
            by_star = kernel_basis(reduce(Matrix.stack, closed + [
                self._after_star(op, degree) for op in ops.exact]))
            by_adjoint = kernel_basis(reduce(Matrix.stack, closed + [
                self.adjoint_matrix(op, *degree) for op in ops.exact]))
            if not by_star.equals(by_adjoint):
                raise AssemblyError(
                    "star-based and adjoint-based %s harmonic spaces "
                    "disagree at %s" % (theory, _label(degree)))
            basis = self.basis(*degree)
            forms = [Form(self.spec, {m: c for m, c in zip(basis, v) if c})
                     for v in by_star.basis]
            self._harmonic[key] = HarmonicBasis(
                theory, degree if len(degree) > 1 else degree[0], forms,
                by_star)
        return self._harmonic[key]

    def de_rham_harmonic(self, k):
        return self.harmonic_space("de_rham", k)

    def is_harmonic(self, theory, form):
        """Whether form lies in the harmonic space of its degree."""
        if form.is_zero():
            return True
        degree = self._degree(theory, form)
        if degree is None:
            return False
        return self.harmonic_space(theory, *degree).space.contains(
            self.coords(form, *degree))

    # -- quotient dimensions (the inner-product-free oracle) -----------

    def cohomology_dim(self, theory, *degree):
        """dim ker(closed) - rank(exact into the degree)."""
        key = (theory,) + degree
        if key not in self._dim:
            closed = reduce(Matrix.stack, [self.matrix(op, *degree)
                                           for op in _theory(theory).closed])
            self._dim[key] = (closed.cols - closed.rank()
                              - self._exact_into(theory, degree).rank())
        return self._dim[key]

    def betti(self, k):
        return self.cohomology_dim("de_rham", k)

    # -- classes -------------------------------------------------------

    def _projection_for(self, theory, degree):
        """(Projector onto the harmonic space, RREF of the exact forms)."""
        key = (theory,) + degree
        if key not in self._projection:
            self._projection[key] = (
                linalg.Projector(self.harmonic_space(theory, *degree).space,
                                 self.weights(*degree)),
                linalg.column_space(self._exact_into(theory, degree)))
        return self._projection[key]

    def class_of(self, form, theory):
        """Coordinates of the harmonic projection in the harmonic basis.

        Checks the theory's closedness precondition, projects, and
        verifies that the residual is exact in the theory's sense.
        """
        degree = self._degree(theory, form)
        if degree is None:
            raise NotClosedError("form is not homogeneous")
        vec = self.coords(form, *degree)
        for op in _theory(theory).closed:
            if any(self.matrix(op, *degree).mul_vec(vec)):
                raise NotClosedError("form is not %s-closed at %s"
                                     % (theory, _label(degree)))
        projector, exact = self._projection_for(theory, degree)
        coeffs = projector.coefficients(vec)
        if not exact.contains(
                linalg.vec_sub(vec, projector.space.combine(coeffs))):
            raise AssemblyError(
                "harmonic decomposition failed for %s at %s"
                % (theory, _label(degree)))
        return coeffs

    # -- tables --------------------------------------------------------

    def cohomology_table(self):
        n = self.spec.n
        h_dbar, h_del, h_bc, h_a = {}, {}, {}, {}
        for p in range(n + 1):
            for q in range(n + 1):
                for table, theory in ((h_dbar, "dolbeault"),
                                      (h_del, "conj_dolbeault"),
                                      (h_bc, "bott_chern"),
                                      (h_a, "aeppli")):
                    d = self.cohomology_dim(theory, p, q)
                    if d:
                        table[(p, q)] = d
        betti = [self.betti(k) for k in range(2 * n + 1)]
        return CohomologyTable(self.spec.name, n, h_dbar, h_del, h_bc, h_a,
                               betti)
