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
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from operator import sub

from . import linalg
from .linalg import Matrix
from .model import Form, ModelError, _merge_monomials, _once
from .scalars import GaussianRational, ONE, ZERO

THEORIES = ("dolbeault", "conj_dolbeault", "bott_chern", "aeppli")

# Degree shift of each operator; d acts on total degrees.
SHIFT = {"del": (1, 0), "dbar": (0, 1), "ddbar": (1, 1), "d": (1,)}

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


def _source(degree, op):
    """The degree op maps into `degree` from, or None below zero."""
    src = tuple(a - b for a, b in zip(degree, SHIFT[op]))
    return src if min(src) >= 0 else None


def _label(degree):
    return "(%s)" % ",".join(str(a) for a in degree)


def _outside(degree):
    return ModelError("form outside the %s subcomplex basis" % _label(degree))


class AssemblyError(ModelError):
    """d^2 != 0 or a non-restricting differential."""


class NotClosedError(ValueError):
    """Input form violates the closedness precondition of a theory."""


def apply_derivation(spec, op, form):
    """The differential op ("del" or "dbar") of the model on a form: its
    images of generators extended as a graded derivation."""
    table = spec._leibniz_table(op)
    out = {}
    for mono, coeff in form.components.items():
        for m, c in _derive_monomial(table, mono).items():
            out[m] = out.get(m, ZERO) + coeff * c
    return Form(spec, out)


def _derive_monomial(table, mono):
    """The derivation of one basis monomial as {monomial: coeff}: the
    Leibniz sum over its factors, read off the model's Leibniz table for
    the operator and no Form built.

    With P[k] the odd degree of the factors before position k, the term
    c*t of the factor g_i^e lands on mono - e_i + t (unless an exponent
    of t's support reaches its truncation) as e*c times the sign of
    left * t * right, left = g_0^m_0 ... g_i^(e-1).  Its parity is
    s = P[i] + (e-1)*odd_i, plus t_k * (s - P[k+1]) for each odd k < i,
    where t passes the rest of left, plus t_k * (P[k] - P[i+1]) for each
    odd k > i+1, where the factors of right before k pass t_k.  Most
    terms reach a truncation, so each is tested first, and P is built
    for the first term that does not.
    """
    odd, trunc, terms = table
    prefix = None
    out = {}
    for i, e in enumerate(mono):
        if not e or terms[i] is None:
            continue
        for support, c, neg in terms[i]:
            for k, t, o in support:
                if mono[k] + t - (k == i) >= trunc[k]:
                    break
            else:
                if prefix is None:
                    prefix = [0]
                    for x, o in zip(mono, odd):
                        prefix.append(prefix[-1] + x * o)
                base = prefix[i] + (e - 1) * odd[i]
                after = prefix[i + 1]
                m = list(mono)
                m[i] = e - 1
                parity = base
                for k, t, o in support:
                    m[k] += t
                    if o:
                        if k < i:
                            parity += t * (base - prefix[k + 1])
                        elif k > i + 1:
                            parity += t * (prefix[k] - after)
                v = neg if parity % 2 else c
                if e != 1:
                    v = v * e
                m = tuple(m)
                old = out.get(m)
                if old is not None:
                    v = old + v
                    if not v:
                        del out[m]
                        continue
                out[m] = v
    return out


_UNIT_WEIGHT = Fraction(1)


class InnerProduct:
    """Diagonal Hermitian metric: positive rational weight per monomial.

    Default declares the canonical monomial basis orthonormal; for the
    Lie-algebra models this is the invariant metric with orthonormal
    coframe.
    """

    def __init__(self, weights=None):
        self.weights = {}
        self._ratios = {}
        for mono, w in (weights or {}).items():
            w = Fraction(w)
            if w <= 0:
                raise ModelError("inner-product weight must be positive")
            mono = tuple(mono)
            self.weights[mono] = w
            self._ratios[mono] = w.numerator, w.denominator

    def weight(self, mono):
        """Weight of a basis monomial (an exponent tuple)."""
        return self.weights.get(mono, _UNIT_WEIGHT)

    def ratio(self, mono):
        """(numerator, denominator) of the weight in lowest terms, read
        once when the metric is built."""
        return self._ratios.get(mono, (1, 1))


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

    def __init__(self, theory, bidegree, rref, spec, basis):
        self.theory = theory
        self.bidegree = bidegree
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
    degree; `basis`, `weights`, `row`, `matrix`, `adjoint_matrix`,
    `harmonic_space` and `cohomology_dim` take either.  monomial_filter
    restricts to a subcomplex spanned by a subset of monomials (used for
    invariant submodels); the restriction is validated at assembly time.

    Every per-degree artifact (bases, matrices, star and adjoint blocks,
    closed RREFs, harmonic spaces, projectors, solvers) is built once per
    engine by a method decorated with `_once` and kept in `_memo`.
    """

    def __init__(self, spec, inner_product=None, monomial_filter=None):
        self.spec = spec
        self.ip = inner_product or InnerProduct()
        self.filter = monomial_filter
        self._memo = defaultdict(dict)
        if monomial_filter is not None and not monomial_filter(spec.volume_monomial):
            raise AssemblyError("volume monomial is outside the subcomplex")
        # (position j, r(j)) for each odd generator: r(j) counts the odd
        # factors of the volume monomial before j; star signs read them
        odd_before = 0
        self._odd_prefix = []
        for j, (g, e) in enumerate(zip(spec.generators, spec.volume_monomial)):
            if g.odd:
                self._odd_prefix.append((j, odd_before))
                odd_before += e
        self._validate_squares()

    # -- bases ---------------------------------------------------------

    @_once
    def basis(self, *degree):
        """Monomials of the degree kept by the filter; a total degree
        lists its bidegrees (p, k - p) in increasing p."""
        if len(degree) == 1:
            return [m for bid in self._offsets(degree[0])
                    for m in self.basis(*bid)]
        monos = self.spec.basis(*degree)
        if self.filter is not None:
            monos = [m for m in monos if self.filter(m)]
        return monos

    @_once
    def index(self, *degree):
        """Position of each basis monomial of the degree."""
        return {m: i for i, m in enumerate(self.basis(*degree))}

    def degrees(self, theory):
        """Degrees of the theory's grading with a nonempty basis, in
        increasing order: (k,) for de Rham, (p, q) otherwise."""
        if _total(theory):
            candidates = [(k,) for k in range(2 * self.spec.n + 1)]
        else:
            candidates = self.spec.bidegrees()
        return [d for d in candidates if self.basis(*d)]

    @_once
    def _offsets(self, k):
        """{bidegree: offset} of each bidegree (p, k - p) inside total
        degree k, in increasing p."""
        out, offset = {}, 0
        for p in range(k + 1):
            out[p, k - p] = offset
            offset += len(self.basis(p, k - p))
        return out

    def weights(self, *degree):
        return [self.ip.weight(m) for m in self.basis(*degree)]

    @_once
    def _weight_scalars(self, numerator, denominator):
        """(w, 1/w, -w) as scalars for the weight w =
        numerator/denominator, in lowest terms; the unit weight gives ONE
        twice."""
        if numerator == denominator:
            return ONE, ONE, -ONE
        scalar = GaussianRational(Fraction(numerator, denominator))
        return scalar, ONE / scalar, -scalar

    @_once
    def _scalar_weights(self, degree):
        """(w, 1/w, -w), three lists over the degree's basis, as
        scalars."""
        ratio = self.ip.ratio
        scalars = [self._weight_scalars(*ratio(m))
                   for m in self.basis(*degree)]
        return tuple([t[k] for t in scalars] for k in range(3))

    def row(self, components, *degree):
        """Coefficients {monomial: scalar} on the degree's basis as a
        sparse row {position: scalar}."""
        index = self.index(*degree)
        try:
            return {index[m]: c for m, c in components.items()}
        except KeyError:
            raise _outside(degree) from None

    def form(self, row, *degree):
        """The Form with the sparse row {position: scalar} as its
        coefficients on the degree's basis."""
        return _form(self.spec, self.basis(*degree), row)

    def terms(self, row, *degree):
        """The sparse row {position: scalar} on the degree's basis as
        (monomial, scalar) terms, the form `wedge_row` takes."""
        basis = self.basis(*degree)
        return [(basis[j], c) for j, c in row.items()]

    @_once
    def product(self, ma, mb):
        """(monomial, +-1) with ma * mb = +-monomial, or (None, 0) when
        the product vanishes."""
        return _merge_monomials(self.spec, ma, mb)

    def wedge_row(self, a, b, *degree):
        """The wedge of two forms given as (monomial, scalar) terms, as a
        sparse row on the basis of the degree it lands in.  A term outside
        that basis is a ModelError, as in `row`."""
        index = self.index(*degree)
        table = self._memo["product"]
        out = {}
        for ma, ca in a:
            for mb, cb in b:
                hit = table.get((ma, mb))
                m, sign = hit if hit is not None else self.product(ma, mb)
                if m is None:
                    continue
                j = index.get(m)
                if j is None:
                    raise _outside(degree)
                c = ca * cb
                old = out.get(j)
                if old is None:
                    v = c if sign > 0 else -c
                else:
                    v = old + c if sign > 0 else old - c
                if v:
                    out[j] = v
                else:
                    out.pop(j, None)
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
        """Matrix of op (a SHIFT key) from degree into degree + shift."""
        if op == "ddbar":
            p, q = degree
            return self.matrix("del", p, q + 1).matmul(
                self.matrix("dbar", p, q))
        if op == "d":
            k = degree[0]
            return self._placed(k + 1, k, [
                ((p + dp, q + dq), (p, q), self.matrix(which, p, q))
                for p, q in self._offsets(k) for which, (dp, dq) in D_PARTS])
        src = self.basis(*degree)
        index = self.index(*(a + b for a, b in zip(degree, SHIFT[op])))
        table = self.spec._leibniz_table(op)
        mat = Matrix(len(index), len(src))
        for j, mono in enumerate(src):
            image = _derive_monomial(table, mono)
            for m, c in image.items():
                if m not in index:
                    raise AssemblyError(
                        "%s image leaves the subcomplex at %s" % (op, mono))
                mat.data[index[m]][j] = c
        return mat

    def ddbar_matrix(self, p, q):
        """del dbar from (p, q) to (p+1, q+1)."""
        return self.matrix("ddbar", p, q)

    def _placed(self, rows, cols, blocks):
        """The matrix from total degree cols to total degree rows with
        the bidegree matrices of blocks, each (row bidegree, column
        bidegree, matrix), placed at their offsets and nothing computed:
        the total-degree artifacts of d are those of del and dbar placed
        side by side, as del and dbar land in different bidegrees."""
        mat = Matrix(len(self.basis(rows)), len(self.basis(cols)))
        row_at, col_at = self._offsets(rows), self._offsets(cols)
        for target, source, block in blocks:
            row, col = row_at[target], col_at[source]
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

    def _validate_squares(self):
        spec = self.spec
        for g in spec.generators:
            f = spec.gen(g.name)
            de, db = (apply_derivation(spec, op, f) for op in ("del", "dbar"))
            for label, value in (
                    ("del^2", apply_derivation(spec, "del", de)),
                    ("dbar^2", apply_derivation(spec, "dbar", db)),
                    ("del dbar + dbar del",
                     apply_derivation(spec, "del", db)
                     + apply_derivation(spec, "dbar", de))):
                if not value.is_zero():
                    raise AssemblyError(
                        "%s != 0 on generator %s (bidegree %s): %s"
                        % (label, g.name, g.bidegree, value.pretty(True)))

    # -- star ----------------------------------------------------------

    def _complement(self, mono):
        """(complement, sign): mono ^ complement = sign vol, for mono
        dividing vol.  Each odd factor j of mono passes the odd factors
        of the complement before it: the r(j) odd factors of vol before
        j less those of mono, which sum to k(k-1)/2 over mono's k odd
        factors.  So the sign is (-1)^(sum of r(j) - k(k-1)/2)."""
        comp = tuple(map(sub, self.spec.volume_monomial, mono))
        passes = k = 0
        for j, r in self._odd_prefix:
            if mono[j]:
                passes += r
                k += 1
        return comp, -1 if (passes - k * (k - 1) // 2) % 2 else 1

    def star(self, form):
        """Conjugate-linear Hodge star for the diagonal inner product:
        the monomial m goes to +-weight(m) times its complement, with
        the sign of m ^ complement = +-vol."""
        out = self.spec.zero()
        for mono, coeff in form.components.items():
            comp, sign = self._complement(mono)
            scalar = self._weight_scalars(*self.ip.ratio(mono))[0]
            c = coeff.conjugate() * scalar
            out = out + self.spec.monomial_form(comp, c if sign > 0 else -c)
        return out

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
        index = self.index(*self._dual(degree))
        src = self.basis(*degree)
        weights, _, negated = self._scalar_weights(degree)
        source, const = [None] * len(index), [None] * len(index)
        for j, mono in enumerate(src):
            comp, sign = self._complement(mono)
            i = index.get(comp)
            if i is None:
                break
            source[i], const[i] = j, weights[j] if sign > 0 else negated[j]
        else:
            # the complement is one to one, so onto when the sizes agree
            if len(src) == len(index):
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
                for p, q in self._offsets(degree[0]) if p <= n and q <= n
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
                raise AssemblyError(
                    "star-based and adjoint-based %s harmonic spaces "
                    "disagree at %s" % (theory, _label(degree)))
        return HarmonicBasis(theory, degree if len(degree) > 1 else degree[0],
                             rref, self.spec, self.basis(*degree))

    @_once
    def harmonic_terms(self, theory, *degree):
        """The rows of the harmonic space as (monomial, scalar) terms, for
        products."""
        return [self.terms(row, *degree)
                for row in self.harmonic_space(theory, *degree).space.rows]

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
                                self.weights(*degree))

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
                linalg.axpy(dict(row), -ONE, projection)):
            raise AssemblyError(
                "harmonic decomposition failed for %s at %s"
                % (theory, _label(degree)))
        return coeffs, projection

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
