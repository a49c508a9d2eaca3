"""Exact linear algebra over Gaussian rationals.

Matrices are stored as sparse rows (dict col -> scalar); the structure
matrices showing up downstream have only a handful of nonzero entries
per row, so elimination stays cheap even at ambient dimension ~1000.

One routine row-reduces: `Echelon`, which keeps the reduced row echelon
form of a span as rows are added.  Ranks, kernels, solutions, the basis
a `Subspace` keeps and the inverses that a `Projector` (its Gram matrix)
and a `MinNormSolver` (rank sized) factor once are all read off it.

Most rows reaching an elimination hold about one entry once reduced, so
the sparse kernels keep two rules.  A unit row costs dictionary
operations only: a row that reduces to one entry is kept as {c: 1}, and
a unit row clears its column from a residual or from the kept rows by
deleting it.  A column not yet in a row costs no addition: the product
is stored as it is, unless it is zero (a row may hold an explicit zero,
as rows built with a zero weight do).  `axpy`, and `_combine` over a
list of rows, are the one sparse sum that keeps that rule; products,
projections, derivations and wedges all accumulate through them.

Hermitian inner products are diagonal with positive rational weights and
conjugate-linear in the second argument throughout.
"""

from __future__ import annotations

from .scalars import GaussianRational, ZERO, ONE


class DimensionMismatch(ValueError):
    """Ambient dimensions of two operands disagree."""


def _sparse(v):
    """Nonzero entries of a dense vector as a sparse row dict, each
    entry coerced to a scalar once."""
    row = {}
    for j, a in enumerate(v):
        a = GaussianRational.of(a)
        if a:
            row[j] = a
    return row


class Matrix:
    """Sparse rows x cols matrix over GaussianRational.

    A matrix is filled in when it is built and not changed after its
    first product: `columns`, which products read, is built once."""

    __slots__ = ("rows", "cols", "data", "_columns")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        # data: list of dicts col -> nonzero GaussianRational
        self.data = [dict() for _ in range(rows)] if data is None else data
        self._columns = None

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch("matrix has %d cols, vector has %d entries"
                                    % (self.cols, len(v)))
        out = self.mul_rows([_sparse(v)])[0]
        return [out.get(i, ZERO) for i in range(self.rows)]

    def matmul(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        return Matrix(self.rows, other.cols,
                      [_combine(row.items(), other.data) for row in self.data])

    def columns(self):
        """The columns as sparse rows {row index: scalar}, built on the
        first call and shared: read them, do not change them."""
        if self._columns is None:
            self._columns = [{} for _ in range(self.cols)]
            for i, row in enumerate(self.data):
                for j, a in row.items():
                    self._columns[j][i] = a
        return self._columns

    def mul_rows(self, xs):
        """M x for each sparse column vector x {col: scalar} of xs, as
        sparse rows {row index: scalar}."""
        columns = self.columns()
        return [_combine(x.items(), columns) for x in xs]

    def is_zero(self):
        return all(not row for row in self.data)

    def rank(self):
        return len(Echelon(self.data))

    def __repr__(self):
        return "Matrix(%dx%d, %d nonzero)" % (
            self.rows, self.cols, sum(len(r) for r in self.data))


def _residual(row, by_pivot):
    """What is left of a sparse row after clearing the pivot columns of
    by_pivot, a map pivot column -> row with 1 there and 0 at every other
    pivot column.  One pass over the row's own entries suffices: clearing
    one pivot column leaves the others as they were.  A unit pivot row
    {c: 1} costs no arithmetic: column c is deleted."""
    out = dict(row)
    for c, a in row.items():
        piv = by_pivot.get(c)
        if piv is not None:
            if len(piv) == 1:
                del out[c]
            else:
                axpy(out, -a, piv)
    return out


def axpy(acc, c, row):
    """acc += c * row for sparse rows, in place; entries that cancel, and
    zero products (a row may hold an explicit zero), are dropped.
    Returns acc."""
    for j, a in row.items():
        old = acc.get(j)
        v = c * a if old is None else old + c * a
        if v:
            acc[j] = v
        else:
            acc.pop(j, None)
    return acc


def _combine(terms, rows):
    """The sparse row sum c * rows[k] over the (k, c) terms."""
    out = {}
    for k, c in terms:
        axpy(out, c, rows[k])
    return out


class Echelon:
    """The reduced row echelon form (RREF) of the span of sparse rows,
    grown one row at a time: each kept row has 1 at its pivot, its first
    column, and 0 at every other pivot column.  That form of a row space
    is unique, so it does not depend on the order of the rows.  `add`
    never changes the row it is given.  A row that reduces to a single
    entry is kept as {c: ONE}, with no division, and clearing column c
    from the kept rows then only deletes it.  The rows given hold no
    zero entry.

    `_touched` holds every non-pivot column at which a kept row may be
    nonzero (it may hold more).  A new pivot column outside it is 0 in
    every kept row, so adding that row rewrites no other row."""

    __slots__ = ("_by_pivot", "_touched")

    def __init__(self, rows=()):
        self._by_pivot = {}
        self._touched = set()
        self.extend(rows)

    def __len__(self):
        return len(self._by_pivot)

    def extend(self, rows):
        """Add each nonempty row; an empty one adds nothing."""
        for row in filter(None, rows):
            self.add(row)

    def add(self, row):
        """Add the sparse row; whether it was outside the span so far."""
        if not row:
            return False
        row = _residual(row, self._by_pivot)
        if not row:
            return False
        c = min(row)
        if len(row) == 1:
            row = {c: ONE}
        elif row[c] != 1:
            inv = ONE / row[c]
            row = {j: a * inv for j, a in row.items()}
        touched = self._touched
        if c in touched:
            for other in self._by_pivot.values():
                a = other.get(c)
                if a is not None:
                    if len(row) == 1:
                        del other[c]
                    else:
                        axpy(other, -a, row)
        # the row holds no other pivot column, and no kept row holds c now
        touched.update(row)
        touched.discard(c)
        self._by_pivot[c] = row
        return True

    def view(self):
        """The RREF as {pivot column: row} in increasing pivot order."""
        return dict(sorted(self._by_pivot.items()))

    def copy(self):
        """An independent Echelon of the same span.  `add` rewrites the
        rows it keeps, so the copy gets its own row dicts."""
        other = Echelon()
        other._by_pivot = {c: dict(row) for c, row in self._by_pivot.items()}
        other._touched = set(self._touched)
        return other


def kernel_basis(m):
    """Basis of {v : M v = 0} as a Subspace of dimension m.cols."""
    return _kernel(m.cols, Echelon(m.data).view())


def _kernel(cols, rref):
    """Kernel of the first `cols` columns of an RREF {pivot: row} whose
    pivots all lie in those columns.

    Each free column f gives the kernel row e_f minus column f of the
    RREF at each pivot (RREF rows hold no other pivot column).  No other
    kernel row is nonzero at f, so when no RREF row holds f, e_f is a row
    of the kernel's own RREF as it stands; only the rows of the free
    columns that some RREF row holds are reduced."""
    free = {f: {f: ONE} for f in range(cols) if f not in rref}
    coupled = set()
    for c, row in rref.items():
        for f, a in row.items():
            if f != c and f < cols:
                free[f][c] = -a
                coupled.add(f)
    by_pivot = Echelon(row for f, row in free.items()
                       if f in coupled)._by_pivot
    by_pivot.update((f, row) for f, row in free.items() if f not in coupled)
    return Subspace._from_rref(cols, dict(sorted(by_pivot.items())))


def solve(m, b):
    """Some x with M x = b, or None when b is outside the column span."""
    if len(b) != m.rows:
        raise DimensionMismatch("rhs length %d != %d rows" % (len(b), m.rows))
    echelon = Echelon()
    for row, bi in zip(m.data, b):
        bi = GaussianRational.of(bi)
        echelon.add({**row, m.cols: bi} if bi else row)
    rref = echelon.view()
    if m.cols in rref:
        return None
    x = [ZERO] * m.cols
    for c, row in rref.items():
        x[c] = row.get(m.cols, ZERO)
    return x


class Subspace:
    """A linear subspace of a coordinate space, given by a spanning set.

    Keeps only its RREF, as the sparse rows of an Echelon view, so
    membership tests and dimension counts are canonical; `basis` lists
    them as dense vectors on demand.
    """

    __slots__ = ("ambient", "_by_pivot")

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        vectors = list(vectors)
        for v in vectors:
            self._check_length(v)
        self._by_pivot = Echelon(map(_sparse, vectors)).view()

    @classmethod
    def _from_rows(cls, ambient, rows):
        """Subspace spanned by sparse row dicts {column: scalar}."""
        return cls._from_rref(ambient, Echelon(rows).view())

    @classmethod
    def _from_rref(cls, ambient, by_pivot):
        """Subspace whose RREF {pivot: row} in increasing pivot order is
        given; it keeps the dict and its rows."""
        self = cls.__new__(cls)
        self.ambient = ambient
        self._by_pivot = by_pivot
        return self

    @property
    def basis(self):
        return [self._row_to_vec(r) for r in self._by_pivot.values()]

    @property
    def rows(self):
        """The RREF basis as sparse rows {column: scalar} in increasing
        pivot order, shared with the subspace: read them, do not change
        them."""
        return list(self._by_pivot.values())

    def _row_to_vec(self, row):
        v = [ZERO] * self.ambient
        for j, a in row.items():
            v[j] = a
        return v

    @property
    def dim(self):
        return len(self._by_pivot)

    def _check_length(self, v):
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length %d != ambient %d"
                                    % (len(v), self.ambient))

    def contains(self, v):
        self._check_length(v)
        return self.contains_row(_sparse(v))

    def contains_row(self, row):
        """Whether the sparse row {column: scalar} lies in the subspace."""
        return not _residual(row, self._by_pivot)

    def equals(self, other):
        """Equal subspaces have the same (canonical) reduced rows."""
        self._check(other)
        return self._by_pivot == other._by_pivot

    def _check(self, other):
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ: %d vs %d"
                                    % (self.ambient, other.ambient))

    def __repr__(self):
        return "Subspace(ambient=%d, dim=%d)" % (self.ambient, self.dim)


def inner(u, v, weights=None):
    """Hermitian inner product, conjugate-linear in v.

    weights: per-coordinate positive rationals (default all 1).
    """
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    acc = ZERO
    for k in range(len(u)):
        if u[k] and v[k]:
            term = u[k] * v[k].conjugate()
            if weights is not None:
                term = term * GaussianRational(weights[k])
            acc = acc + term
    return acc


def _conjugates(rows, weights):
    """Each sparse row conjugated and times its columns' scalar weights."""
    return [{j: a.conjugate() if weights[j] is ONE
             else a.conjugate() * weights[j]
             for j, a in row.items()} for row in rows]


def _inverse(rows, name):
    """Inverse of the k x k matrix given as k sparse rows, as sparse
    rows: the RREF of [A | I] is [I | A^-1] unless A is singular and a
    pivot lands in I."""
    k = len(rows)
    rref = Echelon({**row, k + i: ONE} for i, row in enumerate(rows)).view()
    if list(rref) != list(range(k)):
        raise ArithmeticError("%s matrix is singular" % name)
    return [{j - k: a for j, a in row.items() if j >= k}
            for row in rref.values()]


class Projector:
    """Weighted orthogonal projection onto a fixed subspace.

    Factored once: keeps the weighted conjugates of the basis rows by
    column and the inverse of the transposed basis Gram matrix, so a
    projection costs one sparse product with each of them.
    """

    __slots__ = ("space", "_dual", "_gram_inv")

    def __init__(self, space, weights=None):
        """`weights`: each column's weight as a scalar, ONE for a unit
        weight; None for all ONE."""
        self.space = space
        rows = space.rows
        # <v, b_i> = sum_t v_t * dual[t][i]; no product for a unit weight
        self._dual = Matrix(len(rows), space.ambient, _conjugates(
            rows, weights or [ONE] * space.ambient)).columns()
        # row j of G^T, G[i][j] = <b_j, b_i>, sums b_j[t] times dual[t];
        # row i of its inverse is column i of G^-1
        self._gram_inv = _inverse([_combine(b.items(), self._dual)
                                   for b in rows], "Gram")

    def coefficients(self, row):
        """Coefficients on space.rows of the projection of the sparse row
        {column: scalar}, as a list."""
        rhs = _combine(row.items(), self._dual)
        coeffs = _combine(rhs.items(), self._gram_inv)
        return [coeffs.get(i, ZERO) for i in range(len(self._gram_inv))]

    def combine(self, coeffs):
        """The sparse row with the given coefficients on space.rows."""
        return _combine(((k, c) for k, c in enumerate(coeffs) if c),
                        self.space.rows)


class MinNormSolver:
    """Minimum-norm solutions of M x = t, factored once from R, the
    RREF {pivot: row} of M's rows, and the inverse weights W^-1 of M's
    columns as scalars (ONE for a unit weight).  x is W-orthogonal to
    ker M = ker R, so x = W^-1 R^H z.  M = C R, C being M on R's pivot
    columns, so rows J of M independent there give an invertible
    rank(M) x rank(M) H = (M W^-1 R^H)_J, and z = H^-1 t_J.
    """

    __slots__ = ("_columns", "_rows", "_dual", "_inv")

    def __init__(self, m, rref, inverse_weights):
        self._columns = m.columns()
        # the columns of W^-1 R^H, as sparse rows
        self._dual = _conjugates(rref.values(), inverse_weights)
        pivots, echelon = list(rref), Echelon()
        self._rows = [i for i, row in enumerate(m.data) if echelon.add(
            {k: row[c] for k, c in enumerate(pivots) if c in row})]
        # row b of H^T sums dual_b[t] times column t of M_J, and row a
        # of the inverse of H^T is column a of H^-1
        columns = Matrix(len(self._rows), m.cols,
                         [m.data[i] for i in self._rows]).columns()
        self._inv = _inverse([_combine(dual.items(), columns)
                              for dual in self._dual], "potential")

    def solve(self, t):
        """The minimum-norm x with M x = t, both sparse rows, or None
        when t is outside M's column span: x is checked against M."""
        z = _combine(((a, t[i]) for a, i in enumerate(self._rows) if i in t),
                     self._inv)
        x = _combine(z.items(), self._dual)
        return x if _combine(x.items(), self._columns) == t else None


def orthogonal_project(space, v, weights=None):
    """Orthogonal projection of the vector v onto the subspace."""
    space._check_length(v)
    projector = Projector(space, weights and [
        ONE if w == 1 else GaussianRational(w) for w in weights])
    return space._row_to_vec(
        projector.combine(projector.coefficients(_sparse(v))))


def min_norm_solve(m, b, weights=None):
    """Minimum-norm solution of M x = b in the weighted inner product,
    as a dense vector; None when the system is inconsistent.  Unique, so
    deterministic: a `MinNormSolver` on the RREF of M's rows gives it.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("rhs length %d != %d rows" % (len(b), m.rows))
    inverse = [ONE / GaussianRational(w) for w in weights or [1] * m.cols]
    x = MinNormSolver(m, Echelon(m.data).view(), inverse).solve(_sparse(b))
    return None if x is None else [x.get(j, ZERO) for j in range(m.cols)]
