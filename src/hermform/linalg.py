"""Exact linear algebra over Gaussian rationals.

Matrices are stored as sparse rows (dict col -> scalar); the structure
matrices showing up downstream have only a handful of nonzero entries
per row, so elimination stays cheap even at ambient dimension ~1000.

Hermitian inner products are diagonal with positive rational weights and
conjugate-linear in the second argument throughout.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussianRational, ZERO, ONE


class DimensionMismatch(ValueError):
    """Ambient dimensions of two operands disagree."""


def _as_scalar(x):
    return GaussianRational.of(x)


class Matrix:
    """Sparse rows x cols matrix over GaussianRational."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        # data: list of dicts col -> nonzero GaussianRational
        self.data = [dict() for _ in range(rows)] if data is None else data

    @classmethod
    def from_rows(cls, rows_list, cols=None):
        """Build from dense row lists (or dicts)."""
        rows = len(rows_list)
        if cols is None:
            cols = max((len(r) for r in rows_list), default=0)
        m = cls(rows, cols)
        for i, row in enumerate(rows_list):
            if isinstance(row, dict):
                items = row.items()
            else:
                items = enumerate(row)
            for j, v in items:
                v = _as_scalar(v)
                if v:
                    m.data[i][j] = v
        return m

    def set(self, i, j, value):
        value = _as_scalar(value)
        if value:
            self.data[i][j] = value
        else:
            self.data[i].pop(j, None)

    def get(self, i, j):
        return self.data[i].get(j, ZERO)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch("matrix has %d cols, vector has %d entries"
                                    % (self.cols, len(v)))
        out = []
        for row in self.data:
            acc = ZERO
            for j, a in row.items():
                if v[j]:
                    acc = acc + a * v[j]
            out.append(acc)
        return out

    def conj_transpose(self):
        m = Matrix(self.cols, self.rows)
        for i, row in enumerate(self.data):
            for j, a in row.items():
                m.data[j][i] = a.conjugate()
        return m

    def stack(self, other):
        """Vertical stack: rows of self above rows of other."""
        if self.cols != other.cols:
            raise DimensionMismatch("column counts differ")
        return Matrix(self.rows + other.rows, self.cols,
                      [dict(r) for r in self.data] + [dict(r) for r in other.data])

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ")
        m = Matrix(self.rows, self.cols + other.cols)
        for i in range(self.rows):
            m.data[i].update(self.data[i])
            for j, a in other.data[i].items():
                m.data[i][self.cols + j] = a
        return m

    def matmul(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        out = Matrix(self.rows, other.cols)
        for i, row in enumerate(self.data):
            acc = {}
            for k, a in row.items():
                for j, b in other.data[k].items():
                    v = acc.get(j, ZERO) + a * b
                    if v:
                        acc[j] = v
                    else:
                        acc.pop(j, None)
            out.data[i] = acc
        return out

    def is_zero(self):
        return all(not row for row in self.data)

    def rank(self):
        return len(_row_echelon([dict(r) for r in self.data], self.cols)[0])

    def __repr__(self):
        return "Matrix(%dx%d, %d nonzero)" % (
            self.rows, self.cols, sum(len(r) for r in self.data))


def _row_echelon(rows, cols):
    """In-place reduced row echelon on sparse row dicts.

    Returns (pivot_cols, reduced_rows) with unit pivots, pivot columns
    cleared above and below.
    """
    pivots = []
    reduced = []
    for col in range(cols):
        best = None
        for idx, row in enumerate(rows):
            if col in row:
                if best is None or len(rows[best]) > len(row):
                    best = idx
        if best is None:
            continue
        piv = rows.pop(best)
        inv = ONE / piv[col]
        piv = {j: a * inv for j, a in piv.items()}
        for row in rows:
            a = row.get(col)
            if a is not None:
                for j, b in piv.items():
                    v = row.get(j, ZERO) - a * b
                    if v:
                        row[j] = v
                    else:
                        row.pop(j, None)
        for row in reduced:
            a = row.get(col)
            if a is not None:
                for j, b in piv.items():
                    v = row.get(j, ZERO) - a * b
                    if v:
                        row[j] = v
                    else:
                        row.pop(j, None)
        reduced.append(piv)
        pivots.append(col)
        rows = [r for r in rows if r]
    return pivots, reduced


def kernel_basis(m):
    """Basis of {v : M v = 0} as a Subspace of dimension m.cols."""
    pivots, reduced = _row_echelon([dict(r) for r in m.data], m.cols)
    pivot_set = set(pivots)
    # one kernel row per free column f: 1 at f, minus column f of the
    # RREF at each pivot (RREF rows hold no other pivot column)
    free = {f: {f: ONE} for f in range(m.cols) if f not in pivot_set}
    for c, row in zip(pivots, reduced):
        for f, a in row.items():
            if f != c:
                free[f][c] = -a
    return Subspace._from_rows(m.cols, list(free.values()))


def column_space(m):
    """Span of the columns of M as a Subspace of dimension m.rows."""
    cols = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.data):
        for j, a in row.items():
            cols[j][i] = a
    return Subspace._from_rows(m.rows, [c for c in cols if c])


def solve(m, b):
    """Some x with M x = b, or None when b is outside the column span."""
    if len(b) != m.rows:
        raise DimensionMismatch("rhs length %d != %d rows" % (len(b), m.rows))
    aug = []
    for i, row in enumerate(m.data):
        r = dict(row)
        bi = _as_scalar(b[i])
        if bi:
            r[m.cols] = bi
        aug.append(r)
    pivots, reduced = _row_echelon(aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for c, row in zip(pivots, reduced):
        x[c] = row.get(m.cols, ZERO)
    return x


class Subspace:
    """A linear subspace of a coordinate space, given by a spanning set.

    Keeps only its sparse reduced row echelon rows, so membership tests
    and dimension counts are canonical; `basis` lists them as dense
    vectors on demand.
    """

    __slots__ = ("ambient", "_rref", "_pivots")

    def __init__(self, ambient, vectors=()):
        self.ambient = ambient
        rows = []
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatch("vector length %d != ambient %d"
                                        % (len(v), ambient))
            row = {j: _as_scalar(a) for j, a in enumerate(v) if _as_scalar(a)}
            if row:
                rows.append(row)
        self._pivots, self._rref = _row_echelon(rows, ambient)

    @classmethod
    def _from_rows(cls, ambient, rows):
        """Subspace spanned by nonzero sparse row dicts, reduced in place."""
        self = cls.__new__(cls)
        self.ambient = ambient
        self._pivots, self._rref = _row_echelon(rows, ambient)
        return self

    @property
    def basis(self):
        return [self._row_to_vec(r) for r in self._rref]

    def _row_to_vec(self, row):
        v = [ZERO] * self.ambient
        for j, a in row.items():
            v[j] = a
        return v

    @property
    def dim(self):
        return len(self._rref)

    def _reduce(self, v):
        row = {j: _as_scalar(a) for j, a in enumerate(v) if _as_scalar(a)}
        for c, piv in zip(self._pivots, self._rref):
            a = row.get(c)
            if a is not None:
                for j, b in piv.items():
                    val = row.get(j, ZERO) - a * b
                    if val:
                        row[j] = val
                    else:
                        row.pop(j, None)
        return row

    def contains(self, v):
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length %d != ambient %d"
                                    % (len(v), self.ambient))
        return not self._reduce(v)

    def coordinates(self, v):
        """Coefficients of v on self.basis, or None if v is outside."""
        if not self.contains(v):
            return None
        coords = [ZERO] * self.dim
        row = {j: _as_scalar(a) for j, a in enumerate(v) if _as_scalar(a)}
        for k, (c, piv) in enumerate(zip(self._pivots, self._rref)):
            a = row.get(c)
            if a is not None:
                coords[k] = a
                for j, b in piv.items():
                    val = row.get(j, ZERO) - a * b
                    if val:
                        row[j] = val
                    else:
                        row.pop(j, None)
        return coords

    def combine(self, coords):
        """The vector with the given coefficients on self.basis."""
        v = [ZERO] * self.ambient
        for c, row in zip(coords, self._rref):
            if c:
                for j, a in row.items():
                    v[j] = v[j] + c * a
        return v

    def equals(self, other):
        """Equal subspaces have the same (canonical) reduced rows."""
        self._check(other)
        return self._rref == other._rref

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


class Projector:
    """Weighted orthogonal projection onto a fixed subspace.

    Factored once: keeps the weighted conjugate of each basis row and
    the inverse of the basis Gram matrix, so a projection costs one
    sparse dot product per basis vector and one k x k product.
    """

    __slots__ = ("space", "_dual", "_gram_inv")

    def __init__(self, space, weights=None):
        self.space = space
        rows = space._rref
        k = len(rows)
        # <v, b_i> = sum_j v_j * dual_i[j]
        self._dual = [{j: a.conjugate() if weights is None
                       else a.conjugate() * GaussianRational(weights[j])
                       for j, a in row.items()} for row in rows]
        # G[i][j] = <b_j, b_i>; invert by row-reducing [G | I]
        aug = []
        for i, dual in enumerate(self._dual):
            g = {k + i: ONE}
            for j, row in enumerate(rows):
                acc = ZERO
                for t, a in row.items():
                    d = dual.get(t)
                    if d is not None:
                        acc = acc + a * d
                if acc:
                    g[j] = acc
            aug.append(g)
        pivots, reduced = _row_echelon(aug, k)
        if len(pivots) != k:
            raise ArithmeticError("Gram matrix is singular")
        self._gram_inv = [{j - k: a for j, a in row.items() if j >= k}
                          for row in reduced]

    def coefficients(self, v):
        """Coefficients of the projection of v on space.basis."""
        if len(v) != self.space.ambient:
            raise DimensionMismatch("vector length %d != ambient %d"
                                    % (len(v), self.space.ambient))
        rhs = []
        for dual in self._dual:
            acc = ZERO
            for j, d in dual.items():
                if v[j]:
                    acc = acc + v[j] * d
            rhs.append(acc)
        coeffs = []
        for row in self._gram_inv:
            acc = ZERO
            for j, a in row.items():
                if rhs[j]:
                    acc = acc + a * rhs[j]
            coeffs.append(acc)
        return coeffs

    def project(self, v):
        """The projection of v; the residual is orthogonal to the space."""
        return self.space.combine(self.coefficients(v))


def orthogonal_project(space, v, weights=None):
    """Orthogonal projection of v onto the subspace."""
    return Projector(space, weights).project(v)


def min_norm_solve(m, b, weights=None):
    """Minimum-norm solution of M x = b in the weighted inner product.

    Returns None when the system is inconsistent.  Deterministic: the
    particular solution from row reduction is projected off the kernel.
    """
    x0 = solve(m, b)
    if x0 is None:
        return None
    ker = kernel_basis(m)
    if ker.dim == 0:
        return x0
    p = orthogonal_project(ker, x0, weights)
    return [a - c for a, c in zip(x0, p)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]
