"""Exact linear algebra: kernels, solving, subspaces, projections."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from hermform import linalg
from hermform.linalg import (DimensionMismatch, Matrix, Projector, Subspace,
                             inner, kernel_basis, min_norm_solve,
                             orthogonal_project, solve)
from hermform.scalars import GaussianRational, ZERO, ONE


def rand_matrix(rng, rows, cols, density=0.4):
    m = Matrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                m.data[i][j] = GaussianRational(rng.randint(-3, 3),
                                                rng.randint(-3, 3))
            if not m.data[i].get(j):
                m.data[i].pop(j, None)
    return m


def dense_matrix(rows):
    """The Matrix with the given dense rows, zeros left out."""
    m = Matrix(len(rows), len(rows[0]) if rows else 0)
    for out, row in zip(m.data, rows):
        for j, a in enumerate(row):
            a = GaussianRational.of(a)
            if a:
                out[j] = a
    return m


def rand_vec(rng, n):
    return [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(n)]


def test_rank_nullity_random():
    rng = random.Random(3)
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = rand_matrix(rng, rows, cols)
        assert m.rank() + kernel_basis(m).dim == cols


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        for v in kernel_basis(m).basis:
            assert all(not c for c in m.mul_vec(v))


def test_solve_roundtrip():
    rng = random.Random(9)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(rng, rows, cols)
        x = rand_vec(rng, cols)
        b = m.mul_vec(x)
        got = solve(m, b)
        assert got is not None
        assert m.mul_vec(got) == b


def test_solve_detects_inconsistency():
    m = dense_matrix([[1, 0], [1, 0]])
    assert solve(m, [ONE, GaussianRational(2)]) is None
    assert solve(m, [ONE, ONE]) is not None


def test_subspace_membership_and_coordinates():
    s = Subspace(3, [[1, 0, 1], [0, 1, 1]])
    assert s.dim == 2
    assert s.contains([ONE, ONE, GaussianRational(2)])
    assert not s.contains([ONE, ZERO, ZERO])
    # a member is its own projection, so its coefficients rebuild it
    member = {0: ONE, 1: ONE, 2: GaussianRational(2)}
    coords = Projector(s).coefficients(member)
    rebuilt = [ZERO, ZERO, ZERO]
    for c, b in zip(coords, s.basis):
        for i, a in enumerate(b):
            rebuilt[i] = rebuilt[i] + c * a
    assert rebuilt == [ONE, ONE, GaussianRational(2)]
    assert Projector(s).combine(coords) == member
    assert s.equals(Subspace(3, [[1, 1, 2], [1, -1, 0], [2, 0, 2]]))
    assert not s.equals(Subspace(3, [[1, 1, 2]]))


def _dense(row, n):
    return [row.get(j, ZERO) for j in range(n)]


def _sparse(v):
    return {j: a for j, a in enumerate(v) if a}


def test_sparse_membership_matches_dense_random():
    """contains_row on a sparse row agrees with contains on the dense
    vector, and exactly the members are their own projection, for
    members (random combinations of the spanning set) and random
    vectors alike."""
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 7)
        vectors = [_dense(rand_matrix(rng, 1, n).data[0], n)
                   for _ in range(rng.randint(0, 4))]
        s = Subspace(n, vectors)
        for _ in range(6):
            if vectors and rng.random() < 0.5:
                v = [ZERO] * n
                for b in vectors:
                    c = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                    v = [x + c * y for x, y in zip(v, b)]
            else:
                v = _dense(rand_matrix(rng, 1, n).data[0], n)
            row = {j: a for j, a in enumerate(v) if a}
            inside = s.contains_row(row)
            assert inside == s.contains(v)
            assert inside == (Subspace(n, vectors + [v]).dim == s.dim)
            projector = Projector(s)
            assert inside == (
                projector.combine(projector.coefficients(row)) == row)


def test_echelon_add_reports_rank_growth():
    rng = random.Random(59)
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = [rand_matrix(rng, 1, n).data[0]
                for _ in range(rng.randint(0, 8))]
        snapshot = [dict(r) for r in rows]
        echelon = linalg.Echelon()
        for k, row in enumerate(rows):
            before = [_dense(r, n) for r in rows[:k]]
            grows = (Subspace(n, before + [_dense(row, n)]).dim
                     > Subspace(n, before).dim)
            assert echelon.add(row) == grows
            assert len(echelon) == Subspace(n, before + [_dense(row, n)]).dim
        assert rows == snapshot  # the rows added are left as they are


def test_echelon_copy_is_independent():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = [rand_matrix(rng, 1, n).data[0]
                for _ in range(rng.randint(0, 6))]
        extra = [rand_matrix(rng, 1, n).data[0]
                 for _ in range(rng.randint(1, 4))]
        original = linalg.Echelon(rows)
        before = {c: dict(row) for c, row in original.view().items()}
        copy = original.copy()
        for row in extra:
            copy.add(row)
        assert original.view() == before
        # the RREF of a span does not depend on the order of its rows
        assert copy.view() == linalg.Echelon(reversed(rows + extra)).view()


def test_echelon_keeps_its_own_rows():
    """Changing a row after adding it leaves the RREF as it was, also for
    a row that is already reduced with 1 at its pivot, which add keeps
    without rescaling; a multiple of a row gives the same RREF."""
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(2, 6)
        # the first row is reduced, with 1 at its pivot, when it is added
        rows = [{0: ONE, n - 1: GaussianRational(2, -1)}]
        rows += [rand_matrix(rng, 1, n).data[0] for _ in range(3)]
        echelon = linalg.Echelon()
        for row in rows:
            echelon.add(row)
        before = {c: dict(row) for c, row in echelon.view().items()}
        for row in rows:
            row[0] = GaussianRational(7, 5)
        assert echelon.view() == before
    three = GaussianRational(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        row = rand_matrix(rng, 1, n, density=0.7).data[0]
        scaled = {j: three * a for j, a in row.items()}
        assert linalg.Echelon([row]).view() == linalg.Echelon([scaled]).view()


def _gauss_jordan(rows, n):
    """Dense reference RREF of the span of sparse rows over n columns,
    as {pivot column: sparse row}."""
    m = [_dense(row, n) for row in rows]
    pivots = []
    for c in range(n):
        top = len(pivots)
        p = next((i for i in range(top, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[top], m[p] = m[p], m[top]
        inv = ONE / m[top][c]
        m[top] = [a * inv for a in m[top]]
        for i in range(len(m)):
            if i != top and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        pivots.append(c)
    return {c: _sparse(m[i]) for i, c in enumerate(pivots)}


def _q_i(rng):
    """A small nonzero element of Q(i)."""
    while True:
        a = GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                             Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if a:
            return a


def _sparse_rows(rng, n):
    """Seeded sparse rows over n columns: random ones, empty ones,
    multiples of earlier ones, chains {a, b}, {b, c} with a < b < c,
    single entries, and multiples of earlier rows plus one entry
    elsewhere, which reduce to that entry once the earlier row is in.
    Added in that order a chain's second row takes pivot b, a column its
    first row holds, so the first row must be back-substituted."""
    rows = []
    for _ in range(rng.randint(1, 9)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2 and rows:
            f = _q_i(rng)
            rows.append({j: f * a for j, a in rng.choice(rows).items()})
        elif kind < 0.4 and n >= 3:
            a, b, c = sorted(rng.sample(range(n), 3))
            rows.append({a: _q_i(rng), b: _q_i(rng)})
            rows.append({b: _q_i(rng), c: _q_i(rng)})
        elif kind < 0.55:
            rows.append({rng.randrange(n): _q_i(rng)})
        elif kind < 0.7 and rows:
            f, base = _q_i(rng), rng.choice(rows)
            row = {j: f * a for j, a in base.items()}
            rest = [j for j in range(n) if j not in base]
            if rest:
                row[rng.choice(rest)] = _q_i(rng)
            rows.append(row)
        else:
            rows.append({j: _q_i(rng) for j in range(n)
                         if rng.random() < 0.3})
    return rows


def test_echelon_matches_dense_gauss_jordan():
    """Every view of a sparse Echelon, grown in random orders and split
    across copies, is the dense reference RREF of the rows added so far,
    and its touched set covers every non-pivot entry of its rows.  Many
    rows reduce to a single entry, which is kept as a unit row."""
    rng = random.Random(83)
    rewrites = units = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        rows = _sparse_rows(rng, n)
        rng.shuffle(rows)
        cut = rng.randint(0, len(rows))
        first = linalg.Echelon(rows[:cut])
        assert first.view() == _gauss_jordan(rows[:cut], n)
        # the rest goes to a copy and, in another order, to the original
        branches = [(first.copy(), rows[cut:]),
                    (first, rng.sample(rows[cut:], len(rows) - cut))]
        for echelon, rest in branches:
            for row in rest:
                before = {c: dict(r) for c, r in echelon.view().items()}
                units += len(linalg._residual(row, echelon._by_pivot)) == 1
                echelon.add(row)
                rewrites += any(echelon.view()[c] != r
                                for c, r in before.items())
                for c, r in echelon.view().items():
                    assert set(r) - {c} <= echelon._touched
            assert echelon.view() == _gauss_jordan(rows, n)
    assert rewrites > 100
    assert units > 100


ARITHMETIC = ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
              "__add__", "__radd__", "__sub__", "__rsub__", "__neg__")


@pytest.fixture
def arithmetic(monkeypatch):
    """Counts every arithmetic call on GaussianRational from now on."""
    calls = Counter()

    def counted(name):
        method = getattr(GaussianRational, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper
    for name in ARITHMETIC:
        monkeypatch.setattr(GaussianRational, name, counted(name))
    return calls


def test_unit_rows_cost_no_arithmetic(arithmetic):
    """A row that is one entry after reduction is kept as {c: 1}, it
    clears column c from the kept rows, and a unit pivot clears its
    column from a residual, all with no scalar arithmetic."""
    i, two = GaussianRational(0, 1), GaussianRational(2)
    # a single entry whose value is not 1, at an untouched column, and
    # a row that reduces to a single entry against a unit pivot
    echelon = linalg.Echelon([{0: two, 3: i, 5: ONE}, {1: i}])
    rows = [{4: GaussianRational(3, -1)}, {1: two, 6: i}]
    arithmetic.clear()
    for row in rows:
        assert echelon.add(row)
    assert not arithmetic
    assert echelon.view() == {0: {0: ONE, 3: i / 2, 5: ONE / 2},
                              1: {1: ONE}, 4: {4: ONE}, 6: {6: ONE}}
    # membership against unit pivots only
    space = Subspace._from_rows(6, [{0: two}, {2: i}, {4: ONE}])
    arithmetic.clear()
    assert space.contains_row({0: two, 2: i, 4: GaussianRational(1, 1)})
    assert not space.contains_row({0: two, 1: ONE})
    assert not arithmetic
    # a unit row back-substituted into kept rows that hold its column
    echelon = linalg.Echelon([{0: ONE, 3: two}, {1: ONE, 3: i, 4: two}])
    arithmetic.clear()
    assert echelon.add({3: GaussianRational(7)})
    assert not arithmetic
    assert echelon.view() == {0: {0: ONE}, 1: {1: ONE, 4: two},
                              3: {3: ONE}}


def test_zero_products_are_not_stored():
    """A zero product is not stored as a new entry: rows built with a
    zero weight hold explicit zeros, and so may a row being reduced."""
    three = GaussianRational(3)
    assert linalg.axpy({}, ONE, {0: ZERO, 1: three}) == {1: three}
    assert linalg.axpy({0: ONE}, ZERO, {0: three, 2: three}) == {0: ONE}
    # an explicit zero at a pivot column adds nothing at that pivot
    # row's other columns
    by_pivot = {0: {0: ONE, 2: three}}
    assert linalg._residual({0: ZERO, 1: three}, by_pivot) == {1: three}


def test_kernel_matches_reducing_every_free_row():
    """The kernel read off an RREF equals the dense reduction of the
    kernel row of every free column, 1 there and minus the column at
    each pivot, whether or not some RREF row holds the column."""
    rng = random.Random(97)
    shortcuts = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        rref = _gauss_jordan(_sparse_rows(rng, n), n)
        free = []
        for f in range(n):
            if f not in rref:
                row = {f: ONE}
                for c, r in rref.items():
                    if f in r:
                        row[c] = -r[f]
                free.append(row)
                shortcuts += len(row) == 1
        kernel = linalg._kernel(n, rref)
        assert kernel._by_pivot == _gauss_jordan(free, n)
        assert list(kernel._by_pivot) == sorted(kernel._by_pivot)
    assert shortcuts > 100


def test_mul_rows_matches_mul_vec():
    rng = random.Random(61)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(0, 5), rng.randint(1, 5))
        xs = [rand_matrix(rng, 1, m.cols).data[0] for _ in range(3)]
        assert m.mul_rows(xs) == [
            {i: a for i, a in enumerate(m.mul_vec(_dense(x, m.cols))) if a}
            for x in xs]


def test_inner_product_conjugate_linear_second_slot():
    u = [ONE, GaussianRational(0, 1)]
    v = [GaussianRational(0, 1), ONE]
    w = [Fraction(2), Fraction(3)]
    # <u, v> = sum u_k conj(v_k) w_k
    assert inner(u, v, w) == (ONE * GaussianRational(0, -1) * 2
                              + GaussianRational(0, 1) * 3)
    assert inner(v, u, w) == inner(u, v, w).conjugate()


def test_projection_residual_orthogonal():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        weights = [Fraction(rng.randint(1, 4)) for _ in range(n)]
        s = Subspace(n, [rand_vec(rng, n) for _ in range(rng.randint(1, 3))])
        v = rand_vec(rng, n)
        p = orthogonal_project(s, v, weights)
        assert s.contains(p)
        projector = Projector(s, weights)
        coeffs = projector.coefficients(_sparse(v))
        assert _dense(projector.combine(coeffs), n) == p
        assert projector.coefficients(_sparse(p)) == coeffs
        r = [a - b for a, b in zip(v, p)]
        for b in s.basis:
            assert inner(r, b, weights).is_zero()


def test_singular_gram_matrix_raises():
    # a zero weight on the only coordinate the basis uses
    with pytest.raises(ArithmeticError, match="Gram matrix is singular"):
        orthogonal_project(Subspace(2, [[1, 0]]), [1, 1], weights=[0, 1])


def test_min_norm_solution_is_minimal_and_deterministic():
    rng = random.Random(21)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(2, 6)
        m = rand_matrix(rng, rows, cols, density=0.5)
        weights = [Fraction(rng.randint(1, 3)) for _ in range(cols)]
        b = m.mul_vec(rand_vec(rng, cols))
        x = min_norm_solve(m, b, weights)
        assert x is not None and m.mul_vec(x) == b
        assert x == min_norm_solve(m, b, weights)
        # orthogonal to the kernel => minimal norm among solutions
        for k in kernel_basis(m).basis:
            assert inner(x, k, weights).is_zero()


def test_min_norm_solve_matches_two_reduction_reference():
    """One reduction of [M | b] gives the same potential as solving and
    taking the kernel of M apart, then projecting off the kernel."""
    def reference(m, b, weights):
        x0 = solve(m, b)
        if x0 is None:
            return None
        ker = kernel_basis(m)
        if ker.dim == 0:
            return x0
        p = orthogonal_project(ker, x0, weights)
        return [a - c for a, c in zip(x0, p)]

    rng = random.Random(29)
    kinds = set()
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = rand_matrix(rng, rows, cols, density=0.5)
        weights = [Fraction(rng.randint(1, 5), rng.randint(1, 5))
                   for _ in range(cols)]
        b = (m.mul_vec(rand_vec(rng, cols)) if rng.random() < 0.8
             else rand_vec(rng, rows))
        want = reference(m, b, weights)
        assert min_norm_solve(m, b, weights) == want
        kinds.add("none" if want is None
                  else "unique" if not kernel_basis(m).dim else "projected")
    assert kinds == {"none", "unique", "projected"}


def test_dimension_mismatch_raised():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2).mul_vec([ONE])
    with pytest.raises(DimensionMismatch):
        Subspace(2, [[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        inner([ONE], [ONE, ONE])
