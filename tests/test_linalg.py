"""Exact linear algebra: kernels, solving, subspaces, projections."""

import random
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
    m = Matrix.from_rows([[1, 0], [1, 0]])
    assert solve(m, [ONE, GaussianRational(2)]) is None
    assert solve(m, [ONE, ONE]) is not None


def test_subspace_membership_and_coordinates():
    s = Subspace(3, [[1, 0, 1], [0, 1, 1]])
    assert s.dim == 2
    assert s.contains([ONE, ONE, GaussianRational(2)])
    assert not s.contains([ONE, ZERO, ZERO])
    coords = s.coordinates([ONE, ONE, GaussianRational(2)])
    # reconstruct
    rebuilt = [ZERO, ZERO, ZERO]
    for c, b in zip(coords, s.basis):
        for i, a in enumerate(b):
            rebuilt[i] = rebuilt[i] + c * a
    assert rebuilt == [ONE, ONE, GaussianRational(2)]
    assert s.equals(Subspace(3, [[1, 1, 2], [1, -1, 0], [2, 0, 2]]))
    assert not s.equals(Subspace(3, [[1, 1, 2]]))


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
        assert Projector(s, weights).coefficients(v) == s.coordinates(p)
        r = linalg.vec_sub(v, p)
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


def test_dimension_mismatch_raised():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2).mul_vec([ONE])
    with pytest.raises(DimensionMismatch):
        Subspace(2, [[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        inner([ONE], [ONE, ONE])


def test_conj_transpose_adjoint_identity():
    rng = random.Random(23)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        u = rand_vec(rng, cols)
        v = rand_vec(rng, rows)
        # <M u, v> = <u, M^H v> (unweighted)
        assert inner(m.mul_vec(u), v) == inner(u, m.conj_transpose().mul_vec(v))
