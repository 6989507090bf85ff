"""Tests for the Krylov and relaxation solvers."""

import numpy as np
import pytest

from repro.linalg.iterative import (
    bicgstab,
    conjugate_gradient,
    gauss_seidel,
    gmres,
    jacobi,
    sor,
)
from repro.linalg.preconditioners import Ilu0Preconditioner, JacobiPreconditioner
from repro.linalg.sparse import CooBuilder


def laplacian_2d(n):
    """SPD 5-point Laplacian on an n x n interior grid."""
    size = n * n
    builder = CooBuilder(size, size)
    for j in range(n):
        for i in range(n):
            k = j * n + i
            builder.add(k, k, 4.0)
            if i > 0:
                builder.add(k, k - 1, -1.0)
            if i < n - 1:
                builder.add(k, k + 1, -1.0)
            if j > 0:
                builder.add(k, k - n, -1.0)
            if j < n - 1:
                builder.add(k, k + n, -1.0)
    return builder.to_csr()


def advection_diffusion(n, peclet=0.8):
    """Nonsymmetric stencil matrix (upwind-ish advection + diffusion)."""
    size = n * n
    builder = CooBuilder(size, size)
    for j in range(n):
        for i in range(n):
            k = j * n + i
            builder.add(k, k, 4.0)
            if i > 0:
                builder.add(k, k - 1, -1.0 - peclet)
            if i < n - 1:
                builder.add(k, k + 1, -1.0 + peclet)
            if j > 0:
                builder.add(k, k - n, -1.0)
            if j < n - 1:
                builder.add(k, k + n, -1.0)
    return builder.to_csr()


SOLVERS_SPD = [jacobi, gauss_seidel, sor, conjugate_gradient, bicgstab, gmres]


@pytest.mark.parametrize("solver", SOLVERS_SPD, ids=lambda f: f.__name__)
def test_solves_spd_system(solver):
    mat = laplacian_2d(6)
    rng = np.random.default_rng(0)
    x_true = rng.standard_normal(mat.num_rows)
    result = solver(mat, mat.matvec(x_true), tol=1e-11)
    assert result.converged
    np.testing.assert_allclose(result.x, x_true, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("solver", [bicgstab, gmres], ids=lambda f: f.__name__)
def test_nonsymmetric_system(solver):
    mat = advection_diffusion(6)
    rng = np.random.default_rng(1)
    x_true = rng.standard_normal(mat.num_rows)
    result = solver(mat, mat.matvec(x_true), tol=1e-11)
    assert result.converged
    np.testing.assert_allclose(result.x, x_true, rtol=1e-6, atol=1e-7)


def test_dense_input_accepted():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    result = conjugate_gradient(a, np.array([5.0, 5.0]))
    assert result.converged
    np.testing.assert_allclose(a @ result.x, [5.0, 5.0], atol=1e-8)


def test_zero_rhs_converges_immediately():
    mat = laplacian_2d(3)
    result = conjugate_gradient(mat, np.zeros(mat.num_rows))
    assert result.converged
    assert result.iterations == 0
    np.testing.assert_allclose(result.x, 0.0)


def test_initial_guess_respected():
    mat = laplacian_2d(4)
    x_true = np.ones(mat.num_rows)
    b = mat.matvec(x_true)
    result = conjugate_gradient(mat, b, x0=x_true)
    assert result.converged
    assert result.iterations == 0


def test_iteration_cap_reported_as_nonconverged():
    mat = laplacian_2d(8)
    b = np.ones(mat.num_rows)
    result = jacobi(mat, b, max_iterations=2, tol=1e-14)
    assert not result.converged
    assert result.iterations == 2


def test_residual_history_is_monotone_for_cg():
    mat = laplacian_2d(5)
    b = np.random.default_rng(3).standard_normal(mat.num_rows)
    result = conjugate_gradient(mat, b, tol=1e-12)
    history = np.array(result.residual_history)
    # CG residual norms are not strictly monotone in general, but the
    # envelope must decay: final residual far below the initial one.
    assert history[-1] < 1e-8 * history[0]


def test_matvec_count_reported():
    mat = laplacian_2d(4)
    b = np.ones(mat.num_rows)
    result = conjugate_gradient(mat, b, tol=1e-10)
    assert result.matvec_count >= result.iterations


def test_sor_omega_validation():
    mat = laplacian_2d(3)
    with pytest.raises(ValueError):
        sor(mat, np.ones(mat.num_rows), omega=2.5)


def test_jacobi_requires_nonzero_diagonal():
    builder = CooBuilder(2, 2)
    builder.add(0, 1, 1.0)
    builder.add(1, 0, 1.0)
    with pytest.raises(ValueError):
        jacobi(builder.to_csr(), np.ones(2))


def test_rhs_length_validated():
    mat = laplacian_2d(3)
    with pytest.raises(ValueError):
        conjugate_gradient(mat, np.ones(5))


class TestPreconditioning:
    def test_jacobi_preconditioner_reduces_cg_iterations(self):
        mat = laplacian_2d(8)
        # Badly scaled version: multiply rows/cols by wild factors.
        scale = np.exp(np.linspace(0.0, 6.0, mat.num_rows))
        from repro.linalg.sparse import diags

        d = diags(scale)
        # S A S is SPD with terrible conditioning.
        dense = d.to_dense() @ mat.to_dense() @ d.to_dense()
        b = np.ones(mat.num_rows)
        plain = conjugate_gradient(dense, b, tol=1e-10, max_iterations=5_000)
        from repro.linalg.sparse import CooBuilder as CB

        builder = CB(*dense.shape)
        rows, cols = np.nonzero(dense)
        for r, c in zip(rows, cols):
            builder.add(int(r), int(c), float(dense[r, c]))
        sparse_scaled = builder.to_csr()
        precond = JacobiPreconditioner(sparse_scaled)
        pcg = conjugate_gradient(sparse_scaled, b, preconditioner=precond, tol=1e-10)
        assert pcg.converged
        assert pcg.iterations < plain.iterations

    def test_ilu0_preconditioner_accelerates_bicgstab(self):
        mat = advection_diffusion(10, peclet=0.9)
        b = np.ones(mat.num_rows)
        plain = bicgstab(mat, b, tol=1e-10)
        ilu = bicgstab(mat, b, preconditioner=Ilu0Preconditioner(mat), tol=1e-10)
        assert ilu.converged
        assert ilu.iterations <= plain.iterations

    def test_gmres_with_ilu_matches_direct(self):
        mat = advection_diffusion(6)
        x_true = np.random.default_rng(4).standard_normal(mat.num_rows)
        b = mat.matvec(x_true)
        result = gmres(mat, b, preconditioner=Ilu0Preconditioner(mat), tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, rtol=1e-6, atol=1e-8)


def test_gmres_restart_still_converges():
    mat = advection_diffusion(7)
    x_true = np.random.default_rng(5).standard_normal(mat.num_rows)
    b = mat.matvec(x_true)
    result = gmres(mat, b, restart=5, tol=1e-10, max_iterations=20_000)
    assert result.converged
    np.testing.assert_allclose(result.x, x_true, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("solver", [bicgstab, gmres])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_rhs_fails_fast(solver, bad):
    """An inf right-hand side used to "converge" (inf <= inf) in zero
    iterations; a NaN one burned the whole budget. Both now fail at once."""
    a = laplacian_2d(4)
    b = np.ones(16)
    b[5] = bad
    result = solver(a, b, max_iterations=500)
    assert not result.converged
    assert result.iterations == 0
    assert result.matvec_count <= 1
    assert not np.isfinite(result.residual_norm)


@pytest.mark.parametrize("solver", [bicgstab, gmres])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_finite_rhs_is_not_reported_converged(solver):
    # Finite entries whose 2-norm overflows: the stop threshold is inf.
    result = solver(laplacian_2d(3), np.full(9, 1e200))
    assert not result.converged


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bicgstab_stops_when_the_residual_turns_nonfinite():
    # The start is finite; the first Krylov product overflows to inf.
    builder = CooBuilder(2, 2)
    builder.extend([(0, 0, 1.0), (1, 1, 1.0), (0, 1, 1e300)])
    result = bicgstab(builder.to_csr(), np.array([0.0, 1e10]), max_iterations=50)
    assert np.isfinite(result.residual_history[0])
    assert not result.converged
    assert result.iterations == 1
